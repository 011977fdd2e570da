import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cascadet import detector as D
from cascadet import fixtures, oracles, selfcheck
from cascadet import tensor as T
from cascadet.classifier import (BackboneSpec, classifier_layers,
                                 classifier_parameter_shapes)
from cascadet.detector import (CascadeNetworks, build_onet_layers,
                               build_pnet_layers, build_rnet_layers,
                               cascade_parameter_shapes, crop_resize_batch,
                               frame_to_tensor)
from cascadet.tensor import (LayerSpec, Network, NetworkError, bn_layer,
                             bottleneck_layer, conv_layer, dense_layer,
                             parameter_shapes, prelu_layer)
from cascadet.weights import WeightArchive

from generate_golden import GOLDEN_FRAME_SEED, GOLDEN_HEIGHT, GOLDEN_WIDTH
from test_tensor_ops import channels_last, rand_f32

STATS = ("gamma", "beta", "mean", "variance")


def bn_params(prefix, c, rng=None, zero=False):
    """The four batch-norm statistics of ``prefix`` by role."""
    if zero:
        stats = {"gamma": np.zeros(c, np.float32), "beta": np.zeros(c, np.float32),
                 "mean": np.zeros(c, np.float32),
                 "variance": np.ones(c, np.float32)}
    else:
        stats = {"gamma": rng.uniform(0.5, 1.5, c).astype(np.float32),
                 "beta": rng.uniform(-0.5, 0.5, c).astype(np.float32),
                 "mean": rng.uniform(-0.5, 0.5, c).astype(np.float32),
                 "variance": rng.uniform(0.2, 2.0, c).astype(np.float32)}
    return {f"{prefix}.{s}": v for s, v in stats.items()}


def bottleneck_net(in_c, out_c, expansion, params):
    """One stride-1 block Network over ``params`` (role -> tensor)."""
    return Network([bottleneck_layer("b", in_c, out_c, expansion, stride=1)],
                   WeightArchive({f"b.{role}": v for role, v in params.items()}))


def zeroed_bottleneck(out_c):
    """A 4 -> ``out_c`` stride-1 block with zero weights and statistics."""
    return bottleneck_net(4, out_c, 6, {
        "depthwise_weight": np.zeros((24, 1, 3, 3), np.float32),
        **bn_params("depthwise_norm", 24, zero=True),
        "project_weight": np.zeros((out_c, 24, 1, 1), np.float32),
        **bn_params("project_norm", out_c, zero=True),
        "expand_weight": np.zeros((24, 4, 1, 1), np.float32),
        **bn_params("expand_norm", 24, zero=True)})


def bottleneck_ops(x, p, stride=1, residual=True):
    """The block spelled out in public operators; ``p`` maps role -> tensor."""
    def norm(h, prefix):
        return T.batch_norm(h, *(p[f"{prefix}.{s}"] for s in STATS))

    h = x
    if "expand_weight" in p:
        h = T.relu6(norm(T.conv2d(h, p["expand_weight"]), "expand_norm"))
    h = T.relu6(norm(T.depthwise_conv2d(h, p["depthwise_weight"], stride=stride,
                                        padding=1), "depthwise_norm"))
    h = norm(T.conv2d(h, p["project_weight"]), "project_norm")
    return h + x if residual else h


class TestBottleneckBlock:
    def test_zeroed_residual_is_exact_identity(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, (1, 4, 6, 6)).astype(np.float32)
        out = zeroed_bottleneck(4).forward(x)
        np.testing.assert_array_equal(out, x)

    def test_zeroed_without_residual_is_zero(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, (1, 4, 6, 6)).astype(np.float32)
        out = zeroed_bottleneck(8).forward(x)
        np.testing.assert_array_equal(out, np.zeros((1, 8, 6, 6), np.float32))

    def test_matches_manual_operator_composition(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, (1, 4, 6, 6)).astype(np.float32)
        p = {"expand_weight": rng.uniform(-1, 1, (24, 4, 1, 1)).astype(np.float32),
             "depthwise_weight": rng.uniform(-1, 1, (24, 1, 3, 3)).astype(np.float32),
             "project_weight": rng.uniform(-1, 1, (4, 24, 1, 1)).astype(np.float32)}
        p.update(bn_params("expand_norm", 24, rng))
        p.update(bn_params("depthwise_norm", 24, rng))
        p.update(bn_params("project_norm", 4, rng))
        got = bottleneck_net(4, 4, 6, p).forward(x)
        np.testing.assert_allclose(got, bottleneck_ops(x, p), atol=1e-5)

    @pytest.mark.parametrize("stride, out_c, residual",
                             [(1, 4, True), (2, 4, False), (1, 8, False)])
    def test_residual_follows_geometry(self, stride, out_c, residual):
        assert bottleneck_layer("b", 4, out_c, 6, stride).residual is residual


def archive_for(layers, fill=0.0):
    archive = WeightArchive()
    for name, shape in parameter_shapes(layers):
        if name.endswith("variance"):
            archive.put(name, np.ones(shape, np.float32))
        else:
            archive.put(name, np.full(shape, fill, np.float32))
    return archive


class TestNetwork:
    def test_empty_network_is_identity(self):
        net = Network([], None)
        x = np.arange(12, dtype=np.float32).reshape(1, 3, 2, 2)
        np.testing.assert_array_equal(net.forward(x), x)

    def test_single_relu6_layer(self):
        net = Network([LayerSpec(kind="relu6", name="act")], None)
        x = np.array([[-2.0, 3.0, 7.0]], np.float32)
        np.testing.assert_array_equal(net.forward(x), T.relu6(x))

    def test_dense_identity_plus_softmax(self):
        layers = [dense_layer("fc", 2, 2), LayerSpec(kind="softmax", name="prob")]
        archive = WeightArchive()
        archive.put("fc.weight", np.eye(2, dtype=np.float32))
        archive.put("fc.bias", np.zeros(2, np.float32))
        net = Network(layers, archive)
        out = net.forward(np.array([[0.0, 0.0]], np.float32))
        np.testing.assert_array_equal(out, [[0.5, 0.5]])

    def test_missing_parameter_names_the_entry(self):
        layers = [conv_layer("c1", 3, 8, 3)]
        with pytest.raises(NetworkError, match="c1.weight"):
            Network(layers, WeightArchive())

    def test_wrong_shape_names_the_entry(self):
        layers = [conv_layer("c1", 3, 8, 3, bias=False)]
        archive = WeightArchive({"c1.weight": np.zeros((8, 3, 5, 5), np.float32)})
        with pytest.raises(NetworkError, match="c1.weight"):
            Network(layers, archive)

    def test_duplicate_layer_names_rejected(self):
        layers = [LayerSpec(kind="relu6", name="a"),
                  LayerSpec(kind="relu6", name="a")]
        with pytest.raises(NetworkError, match="duplicate"):
            Network(layers, None)

    def test_unknown_feed_rejected(self):
        layers = [LayerSpec(kind="relu6", name="a", feeds_from="ghost")]
        with pytest.raises(NetworkError, match="ghost"):
            Network(layers, None)

    def test_unknown_kind_rejected(self):
        with pytest.raises(NetworkError, match="kind"):
            LayerSpec(kind="warp", name="w")

    def test_bottleneck_stride_checked_at_construction(self):
        layers = [bottleneck_layer("b1", 4, 8, expansion=6, stride=3)]
        with pytest.raises(NetworkError, match="stride 1 or 2"):
            Network(layers, archive_for(layers))

    def test_taps_return_intermediates(self):
        layers = [LayerSpec(kind="relu6", name="first"),
                  LayerSpec(kind="softmax", name="last")]
        net = Network(layers, None)
        x = np.array([[1.0, -1.0]], np.float32)
        out, taps = net.forward(x, taps=("first",))
        np.testing.assert_array_equal(taps["first"], T.relu6(x))
        np.testing.assert_array_equal(out, T.softmax(T.relu6(x)))

    def test_branching_via_feeds_from(self):
        layers = [
            dense_layer("trunk", 2, 2, bias=False),
            dense_layer("head_a", 2, 1, bias=False),
            dense_layer("head_b", 2, 1, bias=False, feeds_from="trunk"),
        ]
        archive = WeightArchive({
            "trunk.weight": np.array([[1.0, 0.0], [0.0, 2.0]], np.float32),
            "head_a.weight": np.array([[1.0, 1.0]], np.float32),
            "head_b.weight": np.array([[1.0, -1.0]], np.float32),
        })
        net = Network(layers, archive)
        out, taps = net.forward(np.array([[1.0, 1.0]], np.float32),
                                taps=("head_a",))
        assert taps["head_a"].reshape(()) == 3.0   # 1 + 2
        assert out.reshape(()) == -1.0             # 1 - 2, from the trunk

    def test_forward_error_names_layer(self):
        layers = [conv_layer("badconv", 3, 4, 3, bias=False)]
        archive = WeightArchive(
            {"badconv.weight": np.zeros((4, 3, 3, 3), np.float32)})
        net = Network(layers, archive)
        with pytest.raises(ValueError, match="badconv"):
            net.forward(np.zeros((1, 5, 8, 8), np.float32))

    @pytest.mark.parametrize("second, message", [
        (prelu_layer("act", 5), "layer 'act': prelu: input has 8 channels "
                                "but alpha has 5"),
        (bn_layer("norm", 5), "layer 'norm': batch_norm: input has 8 "
                              "channels but gamma has 5"),
        (conv_layer("c2", 4, 2, 1), "layer 'c2': conv2d: input has 8 "
                                    "channels but weight expects 4"),
    ], ids=["prelu", "batch-norm", "conv"])
    def test_channel_mismatch_builds_and_fails_on_forward(self, second,
                                                          message):
        """Construction checks each layer's parameters, not that a layer's
        input channels match the previous layer's output: that fails on the
        first forward, naming the layer."""
        layers = [conv_layer("c1", 3, 8, 3), second]
        net = Network(layers, archive_for(layers))
        with pytest.raises(ValueError, match=message):
            net.forward(np.zeros((1, 3, 6, 6), np.float32))

    def test_forward_deterministic(self):
        rng = np.random.default_rng(3)
        layers = [conv_layer("c", 3, 6, 3, bias=False),
                  LayerSpec(kind="relu6", name="act"),
                  LayerSpec(kind="global-avg-pool", name="pool"),
                  dense_layer("fc", 6, 2, bias=False),
                  LayerSpec(kind="softmax", name="prob")]
        archive = WeightArchive({
            "c.weight": rng.uniform(-1, 1, (6, 3, 3, 3)).astype(np.float32),
            "fc.weight": rng.uniform(-1, 1, (2, 6)).astype(np.float32)})
        net = Network(layers, archive)
        x = rng.uniform(-1, 1, (1, 3, 10, 10)).astype(np.float32)
        assert net.forward(x).tobytes() == net.forward(x).tobytes()

    # Imports numpy and cascadet in the order given by argv[1], then prints
    # the thread count its OpenBLAS reports (or "none"), any warning logged
    # and the digest of an onet forward on 64 crops.
    IMPORT_ORDER_SCRIPT = """
import ctypes, hashlib, logging, sys
logging.basicConfig(stream=sys.stdout, format="warning: %(message)s")
if sys.argv[1] == "numpy-first":
    import numpy
    import cascadet
else:
    import cascadet
    import numpy
from cascadet import detector, fixtures, selfcheck
threads = "none"
for path in cascadet._loaded_libraries():
    if "openblas" in path:
        library = ctypes.CDLL(path)
        for name in cascadet._SET_THREADS:
            getter = getattr(library, name.replace("_set_", "_get_"), None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                threads = getter()
                break
print("threads", threads)
onet = detector.CascadeNetworks.from_archive(
    fixtures.fixture_cascade_archive()).onet
x = selfcheck.network_input(onet, 1, 64)
print("digest", hashlib.sha256(onet.forward(x).tobytes()).hexdigest())
"""

    def run_import_order(self, order, pin_by_environment):
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            env.pop(var, None)
            if pin_by_environment:
                env[var] = "1"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", self.IMPORT_ORDER_SCRIPT, order], env=env,
            capture_output=True, text=True, timeout=120, check=True)
        return done.stdout.splitlines()

    def test_blas_pinned_whatever_the_import_order(self):
        """numpy imported before cascadet, with no thread variable set,
        still gives one BLAS thread (or a warning naming the variable) and
        the forward bytes of a run pinned through the environment."""
        pinned = self.run_import_order("cascadet-first", True)
        late = self.run_import_order("numpy-first", False)
        assert pinned[0] in ("threads 1", "threads none")
        assert late[-1] == pinned[-1]
        warned = [line for line in late if line.startswith("warning:")]
        if late[0] == "threads 1":
            assert not warned
        else:
            assert len(warned) == 1 and "OPENBLAS_NUM_THREADS" in warned[0]

    @pytest.mark.parametrize("tap, depth", [(None, 0), ("p1", 1), ("p2", 2)])
    def test_forward_leaves_caller_input_and_taps_intact(self, tap, depth):
        """Three PReLUs with slope 0.5: the tap after ``depth`` of them holds
        the negatives scaled by 0.5 ** depth."""
        layers = [prelu_layer(f"p{i}", 3) for i in (1, 2, 3)]
        archive = WeightArchive({f"p{i}.alpha": np.full(3, 0.5, np.float32)
                                 for i in (1, 2, 3)})
        x = np.random.default_rng(4).uniform(-1, 1, (2, 3, 4, 4)).astype(np.float32)
        snapshot = x.copy()
        net = Network(layers, archive)
        if tap is None:
            net.forward(x)
        else:
            _, taps = net.forward(x, taps=(tap,))
            want = np.where(x < 0, x * np.float32(0.5 ** depth), x)
            assert taps[tap].tobytes() == want.tobytes()
        assert x.tobytes() == snapshot.tobytes()

    @pytest.mark.parametrize("tap", [None, "n1", "clamp6", "n2"])
    def test_in_place_layers_keep_the_operators_bits(self, tap):
        """Batch norm, ReLU6, batch norm and ReLU, each writing over the
        intermediate it owns, give the output and the tap that the public
        operators give one after another, and leave the input intact."""
        rng = np.random.default_rng(9)
        p = {**bn_params("n1", 3, rng), **bn_params("n2", 3, rng)}
        layers = [bn_layer("n1", 3), LayerSpec(kind="relu6", name="clamp6"),
                  bn_layer("n2", 3), LayerSpec(kind="relu", name="clamp")]
        x = channels_last(rng.uniform(-8, 8, (2, 3, 5, 4)).astype(np.float32))
        snapshot = x.copy()
        want = {"n1": T.batch_norm(x, *(p[f"n1.{s}"] for s in STATS))}
        want["clamp6"] = T.relu6(want["n1"])
        want["n2"] = T.batch_norm(want["clamp6"], *(p[f"n2.{s}"] for s in STATS))
        out = Network(layers, WeightArchive(p)).forward(
            x, taps=(tap,) if tap else ())
        if tap:
            out, taps = out
            assert taps[tap].tobytes() == want[tap].tobytes()
        assert out.tobytes() == T.relu(want["n2"]).tobytes()
        assert x.tobytes() == snapshot.tobytes()


# Per case: the layer, the input shape, and the same layer as a direct call
# of the public operators on (input, {role: parameter tensor}).
ONE_LAYER_CASES = {
    "conv": (conv_layer("l", 4, 6, 3, stride=2, padding=1), (2, 4, 7, 7),
             lambda x, p: T.conv2d(x, p["weight"], p["bias"], 2, 1)),
    "conv-1x1": (conv_layer("l", 4, 6, 1), (2, 4, 7, 7),
                 lambda x, p: T.conv2d(x, p["weight"], p["bias"])),
    "batch-norm": (bn_layer("l", 4), (2, 4, 7, 7),
                   lambda x, p: T.batch_norm(x, *(p[s] for s in STATS))),
    "batch-norm-rank2": (bn_layer("l", 5), (3, 5),
                         lambda x, p: T.batch_norm(x, *(p[s] for s in STATS))),
    "relu6": (LayerSpec(kind="relu6", name="l"), (2, 4, 7, 7),
              lambda x, p: T.relu6(x)),
    "relu": (LayerSpec(kind="relu", name="l"), (2, 4, 7, 7),
             lambda x, p: T.relu(x)),
    "prelu": (prelu_layer("l", 4), (2, 4, 7, 7),
              lambda x, p: T.prelu(x, p["alpha"])),
    "max-pool": (LayerSpec(kind="max-pool", name="l", kernel=3, stride=2),
                 (2, 4, 7, 7), lambda x, p: T.max_pool2d(x, 3, 2)),
    "global-avg-pool": (LayerSpec(kind="global-avg-pool", name="l"),
                        (2, 4, 7, 7), lambda x, p: T.global_avg_pool(x)),
    "dense": (dense_layer("l", 4 * 7 * 7, 5), (2, 4, 7, 7),
              lambda x, p: T.dense(x, p["weight"], p["bias"])),
    "softmax": (LayerSpec(kind="softmax", name="l"), (2, 4, 7, 7),
                lambda x, p: T.softmax(x, axis=1)),
    "softmax-rank2": (LayerSpec(kind="softmax", name="l"), (3, 5),
                      lambda x, p: T.softmax(x, axis=-1)),
    "bottleneck-block": (bottleneck_layer("l", 4, 4, 6, 1), (2, 4, 7, 7),
                         lambda x, p: bottleneck_ops(x, p)),
    "bottleneck-block-s2": (bottleneck_layer("l", 4, 8, 1, 2),
                            (2, 4, 7, 7),
                            lambda x, p: bottleneck_ops(x, p, stride=2,
                                                        residual=False)),
}


def test_one_layer_cases_cover_every_kind():
    assert {layer.kind for layer, _, _ in ONE_LAYER_CASES.values()} == T.LAYER_KINDS


def test_layer_kinds_are_the_kinds_the_networks_use():
    layers = (build_pnet_layers() + build_rnet_layers() + build_onet_layers()
              + classifier_layers(BackboneSpec()))
    assert {layer.kind for layer in layers} == T.LAYER_KINDS


def one_layer_inputs(case):
    """A one-layer case's layer, a seeded archive for it and an input."""
    layer, shape, _ = ONE_LAYER_CASES[case]
    rng = np.random.default_rng(8)
    archive = WeightArchive()
    for entry, entry_shape in parameter_shapes([layer]):
        low = 0.2 if entry.endswith("variance") else -1.0
        archive.put(entry, rng.uniform(low, 1.0, entry_shape).astype(np.float32))
    return layer, archive, rng.uniform(-8, 8, shape).astype(np.float32)


@pytest.mark.parametrize("case", sorted(ONE_LAYER_CASES))
def test_compiled_layer_equals_direct_operator_call(case):
    """On contiguous input and, for an activation, on the channels-last
    memory the trunk passes between layers."""
    layer, archive, x = one_layer_inputs(case)
    direct = ONE_LAYER_CASES[case][2]
    params = {role: archive.get(f"l.{role}")
              for role, _ in T.layer_parameters(layer)}
    for x in (x, channels_last(x)) if x.ndim == 4 else (x,):
        snapshot = x.copy()
        got = Network([layer], archive).forward(x)
        assert x.tobytes() == snapshot.tobytes()
        want = direct(x, params)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", sorted(ONE_LAYER_CASES))
def test_reference_forward_agrees_on_every_layer_kind(case):
    """The float64 reference and the float32 operators, independent
    implementations of each layer, agree to float32 rounding."""
    layer, archive, x = one_layer_inputs(case)
    want = oracles.reference_forward([layer], archive, x)
    got = Network([layer], archive).forward(x)
    assert want.dtype == np.float64 and want.shape == got.shape
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


@pytest.fixture(scope="module")
def reference_networks():
    """The four fixture networks by name, each with its archive."""
    return selfcheck.fixture_networks()


@pytest.mark.parametrize("network", sorted(selfcheck.REFERENCE_TAPS))
def test_pre_softmax_taps_within_reference_bounds(reference_networks, network):
    """Each fixture network's pre-softmax outputs stay within their fixed
    relative bounds of the float64 reference forward, on a few pipeline
    shaped inputs: a pyramid level for pnet, crops for the others."""
    net, archive = reference_networks[network]
    for seed in (1, 2, 3):
        x = selfcheck.network_input(net, seed, 2 if network == "classifier" else 4)
        for tap, gap in selfcheck.reference_gaps(network, net, archive, x).items():
            assert gap <= selfcheck.REFERENCE_BOUNDS[tap], (seed, tap, gap)


# Fixture weights are drawn in parameter_shapes order, so any reordering or
# renaming would silently change every fixture weight.
PINNED_PARAMETER_LISTS = {
    "cascade": (cascade_parameter_shapes, 50,
                "10861b17f19cc7c8de384221f67c218bad5024fd32a570cb95b497d2b216b780"),
    "classifier": (lambda: classifier_parameter_shapes(BackboneSpec()), 264,
                   "ebadcc954b357e06c855ab5972c7f03e733235dcf534e068c506f4d0a6824dbe"),
}


@pytest.mark.parametrize("network", sorted(PINNED_PARAMETER_LISTS))
def test_parameter_order_pinned(network):
    shapes_of, count, digest = PINNED_PARAMETER_LISTS[network]
    shapes = shapes_of()
    assert len(shapes) == count
    assert hashlib.sha256(json.dumps(shapes).encode()).hexdigest() == digest


@pytest.fixture(scope="module")
def fixture_networks(reference_networks):
    return {name: net for name, (net, _) in reference_networks.items()}


@pytest.mark.parametrize("network", ["pnet", "rnet", "onet", "classifier"])
def test_every_tap_equals_contiguous_replay(fixture_networks, network):
    """One forward tapping every layer against the bound steps applied one at
    a time to contiguous copies: catches an in-place write to a kept output
    and any operator whose bits follow its input's memory layout."""
    net = fixture_networks[network]
    frame = frame_to_tensor(fixtures.synthetic_frame(2, 160, 120))
    if net.input_shape is None:
        x = frame
    else:
        # Three crops, one hanging past the frame edge; channels-last memory.
        boxes = np.array([[10.0, 12.0, 58.0, 60.0], [100.0, 40.0, 130.0, 75.0],
                          [140.0, 90.0, 190.0, 140.0]])
        x = crop_resize_batch(frame, boxes, net.input_shape[-1])
    snapshot = np.array(x)
    names = tuple(layer.name for layer in net.layers)
    final, taps = net.forward(x, taps=names)

    current, replay = replay_steps(net, x)
    for name in names:
        assert taps[name].tobytes() == replay[name].tobytes(), name
    assert final.tobytes() == current.tobytes()
    # Untapped, PReLUs run in place: the same final bytes, input untouched.
    assert net.forward(x).tobytes() == current.tobytes()
    assert np.array(x).tobytes() == snapshot.tobytes()


def replay_steps(net, x):
    """``net``'s bound steps applied one at a time to contiguous copies of
    the whole of ``x``, uncut: the final output and every layer's."""
    replay, current = {}, x
    for name, feeds_from, _, step in net._steps:
        source = replay[feeds_from] if feeds_from else current
        current = replay[name] = step(np.ascontiguousarray(source))
    return current, replay


HEADS = {"rnet": ("rnet.reg",), "onet": ("onet.reg", "onet.landmarks")}


class TestReadExtent:
    def test_refinement_heads_read_a_corner(self):
        rnet, onet = build_rnet_layers(), build_onet_layers()
        assert T.read_extent(rnet, (24, 24), HEADS["rnet"]) == (21, 21)
        assert T.read_extent(onet, (48, 48), HEADS["onet"]) == (41, 41)
        # The region of a region is itself.
        assert T.read_extent(rnet, (21, 21), HEADS["rnet"]) == (21, 21)

    def test_padded_and_pooled_networks_read_everything(self):
        layers = classifier_layers(BackboneSpec())
        assert T.read_extent(layers, (96, 96)) == (96, 96)
        assert T.read_extent(layers, (96, 96), ("backbone.block2",)) == (96, 96)
        assert T.read_extent([], (5, 7)) == (5, 7)

    @pytest.mark.parametrize("network, extent", [("rnet", 24), ("onet", 48)])
    def test_a_tapped_first_layer_reads_everything(self, network, extent):
        build = {"rnet": build_rnet_layers, "onet": build_onet_layers}
        layers = build[network]()
        for name in (layers[0].name, layers[1].name):
            assert T.read_extent(layers, (extent, extent),
                                 (*HEADS[network], name)) == (extent, extent)

    def test_floor_pooling_and_strides_follow_each_axis(self):
        # 3x3 conv, 2x2 stride-2 pool: 2x3 outputs read 6x8 of 7x9 rows.
        layers = [conv_layer("c", 1, 1, 3), prelu_layer("a", 1),
                  LayerSpec(kind="max-pool", name="p", kernel=2, stride=2)]
        assert T.read_extent(layers, (7, 9)) == (6, 8)
        # A branch that reads more widens the need of the layer it reads.
        wide = [*layers, conv_layer("d", 1, 1, 1, feeds_from="a")]
        assert T.read_extent(wide, (7, 9)) == (7, 9)
        assert T.read_extent(wide[:3] + [dense_layer("f", 12, 2)], (7, 9),
                             ("a",)) == (7, 9)

    def test_kernels_that_do_not_fit_read_everything(self):
        # conv3 cannot run on pnet's 2x2 map: the forward reports it.
        assert T.read_extent(build_pnet_layers(), (11, 11)) == (11, 11)


@pytest.mark.parametrize("network", ["pnet", "rnet", "onet", "classifier"])
def test_each_tap_alone_equals_uncut_replay(fixture_networks, network):
    """Tapping one layer at a time, the forward on its cut input gives that
    layer's output whole, and the final output, with the bytes the steps
    give on the uncut input."""
    net = fixture_networks[network]
    x = selfcheck.network_input(net, 3, 3)
    final, replay = replay_steps(net, x)
    for name, want in replay.items():
        out, taps = net.forward(x, taps=(name,))
        assert taps[name].tobytes() == want.tobytes(), name
        assert out.tobytes() == final.tobytes(), name


@pytest.mark.parametrize("network", ["rnet", "onet"])
def test_unread_border_never_reaches_the_heads(fixture_networks, golden_crops,
                                               network):
    """NaN in every row and column past the region of the golden frame's
    crops: the forward and the uncut steps give the heads the clean
    forward's bytes, all finite."""
    net = fixture_networks[network]
    x = golden_crops[network][:40]
    heads = HEADS[network]
    h, w = T.read_extent(net.layers, net.input_shape[1:], heads)
    poisoned = np.array(x)
    poisoned[:, :, h:, :] = np.nan
    poisoned[:, :, :, w:] = np.nan
    clean, clean_taps = net.forward(x, taps=heads)
    got, got_taps = net.forward(poisoned, taps=heads)
    uncut, uncut_taps = replay_steps(net, poisoned)
    for name in heads:
        assert np.isfinite(clean_taps[name]).all()
        assert got_taps[name].tobytes() == clean_taps[name].tobytes()
        assert uncut_taps[name].tobytes() == clean_taps[name].tobytes()
    assert np.isfinite(clean).all()
    assert got.tobytes() == uncut.tobytes() == clean.tobytes()


@pytest.mark.parametrize("network", ["rnet", "onet"])
def test_last_read_row_and_column_reach_the_heads(fixture_networks,
                                                  golden_crops, network):
    """The region is tight: a large value added to its last row, or to its
    last column, changes some head output."""
    net = fixture_networks[network]
    x = golden_crops[network][:40]
    heads = HEADS[network]
    h, w = T.read_extent(net.layers, net.input_shape[1:], heads)

    def outputs(v):
        final, taps = net.forward(v, taps=heads)
        return [final.tobytes(), *(taps[name].tobytes() for name in heads)]

    clean = outputs(x)
    for edge in (np.s_[:, :, h - 1, :w], np.s_[:, :, :h, w - 1]):
        bumped = np.array(x)
        bumped[edge] += 100.0
        assert outputs(bumped) != clean


class TestDeclaredInputShape:
    def test_region_shape_accepted_with_the_bytes_of_the_whole(
            self, fixture_networks, golden_crops):
        net = fixture_networks["rnet"]
        x = golden_crops["rnet"][:20]
        whole = net.forward(x, taps=HEADS["rnet"])
        cut = net.forward(np.ascontiguousarray(x[:, :, :21, :21]),
                          taps=HEADS["rnet"])
        assert whole[0].tobytes() == cut[0].tobytes()
        assert (whole[1]["rnet.reg"].tobytes()
                == cut[1]["rnet.reg"].tobytes())

    @pytest.mark.parametrize("shape, taps", [
        ((3, 22, 22), ("rnet.reg",)), ((3, 21, 24), ("rnet.reg",)),
        ((3, 23, 23), ("rnet.reg",)), ((3, 20, 20), ("rnet.reg",)),
        ((4, 21, 21), ("rnet.reg",)), ((3, 21, 21), ("rnet.conv1",))])
    def test_any_other_shape_rejected(self, fixture_networks, shape, taps):
        net = fixture_networks["rnet"]
        with pytest.raises(ValueError, match="declared"):
            net.forward(np.zeros((2, *shape), np.float32), taps=taps)


def rule_rows(row_bytes):
    """Rows per chunk the byte rule gives rows of ``row_bytes`` bytes."""
    return max(1, T._BLOCK_BYTES // row_bytes)


# An 8 KiB row (1 x 32 x 64 float32) and its chunk rows: 32 at the default
# budget. The chunking tests split batches around multiples of R.
ROW_SHAPE = (1, 32, 64)
ROW_BYTES = 4 * 32 * 64
R = rule_rows(ROW_BYTES)


@pytest.mark.parametrize("n", [0, 1, R - 1, R, R + 1, 2 * R - 1, 2 * R,
                               2 * R + 1, 3 * R + 2])
def test_trunk_runs_in_chunks_and_head_on_whole_batch(monkeypatch, n):
    """Below 2R rows the network runs once; above, on R-row chunks whose
    last takes the remainder. The dense head sees the chunks too."""
    rows = {"conv2d": [], "dense": []}

    def recording(op):
        run = getattr(T, op)

        def record(x, *args, **kwargs):
            rows[op].append(len(x))
            return run(x, *args, **kwargs)
        return record

    for op in rows:
        monkeypatch.setattr(T, op, recording(op))
    layers = [conv_layer("c", 1, 2, 1), dense_layer("d", 2 * ROW_BYTES // 4, 3)]
    x = np.repeat(np.arange(n, dtype=np.float32), ROW_BYTES // 4).reshape(
        n, *ROW_SHAPE)
    out = Network(layers, archive_for(layers, fill=1.0)).forward(x)
    # The dense layer sums 2 x 2048 conv outputs of v + 1, exactly.
    assert out.tolist() == [[4096 * (v + 1) + 1] * 3 for v in range(n)]
    chunks = [n] if n < 2 * R else [R] * (n // R - 1) + [R + n % R]
    # Two chunks may run side by side, so each layer's calls can interleave.
    assert {op: sorted(sizes) for op, sizes in rows.items()} == {
        "conv2d": sorted(chunks), "dense": sorted(chunks)}


@pytest.fixture(scope="module")
def golden_crops(fixture_networks):
    """The golden frame's stage-1 rnet crops and stage-2 onet crops, whole:
    the detector itself samples only the region its heads read."""
    crops = {}
    forward_crops = D.forward_crops

    def record(image, boxes, network, extent, taps=()):
        crops["rnet" if extent == D.RNET_EXTENT else "onet"] = (
            D.crop_resize_batch(image, boxes, extent))
        return forward_crops(image, boxes, network, extent, taps)

    networks = CascadeNetworks(*(fixture_networks[name]
                                 for name in ("pnet", "rnet", "onet")))
    frame = fixtures.synthetic_frame(GOLDEN_FRAME_SEED, GOLDEN_WIDTH,
                                     GOLDEN_HEIGHT)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(D, "forward_crops", record)
        D.detect_faces(frame_to_tensor(frame), networks, D.CascadeConfig())
    return crops


def refinement_batch(net, golden_crops, network, batch):
    """The golden frame's crops for ``network``, or ``batch`` seeded random
    crops of a synthetic frame, some hanging past its edges."""
    if batch == "golden":
        return golden_crops[network]
    rng = np.random.default_rng(batch)
    frame = frame_to_tensor(fixtures.synthetic_frame(batch, 160, 120))
    corner = rng.uniform(-20, 150, (batch, 2))
    return crop_resize_batch(frame, np.hstack(
        [corner, corner + rng.uniform(8, 60, (batch, 2))]),
        net.input_shape[-1])


def assert_chunks_keep_bytes(net, x, monkeypatch):
    """A forward that runs in the chunks of the current
    ``_BLOCK_BYTES`` gives the bytes of a forward on the whole batch at
    once: its output, its taps and its untapped output."""
    # Every layer from the first pool on: the first two hold 75 MB each on
    # the golden rnet batch.
    names = tuple(layer.name for layer in net.layers)[2:]

    def forward_bytes():
        final, taps = net.forward(x, taps=names)
        return [final.tobytes(), net.forward(x).tobytes(),
                *(taps[name].tobytes() for name in names)]

    chunked = forward_bytes()
    monkeypatch.setattr(T, "_BLOCK_BYTES", x.nbytes + 1)
    assert len(T.row_chunks(len(x), x[:1].nbytes)) == 1
    assert forward_bytes() == chunked


@pytest.mark.parametrize("network", ["rnet", "onet"])
@pytest.mark.parametrize("batch", [R - 1, R, R + 1, 2 * R - 1, 2 * R,
                                   2 * R + 1, 3 * R + 2, "golden"])
def test_chunked_trunk_equals_whole_batch(fixture_networks, golden_crops,
                                          monkeypatch, network, batch):
    """At the default budget (rnet 37 rows, onet 9) and at a budget of R
    crops, so that the batch straddles R-row chunk edges."""
    net = fixture_networks[network]
    x = refinement_batch(net, golden_crops, network, batch)
    for budget in (T._BLOCK_BYTES, R * x[:1].nbytes):
        monkeypatch.setattr(T, "_BLOCK_BYTES", budget)
        assert_chunks_keep_bytes(net, x, monkeypatch)


@pytest.mark.parametrize("network", ["rnet", "onet"])
@pytest.mark.parametrize("batch", [9, 3 * R + 2, "golden"])
def test_five_row_chunks_equal_whole_batch(fixture_networks, golden_crops,
                                           monkeypatch, network, batch):
    """A one-byte budget gives one-row chunks, each forwarded with the
    bits its rows get in the whole batch."""
    net = fixture_networks[network]
    x = refinement_batch(net, golden_crops, network, batch)
    monkeypatch.setattr(T, "_BLOCK_BYTES", 1)
    chunks = T.row_chunks(len(x), x[:1].nbytes)
    assert {c.stop - c.start for c in chunks} == {1}
    assert_chunks_keep_bytes(net, x, monkeypatch)


@pytest.mark.parametrize("n", [0, 1, R - 1, R, R + 1, 2 * R - 1, 2 * R,
                               2 * R + 1, 3 * R + 2])
def test_row_chunks_cover_the_batch_in_order(n):
    """R-row slices of 8 KiB rows that tile the batch, the last taking the
    remainder; one slice, empty for an empty batch, below 2R rows."""
    chunks = T.row_chunks(n, ROW_BYTES)
    sizes = [n] if n < 2 * R else [R] * (n // R - 1) + [R + n % R]
    assert [c.stop - c.start for c in chunks] == sizes
    assert [c.start for c in chunks] == [0, *(c.stop for c in chunks[:-1])]
    assert chunks[-1].stop == n and all(c.step is None for c in chunks)


@pytest.mark.parametrize("extent, rows", [(24, 37), (48, 9), (96, 2)])
def test_byte_rule_sizes_chunks_by_row_bytes(extent, rows):
    """The rule gives rnet, onet and classifier crops (3 x E x E float32)
    37, 9 and 2 rows at the default budget; no chunk is empty unless the
    batch is, even for rows above the budget."""
    crop_bytes = 3 * extent * extent * 4
    assert T.row_chunks(3 * rows, crop_bytes)[0] == slice(0, rows)
    for row_bytes in (crop_bytes, T._BLOCK_BYTES + 1, 1 << 30):
        for n in range(3 * rows + 2):
            sizes = [c.stop - c.start for c in T.row_chunks(n, row_bytes)]
            assert sum(sizes) == n
            assert min(sizes) >= min(n, 1)


@pytest.mark.parametrize("network, rows, limit_mib",
                         [("rnet", 1400, 24), ("onet", 160, 16)])
def test_forward_peak_memory_is_chunk_sized(fixture_networks, network, rows,
                                            limit_mib):
    """A refinement forward on a clip640-sized batch allocates a chunk's
    im2col matrices, not the batch's (whole-batch peaks: rnet 142 MiB,
    onet 95 MiB)."""
    net = fixture_networks[network]
    rng = np.random.default_rng(rows)
    x = rng.uniform(-1, 1, (rows, *net.input_shape)).astype(np.float32)
    tracemalloc.start()
    try:
        net.forward(x, taps=(f"{network}.reg",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20, peak / 2**20


# Batch sizes on both sides of one and of two 64-row product tiles.
INVARIANCE_BATCHES = (1, 2, 16, 17, 64, 65)


def assert_rows_alone(forward, x):
    """On the first rows of ``x``, at each of ``INVARIANCE_BATCHES``, every
    row of ``forward``'s output has the bytes ``forward`` gives it alone."""
    alone = [forward(x[i:i + 1]).tobytes() for i in range(len(x))]
    for batch in INVARIANCE_BATCHES:
        out = forward(x[:batch])
        for i in range(batch):
            assert out[i:i + 1].tobytes() == alone[i], (batch, i)


# The operators that run matrix products, on shapes the networks use:
# operator, weight shape, one row's input shape and keyword arguments.
GEMM_CASES = {
    "conv-3x3": (T.conv2d, (10, 3, 3, 3), (3, 12, 12), {}),
    "conv-2x2": (T.conv2d, (64, 48, 2, 2), (48, 3, 3), {}),
    "conv-1x1": (T.conv2d, (2, 32, 1, 1), (32, 5, 5), {}),
    "conv-3x3-s2-padded": (T.conv2d, (32, 3, 3, 3), (3, 16, 16),
                           {"stride": 2, "padding": 1}),
    "dense-576-128": (T.dense, (128, 576), (576,), {}),
    "dense-1280-128": (T.dense, (128, 1280), (1280,), {}),
    "dense-128-2": (T.dense, (2, 128), (128,), {}),
}


@pytest.mark.parametrize("case", sorted(GEMM_CASES))
def test_product_operators_give_each_row_its_bits_alone(case):
    op, weight_shape, row_shape, kwargs = GEMM_CASES[case]
    rng = np.random.default_rng(40)
    weight, bias = rand_f32(rng, *weight_shape), rand_f32(rng, weight_shape[0])
    x = rand_f32(rng, max(INVARIANCE_BATCHES), *row_shape)
    assert_rows_alone(lambda rows: op(rows, weight, bias, **kwargs), x)


@pytest.mark.parametrize("budget", ["default", 1])
@pytest.mark.parametrize("network", ["pnet", "rnet", "onet", "classifier"])
def test_networks_give_each_row_its_bits_alone(fixture_networks, monkeypatch,
                                               network, budget):
    """pnet on pyramid levels, the others on crops, one per seed, at the
    default byte budget and at one-row chunks."""
    net = fixture_networks[network]
    if budget != "default":
        monkeypatch.setattr(T, "_BLOCK_BYTES", budget)
    x = np.concatenate([selfcheck.network_input(net, seed, 1)
                        for seed in range(1, max(INVARIANCE_BATCHES) + 1)])
    assert_rows_alone(net.forward, x)
