import gc
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from types import SimpleNamespace

import numpy as np
import pytest

from cascadet import oracles
from cascadet import tensor as T
from cascadet.classifier import BackboneSpec, classifier_layers
from cascadet.weights import WeightArchive


def channels_last(x):
    """The same NCHW values, held in (N, H, W, C) memory order."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def strided_slice(x):
    """The same NCHW values, as a view that skips rows and columns of a
    larger NCHW array."""
    n, c, h, w = x.shape
    big = np.zeros((n, c, 2 * h, w + 3), x.dtype)
    big[:, :, ::2, 2:-1] = x
    return big[:, :, ::2, 2:-1]


# One logical input held in three memory orders.
LAYOUTS = {"contiguous": np.ascontiguousarray, "channels-last": channels_last,
           "strided-slice": strided_slice}


def rand_f32(rng, *shape, lo=-1.0, hi=1.0):
    return rng.uniform(lo, hi, size=shape).astype(np.float32)


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rand_f32(rng, 1, 1, 5, 5)
        w = np.ones((1, 1, 1, 1), np.float32)
        out = T.conv2d(x, w, np.zeros(1, np.float32))
        np.testing.assert_array_equal(out, x)

    def test_all_ones_kernel_sums_window(self):
        x = np.full((1, 1, 3, 3), 2.0, np.float32)
        w = np.ones((1, 1, 3, 3), np.float32)
        out = T.conv2d(x, w, np.zeros(1, np.float32))
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 18.0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        x = rand_f32(rng, 1, 3, 8, 8)
        w = rand_f32(rng, 4, 3, 3, 3)
        got = T.conv2d(x, w, stride=1, padding=0)
        want = oracles.naive_conv2d(x, w, stride=1, padding=0)
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_random_shapes_against_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(1, 3))
            c = int(rng.integers(1, 4))
            oc = int(rng.integers(1, 5))
            k = int(rng.choice([1, 2, 3, 5]))
            stride = int(rng.choice([1, 2]))
            padding = int(rng.choice([0, 1, 2]))
            extent = int(rng.integers(k, k + 6))
            x = rand_f32(rng, n, c, extent, extent)
            w = rand_f32(rng, oc, c, k, k)
            b = rand_f32(rng, oc)
            got = T.conv2d(x, w, b, stride, padding)
            want = oracles.naive_conv2d(x, w, b, stride, padding)
            np.testing.assert_allclose(got, want, atol=1e-5)
        # A 1x1 kernel at stride 1 without padding.
        x, w, b = rand_f32(rng, 2, 4, 5, 5), rand_f32(rng, 3, 4, 1, 1), rand_f32(rng, 3)
        np.testing.assert_allclose(T.conv2d(x, w, b),
                                   oracles.naive_conv2d(x, w, b, 1, 0), atol=1e-5)

    def test_output_shape_formula(self):
        rng = np.random.default_rng(3)
        for k in (1, 2, 3, 5):
            for stride in (1, 2):
                for padding in (0, 1, 2):
                    h, w = 7, 9
                    if h + 2 * padding < k:
                        continue
                    x = rand_f32(rng, 1, 2, h, w)
                    wt = rand_f32(rng, 3, 2, k, k)
                    out = T.conv2d(x, wt, stride=stride, padding=padding)
                    eh = (h + 2 * padding - k) // stride + 1
                    ew = (w + 2 * padding - k) // stride + 1
                    assert out.shape == (1, 3, eh, ew)

    def test_channel_mismatch_rejected(self):
        x = np.zeros((1, 3, 5, 5), np.float32)
        w = np.zeros((2, 4, 3, 3), np.float32)
        with pytest.raises(ValueError, match="channels"):
            T.conv2d(x, w)

    def test_kernel_larger_than_input_rejected(self):
        x = np.zeros((1, 1, 2, 2), np.float32)
        w = np.zeros((1, 1, 3, 3), np.float32)
        with pytest.raises(ValueError, match="smaller than"):
            T.conv2d(x, w)


@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("kernel", [1, 2, 3])
def test_conv2d_bytes_do_not_depend_on_memory_order(kernel, stride, padding):
    rng = np.random.default_rng(40 + kernel)
    x = rand_f32(rng, 3, 12, 9, 11, lo=-4.0, hi=4.0)
    w, b = rand_f32(rng, 7, 12, kernel, kernel), rand_f32(rng, 7)
    got = {name: T.conv2d(layout(x), w, b, stride, padding).tobytes()
           for name, layout in LAYOUTS.items()}
    assert len(set(got.values())) == 1, got.keys()


def memory_order(x):
    """Axes from the slowest-varying in memory to the fastest."""
    return tuple(np.argsort([-s for s in x.strides], kind="stable"))


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_pad_spatial_keeps_memory_order(layout):
    x = LAYOUTS[layout](rand_f32(np.random.default_rng(41), 2, 5, 4, 6))
    out = T._pad_spatial(x, 2)
    order = memory_order(x)
    assert memory_order(out) == order
    assert out.transpose(order).flags.c_contiguous
    assert out.tobytes() == np.pad(x, ((0, 0), (0, 0), (2, 2), (2, 2))).tobytes()


class TestDepthwiseConv2d:
    def test_per_channel_identity(self):
        rng = np.random.default_rng(4)
        x = rand_f32(rng, 1, 3, 4, 4)
        w = np.ones((3, 1, 1, 1), np.float32)
        np.testing.assert_array_equal(T.depthwise_conv2d(x, w), x)

    def test_equals_block_diagonal_dense_conv(self):
        rng = np.random.default_rng(5)
        x = rand_f32(rng, 1, 3, 6, 6)
        w = rand_f32(rng, 3, 1, 3, 3)
        dense_w = np.zeros((3, 3, 3, 3), np.float32)
        for c in range(3):
            dense_w[c, c] = w[c, 0]
        got = T.depthwise_conv2d(x, w, stride=1, padding=1)
        want = T.conv2d(x, dense_w, stride=1, padding=1)
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_random_shapes_against_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            c = int(rng.integers(1, 5))
            k = int(rng.choice([1, 2, 3, 5]))
            stride = int(rng.choice([1, 2]))
            padding = int(rng.choice([0, 1, 2]))
            extent = int(rng.integers(k, k + 5))
            x = rand_f32(rng, 1, c, extent, extent)
            w = rand_f32(rng, c, 1, k, k)
            got = T.depthwise_conv2d(x, w, stride, padding)
            want = oracles.naive_depthwise_conv2d(x, w, stride, padding)
            np.testing.assert_allclose(got, want, atol=1e-5)


def einsum_depthwise(x, weight, stride, padding):
    """The window einsum the depthwise operator replaced, on a contiguous
    copy: the reference whose summation order the shifted adds keep."""
    kh, kw = weight.shape[2:]
    pad = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    win = np.lib.stride_tricks.sliding_window_view(
        np.pad(np.ascontiguousarray(x), pad), (kh, kw), axis=(2, 3))
    return np.einsum("nchwij,cij->nchw", win[:, :, ::stride, ::stride],
                     weight[:, 0], optimize=False)


def classifier_depthwise_shapes(extent):
    """(input shape, stride) of every block's depthwise convolution in the
    default classifier at ``extent``, at batch 1."""
    side = (extent - 1) // 2 + 1  # after the 3x3 stride-2 stem, padding 1
    shapes = []
    for layer in classifier_layers(BackboneSpec(input_extent=extent)):
        if layer.kind == "bottleneck-block":
            mid = layer.in_channels * layer.expansion
            shapes.append(((1, mid, side, side), layer.stride))
            side = (side - 1) // layer.stride + 1
    return shapes


def depthwise_case(rng, shape, channels_last_memory):
    """ReLU6-like input, zeros included, and 3x3 weights with some channels
    all negative, so that whole windows sum to a signed zero."""
    x = np.clip(rng.normal(0.5, 1.5, shape), 0, 6).astype(np.float32)
    w = rand_f32(rng, shape[1], 1, 3, 3)
    w[::4] = -np.abs(w[::4])
    return (channels_last(x) if channels_last_memory else x), w


class TestDepthwiseShiftedAdds:
    """Byte equality with the einsum on every shape the classifier runs, and
    on random 3x3 shapes with output width >= 2; elsewhere (other kernels,
    output width 1 at batch > 1) the float64 oracle test above applies."""

    @pytest.mark.parametrize("extent", [32, 33, 40, 48, 64, 96])
    def test_classifier_shapes_give_einsum_bytes(self, extent):
        rng = np.random.default_rng(extent)
        for shape, stride in classifier_depthwise_shapes(extent):
            for layout in (False, True):
                x, w = depthwise_case(rng, shape, layout)
                got = T.depthwise_conv2d(x, w, stride, 1)
                want = einsum_depthwise(x, w, stride, 1)
                assert got.tobytes() == want.tobytes(), (shape, stride)

    def test_random_shapes_give_einsum_bytes(self):
        rng = np.random.default_rng(176)
        cases = 0
        while cases < 176:
            n, c = int(rng.integers(1, 6)), int(rng.integers(1, 40))
            stride, padding = int(rng.integers(1, 4)), int(rng.integers(0, 3))
            h, w = (int(rng.integers(max(1, 3 - 2 * padding), 14))
                    for _ in range(2))
            if (w + 2 * padding - 3) // stride + 1 < 2:
                continue
            x, weight = depthwise_case(rng, (n, c, h, w), cases % 2 == 1)
            got = T.depthwise_conv2d(x, weight, stride, padding)
            want = einsum_depthwise(x, weight, stride, padding)
            assert got.tobytes() == want.tobytes(), (x.shape, stride, padding)
            cases += 1


def live_helpers():
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("cascadet-helper")]


def clear_helpers():
    """Drop the cached helper pool and wait for its threads to exit, which
    they do once the pool is collected."""
    T._helpers.cache_clear()
    gc.collect()
    for thread in live_helpers():
        thread.join(timeout=10)


@pytest.fixture
def eager_helper(monkeypatch):
    """A helper that finishes each item as it is handed over, before the
    caller goes on: the earliest any helper can run an item."""
    with ThreadPoolExecutor(1) as helper:
        def submit(fn, *args):
            future = helper.submit(fn, *args)
            wait([future])
            return future

        monkeypatch.setattr(T, "_helpers",
                            lambda: SimpleNamespace(submit=submit))
        yield


class TestParallelMap:
    def test_results_keep_input_order(self):
        def slow_early(i):
            time.sleep(0.002 * (20 - i))  # early items finish last
            return i * i

        assert T.parallel_map(slow_early, range(20)) == [
            i * i for i in range(20)]
        assert T.parallel_map(slow_early, iter(range(3))) == [0, 1, 4]

    def test_earliest_failure_is_raised_unchanged(self):
        """Item 3 fails late and item 7 early; a plain loop raises item 3's
        exception, and so does the map, the same object."""
        planted = {3: KeyError("three"), 7: ValueError("seven")}

        def fail(i):
            if i == 3:
                time.sleep(0.05)
            if i in planted:
                raise planted[i]
            return i

        with pytest.raises(KeyError) as caught:
            T.parallel_map(fail, range(10))
        assert caught.value is planted[3]

    def test_item_zero_runs_on_the_caller(self, eager_helper):
        caller = threading.get_ident()
        ran_on = T.parallel_map(lambda i: threading.get_ident(), range(3))
        assert ran_on[0] == caller and caller not in ran_on[1:]

    def test_earlier_item_runs_after_a_later_one_failed(self, eager_helper):
        """Item 1 fails on the helper before item 0 starts; item 0 still
        runs, as in a plain loop, and its exception is the one raised."""
        planted = [KeyError("zero"), ValueError("one")]

        def fail(i):
            raise planted[i]

        with pytest.raises(KeyError) as caught:
            T.parallel_map(fail, range(2))
        assert caught.value is planted[0]

    def test_nested_and_small_calls_finish(self):
        """0- and 1-item calls make no executor; a map inside a mapped item
        and maps from more threads than cores all finish."""
        clear_helpers()
        assert T.parallel_map(abs, []) == []
        assert T.parallel_map(abs, [-5]) == [5]
        assert T._helpers.cache_info().currsize == 0  # never made

        results = {}

        def nested(k):
            results[k] = T.parallel_map(
                lambda i: T.parallel_map(lambda j: k * i * j, range(4)),
                range(6))

        # A deadlocked map leaves its thread alive, which fails the test.
        # The helpers are not daemons, so the interpreter then hangs at exit,
        # after pytest has reported the failure.
        threads = [threading.Thread(target=nested, args=(k,), daemon=True)
                   for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert results == {k: [[k * i * j for j in range(4)] for i in range(6)]
                           for k in range(4)}
        assert T._helpers.cache_info().currsize == 1

    def test_caller_never_waits_behind_another_call(self):
        """While another thread's item holds the helper, a 10-item map runs
        every item on its calling thread without waiting."""
        if T._helpers() is None:
            pytest.skip("one allowed core: no helper to hold")
        held = threading.Event()

        def hold(i):
            if i == 0:  # on the caller, so item 1 can only be a helper's
                held.wait(timeout=5)
            else:
                held.set()
                time.sleep(1.5)

        holder = threading.Thread(target=T.parallel_map, args=(hold, range(2)),
                                  daemon=True)
        holder.start()
        assert held.wait(timeout=5)
        start = time.perf_counter()
        ran_on = T.parallel_map(lambda i: threading.get_ident(), range(10))
        elapsed = time.perf_counter() - start
        holder.join(timeout=10)
        assert not holder.is_alive()
        assert elapsed < 0.5
        assert ran_on == [threading.get_ident()] * 10

    def test_at_most_max_helpers_threads(self, monkeypatch):
        """Maps from four threads run on at most ``_MAX_HELPERS`` helper
        threads, and on none when the process may use one core."""
        def maps_from_four_threads():
            """The most live helpers any mapped item saw."""
            seen = []

            def count(i):
                seen.append(len(live_helpers()))
                time.sleep(0.001)

            def maps():
                for _ in range(5):
                    T.parallel_map(count, range(8))

            threads = [threading.Thread(target=maps, daemon=True)
                       for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            return max(seen)

        clear_helpers()
        assert maps_from_four_threads() <= T._MAX_HELPERS
        assert len(live_helpers()) <= T._MAX_HELPERS
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        clear_helpers()
        try:
            assert maps_from_four_threads() == 0
            assert live_helpers() == []
        finally:
            T._helpers.cache_clear()  # later tests get a real pool

    def test_stress_with_short_switch_interval(self):
        """Six threads each map 200 times over ten items, with a thread
        switch every microsecond: no result is lost, duplicated or moved."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        failures = []

        def hammer(k):
            for round_ in range(200):
                got = T.parallel_map(lambda i: (k, round_, i), range(10))
                if got != [(k, round_, i) for i in range(10)]:
                    failures.append((k, round_, got))

        try:
            threads = [threading.Thread(target=hammer, args=(k,), daemon=True)
                       for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []


class TestPointwiseConv2d:
    def test_identity_weight(self):
        rng = np.random.default_rng(8)
        x = rand_f32(rng, 1, 3, 4, 4)
        w = np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1)
        np.testing.assert_array_equal(T.conv2d(x, w), x)

    def test_hand_matrix_product(self):
        x = np.array([1.0, 2.0], np.float32).reshape(1, 2, 1, 1)
        w = np.array([[1.0, 1.0], [1.0, -1.0]], np.float32).reshape(2, 2, 1, 1)
        out = T.conv2d(x, w, np.zeros(2, np.float32))
        np.testing.assert_array_equal(out.reshape(-1), [3.0, -1.0])


class TestDepthwiseSeparable:
    def test_pair_equals_analytic_dense_conv(self):
        rng = np.random.default_rng(10)
        for stride, padding in ((1, 0), (1, 1), (2, 1)):
            x = rand_f32(rng, 1, 4, 7, 7)
            dw = rand_f32(rng, 4, 1, 3, 3)
            pw = rand_f32(rng, 5, 4, 1, 1)
            pb = rand_f32(rng, 5)
            got = T.conv2d(T.depthwise_conv2d(x, dw, stride, padding), pw, pb)
            # Equivalent single dense convolution, built analytically.
            dense_w = pw[:, :, 0, 0][:, :, None, None] * dw[None, :, 0]
            want = T.conv2d(x, dense_w, pb, stride, padding)
            np.testing.assert_allclose(got, want, atol=1e-5)


class TestBatchNorm:
    def test_identity_params(self):
        rng = np.random.default_rng(11)
        x = rand_f32(rng, 1, 3, 4, 4)
        ones, zeros = np.ones(3, np.float32), np.zeros(3, np.float32)
        out = T.batch_norm(x, ones, zeros, zeros, ones, epsilon=0.0)
        np.testing.assert_allclose(out, x, atol=1e-7)

    def test_constant_input_gives_beta(self):
        c = np.array([2.0, -1.5], np.float32)
        x = np.broadcast_to(c[None, :, None, None], (1, 2, 3, 3)).copy()
        beta = np.array([0.5, 4.0], np.float32)
        out = T.batch_norm(x, np.ones(2, np.float32), beta, c,
                           np.full(2, 2.0, np.float32))
        np.testing.assert_allclose(
            out, np.broadcast_to(beta[None, :, None, None], x.shape), atol=1e-7)

    def test_matches_scalar_formula(self):
        rng = np.random.default_rng(12)
        x = rand_f32(rng, 2, 3, 4, 5)
        gamma = rand_f32(rng, 3)
        beta = rand_f32(rng, 3)
        mean = rand_f32(rng, 3)
        variance = rand_f32(rng, 3, lo=0.1, hi=2.0)
        got = T.batch_norm(x, gamma, beta, mean, variance, epsilon=1e-5)
        want = oracles.naive_batch_norm(x, gamma, beta, mean, variance, 1e-5)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_channel_mismatch_names_both_counts(self):
        stats = [np.ones(5, np.float32)] * 4
        for x in (np.zeros((2, 8, 3, 3), np.float32),
                  np.zeros((2, 8), np.float32)):
            with pytest.raises(ValueError, match="batch_norm: input has 8 "
                                                 "channels but gamma has 5"):
                T.batch_norm(x, *stats)

    def test_negative_variance_rejected(self):
        one = np.ones(1, np.float32)
        archive = WeightArchive({"bn.gamma": one, "bn.beta": one,
                                 "bn.mean": one, "bn.variance": -one})
        with pytest.raises(T.NetworkError, match="bn.variance"):
            T.Network([T.bn_layer("bn", 1)], archive)


class TestActivations:
    def test_relu6_clamps(self):
        out = T.relu6(np.array([[-2.0, 3.0, 7.0]], np.float32))
        np.testing.assert_array_equal(out, [[0.0, 3.0, 6.0]])

    def test_relu6_zero(self):
        x = np.zeros((1, 2, 3, 3), np.float32)
        np.testing.assert_array_equal(T.relu6(x), x)

    def test_relu6_idempotent(self):
        rng = np.random.default_rng(13)
        x = rand_f32(rng, 1, 2, 4, 4, lo=-10, hi=10)
        once = T.relu6(x)
        np.testing.assert_array_equal(T.relu6(once), once)

    def test_prelu_alpha_zero_is_relu(self):
        rng = np.random.default_rng(14)
        x = rand_f32(rng, 1, 3, 4, 4)
        out = T.prelu(x, np.zeros(3, np.float32))
        np.testing.assert_array_equal(out, np.maximum(x, 0))

    def test_prelu_alpha_one_is_identity(self):
        rng = np.random.default_rng(15)
        x = rand_f32(rng, 1, 3, 4, 4)
        np.testing.assert_array_equal(T.prelu(x, np.ones(3, np.float32)), x)

    def test_prelu_quarter_slope(self):
        x = np.full((1, 1, 1, 1), -4.0, np.float32)
        out = T.prelu(x, np.array([0.25], np.float32))
        assert out[0, 0, 0, 0] == -1.0

    def test_prelu_channel_mismatch_names_both_counts(self):
        alpha = np.full(5, 0.25, np.float32)
        for x in (np.zeros((1, 8, 4, 4), np.float32),
                  np.zeros((3, 8), np.float32)):
            with pytest.raises(ValueError, match="prelu: input has 8 "
                                                 "channels but alpha has 5"):
                T.prelu(x, alpha)
        with pytest.raises(ValueError, match="prelu: input must have a "
                                             "channel axis, got rank 1"):
            T.prelu(np.zeros(5, np.float32), alpha)

    def test_prelu_into_its_own_input(self):
        rng = np.random.default_rng(16)
        alpha = rand_f32(rng, 8)
        for layout in (np.ascontiguousarray, channels_last):
            for x in (layout(rand_f32(rng, 2, 8, 4, 5)),
                      layout(rand_f32(rng, 40, 8, 16, 16))):
                rows = np.concatenate([T.prelu(x[i:i + 1], alpha)
                                       for i in range(len(x))])
                want = T.prelu(x, alpha)
                assert want.tobytes() == rows.tobytes()
                assert T.prelu(x, alpha, out=x) is x
                assert x.tobytes() == want.tobytes()
        empty = T.prelu(np.zeros((0, 8, 4, 5), np.float32), alpha)
        assert empty.shape == (0, 8, 4, 5)


class TestPooling:
    def test_max_pool_two_by_two(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]], np.float32).reshape(1, 1, 2, 2)
        out = T.max_pool2d(x, kernel=2, stride=2)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 4.0

    def test_max_pool_matches_oracle(self):
        rng = np.random.default_rng(16)
        for kernel, stride in ((2, 2), (3, 2), (2, 1), (1, 1)):
            x = rand_f32(rng, 1, 3, 7, 8)
            got = T.max_pool2d(x, kernel, stride)
            want = oracles.naive_max_pool2d(x, kernel, stride)
            np.testing.assert_allclose(got, want, atol=0)
        # A batch equals row-at-a-time pooling byte for byte and keeps the
        # input's memory order.
        for layout in (np.ascontiguousarray, channels_last):
            x = layout(rand_f32(rng, 40, 8, 16, 16))
            got = T.max_pool2d(x, 3, 2)
            rows = np.concatenate([T.max_pool2d(x[i:i + 1], 3, 2)
                                   for i in range(len(x))])
            assert got.tobytes() == rows.tobytes()
            assert layout(got).strides == got.strides
        assert T.max_pool2d(np.zeros((0, 8, 7, 7), np.float32),
                            3, 2).shape == (0, 8, 3, 3)

    def test_global_avg_pool_constant(self):
        c = np.array([1.5, -2.0, 0.25], np.float32)
        x = np.broadcast_to(c[None, :, None, None], (1, 3, 5, 7)).copy()
        out = T.global_avg_pool(x)
        assert out.shape == (1, 3, 1, 1)
        np.testing.assert_allclose(out.reshape(-1), c, atol=1e-7)

    def test_global_avg_pool_matches_scalar_loop(self):
        rng = np.random.default_rng(17)
        x = rand_f32(rng, 2, 3, 4, 6)
        got = T.global_avg_pool(x)
        want = oracles.naive_global_avg_pool(x)
        np.testing.assert_allclose(got, want, atol=1e-6)


class TestDense:
    def test_identity(self):
        x = np.array([[3.0, -1.0, 2.0]], np.float32)
        out = T.dense(x, np.eye(3, dtype=np.float32), np.zeros(3, np.float32))
        np.testing.assert_array_equal(out, x)

    def test_hand_case(self):
        w = np.array([[1.0, 1.0], [1.0, -1.0]], np.float32)
        out = T.dense(np.array([[3.0, 1.0]], np.float32), w, np.zeros(2, np.float32))
        np.testing.assert_array_equal(out, [[4.0, 2.0]])

    def test_matches_scalar_two_loop_oracle(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            n = int(rng.integers(1, 20))
            m = int(rng.integers(1, 20))
            x = rand_f32(rng, 1, n)
            w = rand_f32(rng, m, n)
            b = rand_f32(rng, m)
            got = T.dense(x, w, b)[0]
            want = oracles.naive_dense(x, w, b)
            np.testing.assert_allclose(got, want, atol=1e-5)

    def test_column_major_rows_give_same_bytes(self):
        rng = np.random.default_rng(19)
        x, w, b = rand_f32(rng, 17, 64), rand_f32(rng, 10, 64), rand_f32(rng, 10)
        want = T.dense(x, w, b)
        assert T.dense(np.asfortranarray(x), w, b).tobytes() == want.tobytes()


class TestSoftmax:
    def test_symmetric_pair(self):
        np.testing.assert_array_equal(
            T.softmax(np.array([0.0, 0.0], np.float32)), [0.5, 0.5])

    def test_constant_vector(self):
        for c in (-100.0, 0.0, 3.5, 80.0):
            out = T.softmax(np.full(3, c, np.float32))
            np.testing.assert_allclose(out, [1 / 3] * 3, atol=1e-7)

    def test_analytic_pair(self):
        out = T.softmax(np.array([np.log(2.0), 0.0], np.float32))
        np.testing.assert_allclose(out, [2 / 3, 1 / 3], atol=1e-6)

    def test_sums_to_one(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            v = rand_f32(rng, int(rng.integers(1, 12)), lo=-30, hi=30)
            out = T.softmax(v)
            assert abs(float(out.sum()) - 1.0) <= 1e-6
            assert (out > 0).all() and (out <= 1).all()

    def test_shift_invariance_bitwise(self):
        # Inputs chosen so v + c is exact in float32: multiples of 2^-10
        # below 2, shifted by small integers.
        rng = np.random.default_rng(20)
        v = (rng.integers(-1024, 1024, size=8) / 1024.0).astype(np.float32)
        for c in (1.0, -3.0, 16.0):
            shifted = v + np.float32(c)
            np.testing.assert_array_equal(T.softmax(v), T.softmax(shifted))

    def test_nine_classes_give_same_bytes_in_either_memory_order(self):
        rng = np.random.default_rng(23)
        x = rand_f32(rng, 4000, 9, lo=-30, hi=30)
        want = T.softmax(x, axis=1)
        assert T.softmax(np.asfortranarray(x), axis=1).tobytes() == want.tobytes()


class TestPurity:
    def test_operators_do_not_modify_inputs(self):
        rng = np.random.default_rng(21)
        x = rand_f32(rng, 1, 3, 6, 6)
        w = rand_f32(rng, 4, 3, 3, 3)
        snapshot_x, snapshot_w = x.copy(), w.copy()
        T.conv2d(x, w, stride=2, padding=1)
        T.relu6(x)
        T.prelu(x, w[0, :, 0, 0])
        T.max_pool2d(x, 2, 2)
        T.softmax(x.reshape(-1))
        T.global_avg_pool(x)
        np.testing.assert_array_equal(x, snapshot_x)
        np.testing.assert_array_equal(w, snapshot_w)

    def test_repeated_invocation_bit_identical(self):
        rng = np.random.default_rng(22)
        x = rand_f32(rng, 2, 3, 9, 9)
        w = rand_f32(rng, 5, 3, 3, 3)
        b = rand_f32(rng, 5)
        first = T.conv2d(x, w, b, stride=2, padding=1)
        second = T.conv2d(x, w, b, stride=2, padding=1)
        assert first.tobytes() == second.tobytes()


# Operators whose input layout could change their result; each takes an
# NCHW activation and a generator for its parameters.
LAYOUT_CASES = {
    "conv-1x1": lambda x, rng: T.conv2d(
        x, rand_f32(rng, 7, x.shape[1], 1, 1), rand_f32(rng, 7)),
    "conv-1x1-padded": lambda x, rng: T.conv2d(
        x, rand_f32(rng, 7, x.shape[1], 1, 1), padding=1),
    "conv-3x3": lambda x, rng: T.conv2d(
        x, rand_f32(rng, 7, x.shape[1], 3, 3), rand_f32(rng, 7)),
    "conv-3x3-padded-s2": lambda x, rng: T.conv2d(
        x, rand_f32(rng, 7, x.shape[1], 3, 3), stride=2, padding=1),
    "depthwise": lambda x, rng: T.depthwise_conv2d(
        x, rand_f32(rng, x.shape[1], 1, 3, 3)),
    "depthwise-s2": lambda x, rng: T.depthwise_conv2d(
        x, rand_f32(rng, x.shape[1], 1, 3, 3), stride=2, padding=1),
    "max-pool": lambda x, rng: T.max_pool2d(x, 3, 2),
    "global-avg-pool": lambda x, rng: T.global_avg_pool(x),
    "dense": lambda x, rng: T.dense(
        x, rand_f32(rng, 5, x[0].size), rand_f32(rng, 5)),
}


@pytest.mark.parametrize("shape", [(4, 32, 3, 3), (1, 16, 6, 6), (3, 24, 5, 7),
                                   (5, 48, 11, 11), (2, 96, 12, 12)])
@pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
def test_channels_last_view_gives_contiguous_bytes(case, shape):
    op = LAYOUT_CASES[case]
    x = rand_f32(np.random.default_rng(30), *shape, lo=-4.0, hi=4.0)
    want = op(x, np.random.default_rng(31))
    got = op(channels_last(x), np.random.default_rng(31))
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
