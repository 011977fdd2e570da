import numpy as np
import pytest

from cascadet import classifier as C
from cascadet import detector as D
from cascadet import fixtures
from cascadet.tensor import Network, NetworkError


SMALL_SPEC = C.BackboneSpec(input_extent=32, width_multiplier=0.25,
                            head_hidden=16)


@pytest.fixture(scope="module")
def small_classifier():
    return C.build_classifier(SMALL_SPEC,
                              fixtures.fixture_classifier_archive(SMALL_SPEC))


def zeroed(spec):
    return C.build_classifier(spec, fixtures.zeroed_classifier_archive(spec))


class TestBuild:
    def test_default_block_table_totals_seventeen(self):
        blocks = [l for l in C.classifier_layers(C.BackboneSpec())
                  if l.kind == "bottleneck-block"]
        assert len(blocks) == 17

    def test_missing_parameter_rejected_with_name(self):
        archive = fixtures.zeroed_classifier_archive(SMALL_SPEC)
        truncated = {n: archive.get(n) for n in archive.names()
                     if n != "head.fc2.bias"}
        from cascadet.weights import WeightArchive
        with pytest.raises(NetworkError, match="head.fc2.bias"):
            C.build_classifier(SMALL_SPEC, WeightArchive(truncated))

    def test_zeroed_head_gives_uniform_probabilities(self, ):
        clf = zeroed(SMALL_SPEC)
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, (1, 3, 32, 32)).astype(np.float32)
        probs = clf.forward(x)
        np.testing.assert_array_equal(probs, [[0.5, 0.5]])

    def test_intermediate_shapes_match_stride_arithmetic(self):
        spec = C.BackboneSpec()  # extent 96, width 1.0
        clf = C.build_classifier(spec, fixtures.zeroed_classifier_archive(spec))
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, (1, 3, 96, 96)).astype(np.float32)
        block_names = tuple(
            layer.name for layer in clf.layers
            if layer.kind == "bottleneck-block")
        out, taps = clf.forward(x, taps=block_names + ("head.pool",))

        # Closed-form: extent halves at the stem and at each stride-2 block.
        extent = 96 // 2
        expected_channels = [16, 24, 24, 32, 32, 32, 64, 64, 64, 64,
                             96, 96, 96, 160, 160, 160, 320]
        group_strides = [1, 2, 2, 2, 1, 2, 1]
        repeats = [1, 2, 3, 4, 3, 3, 1]
        strides = []
        for g, n in enumerate(repeats):
            strides += [group_strides[g]] + [1] * (n - 1)
        for name, channels, stride in zip(block_names, expected_channels,
                                          strides):
            extent //= stride if stride == 2 else 1
            assert taps[name].shape == (1, channels, extent, extent), name
        assert taps["head.pool"].shape == (1, 1280, 1, 1)
        assert out.shape == (1, 2)

    def test_residual_identity_through_full_backbone(self):
        clf = zeroed(SMALL_SPEC)
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, (1, 3, 32, 32)).astype(np.float32)
        residual_blocks = [layer for layer in clf.layers if layer.residual]
        assert residual_blocks
        taps = tuple(layer.name for layer in clf.layers
                     if layer.kind in ("bottleneck-block",))
        _, outs = clf.forward(x, taps=taps)
        previous = None
        for layer in clf.layers:
            if layer.kind != "bottleneck-block":
                continue
            if layer.residual and previous is not None:
                np.testing.assert_array_equal(outs[layer.name], previous)
            previous = outs[layer.name]

    def test_default_backbone_residual_blocks(self):
        residual = [layer.name for layer in C.classifier_layers(C.BackboneSpec())
                    if layer.residual]
        assert residual == [f"backbone.block{i}"
                            for i in (3, 5, 6, 8, 9, 10, 12, 13, 15, 16)]

    def test_width_multiplier_scales_channels(self):
        layers = C.classifier_layers(C.BackboneSpec(width_multiplier=0.5))
        stem = next(l for l in layers if l.name == "backbone.stem")
        assert stem.out_channels == 16


class TestClassifyFace:
    def test_zeroed_head_ties_to_nomask(self):
        clf = zeroed(SMALL_SPEC)
        x = np.zeros((1, 3, 32, 32), np.float32)
        pred = C.classify_face(clf, x)
        assert pred.label is C.MaskLabel.NO_MASK
        assert pred.confidence == 0.5
        assert pred.probabilities == (0.5, 0.5)

    def test_crafted_logits_give_mask_two_thirds(self):
        archive = fixtures.zeroed_classifier_archive(SMALL_SPEC)
        archive.get("head.fc2.bias")[...] = np.array([np.log(2.0), 0.0],
                                                     np.float32)
        clf = C.build_classifier(SMALL_SPEC, archive)
        pred = C.classify_face(clf, np.zeros((1, 3, 32, 32), np.float32))
        assert pred.label is C.MaskLabel.MASK
        assert pred.confidence == pytest.approx(2 / 3, abs=1e-6)

    def test_non_finite_probabilities_raise(self):
        archive = fixtures.fixture_classifier_archive(SMALL_SPEC)
        archive.get("head.fc2.bias")[...] = np.nan
        clf = C.build_classifier(SMALL_SPEC, archive)
        with pytest.raises(ValueError, match="finite"):
            C.classify_face(clf, np.zeros((1, 3, 32, 32), np.float32))

    def test_logit_scaling_never_changes_label(self, small_classifier):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (1, 3, 32, 32)).astype(np.float32)
        base = C.classify_face(small_classifier, x)
        archive = fixtures.fixture_classifier_archive(SMALL_SPEC)
        for scale in (0.5, 2.0, 7.5):
            scaled = fixtures.fixture_classifier_archive(SMALL_SPEC)
            scaled.get("head.fc2.weight")[...] = (
                archive.get("head.fc2.weight") * np.float32(scale))
            scaled.get("head.fc2.bias")[...] = (
                archive.get("head.fc2.bias") * np.float32(scale))
            pred = C.classify_face(C.build_classifier(SMALL_SPEC, scaled), x)
            assert pred.label is base.label

    def test_probabilities_sum_to_one(self, small_classifier):
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.uniform(-1, 1, (1, 3, 32, 32)).astype(np.float32)
            pred = C.classify_face(small_classifier, x)
            assert sum(pred.probabilities) == pytest.approx(1.0, abs=1e-6)
            assert pred.confidence == max(pred.probabilities)

    def test_wrong_input_shape_rejected(self, small_classifier):
        with pytest.raises(ValueError):
            C.classify_face(small_classifier,
                            np.zeros((1, 3, 11, 11), np.float32))

    def test_pure_function_of_crop(self, small_classifier):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, (1, 3, 32, 32)).astype(np.float32)
        a = C.classify_face(small_classifier, x)
        b = C.classify_face(small_classifier, x)
        assert a == b


class TestClassifyAll:
    def test_empty_faces(self, small_classifier):
        frame = np.zeros((1, 3, 100, 100), np.float32)
        assert C.classify_all(small_classifier, frame, [],
                              input_extent=32) == []

    def test_single_face_pairs_with_prediction(self, small_classifier):
        frame = np.zeros((1, 3, 100, 100), np.float32)
        face = D.FaceCandidate(box=D.BoundingBox(10, 10, 40, 40), score=0.9)
        result = C.classify_all(small_classifier, frame, [face],
                                input_extent=32)
        assert len(result) == 1
        assert result[0][0] is face
        assert isinstance(result[0][1], C.MaskPrediction)

    def test_order_preserved_for_shuffled_candidates(self, small_classifier):
        rng = np.random.default_rng(6)
        frame = rng.uniform(-1, 1, (1, 3, 100, 100)).astype(np.float32)
        faces = []
        for _ in range(10):
            x1, y1 = rng.uniform(0, 60, 2)
            faces.append(D.FaceCandidate(
                box=D.BoundingBox(x1, y1, x1 + rng.uniform(5, 30),
                                  y1 + rng.uniform(5, 30)),
                score=float(rng.uniform(0, 1))))
        result = C.classify_all(small_classifier, frame, faces,
                                input_extent=32)
        assert [r[0] for r in result] == faces
