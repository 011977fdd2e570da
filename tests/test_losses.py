import numpy as np
import pytest

from cascadet import losses as L
from cascadet import oracles


class TestLossBox:
    def test_zero_at_target(self):
        target = np.array([0.1, -0.2, 0.3, 0.0])
        loss, grad = L.loss_box(target, target)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros(4))

    def test_unit_deviation(self):
        loss, grad = L.loss_box([1.0, 0.0, 0.0, 0.0], [0.0] * 4)
        assert loss == 1.0
        np.testing.assert_array_equal(grad, [2.0, 0.0, 0.0, 0.0])

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            pred = rng.uniform(-2, 2, 4)
            target = rng.uniform(-2, 2, 4)
            _, grad = L.loss_box(pred, target)
            fd = oracles.central_difference(
                lambda p: L.loss_box(p, target)[0], pred)
            np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            L.loss_box([np.nan, 0, 0, 0], [0.0] * 4)


class TestLossLandmark:
    def test_zero_at_target(self):
        target = np.linspace(0, 1, 10)
        loss, grad = L.loss_landmark(target, target)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros(10))

    def test_unit_deviation_single_coordinate(self):
        pred = np.zeros(10)
        pred[3] = 1.0
        loss, _ = L.loss_landmark(pred, np.zeros(10))
        assert loss == 1.0

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            pred = rng.uniform(-1, 1, 10)
            target = rng.uniform(-1, 1, 10)
            _, grad = L.loss_landmark(pred, target)
            fd = oracles.central_difference(
                lambda p: L.loss_landmark(p, target)[0], pred)
            np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)


class TestLossDet:
    def test_half_probability_true_label(self):
        loss, _ = L.loss_det(0.5, 1)
        assert loss == pytest.approx(np.log(2), abs=1e-9)

    def test_saturating_probability_goes_to_zero(self):
        loss, _ = L.loss_det(1.0, 1)
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = float(rng.uniform(0.02, 0.98))
            y = int(rng.integers(0, 2))
            _, grad = L.loss_det(p, y)
            step = 1e-6
            fd = (L.loss_det(p + step, y)[0] - L.loss_det(p - step, y)[0]) / (2 * step)
            assert grad == pytest.approx(fd, rel=1e-5)

    def test_invalid_label_rejected(self):
        with pytest.raises(ValueError):
            L.loss_det(0.5, 2)

    def test_convex_in_probability(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = sorted(rng.uniform(0.01, 0.99, 2))
            y = int(rng.integers(0, 2))
            mid = (a + b) / 2
            assert (L.loss_det(mid, y)[0]
                    <= (L.loss_det(a, y)[0] + L.loss_det(b, y)[0]) / 2 + 1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = float(rng.uniform(0, 1))
            assert L.loss_det(p, 0)[0] >= 0
            assert L.loss_det(p, 1)[0] >= 0


class TestHeadGradients:
    def test_backprop_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        params = L.init_head(feature_dim=6, hidden=4, seed=1)
        x = rng.uniform(-1, 1, 6)
        y = 1

        def loss_for(p: L.HeadParams) -> float:
            q = L.head_forward(p, x)
            return L.loss_det(q[0], y)[0]

        # One SGD step against numeric gradients of each parameter block.
        h = params.w1 @ x + params.b1
        a = np.maximum(h, 0.0)
        z = params.w2 @ a + params.b2
        e = np.exp(z - z.max())
        q = e / e.sum()
        dz = q - np.array([y, 1 - y], dtype=np.float64)
        grads = {
            "w2": np.outer(dz, a), "b2": dz,
            "w1": np.outer(params.w2.T @ dz * (h > 0), x),
            "b1": params.w2.T @ dz * (h > 0),
        }
        for name in grads:
            def f(value, name=name):
                trial = params.copy()
                setattr(trial, name, value)
                return loss_for(trial)
            fd = oracles.central_difference(f, getattr(params, name))
            np.testing.assert_allclose(grads[name], fd, rtol=1e-5, atol=1e-8)


class TestTrainHead:
    def test_zero_learning_rate_keeps_parameters(self):
        features, labels = L.make_separable_dataset(20, 8, seed=0)
        params = L.init_head(8, 4, seed=0)
        trained, _ = L.train_head(params, features, labels,
                                  learning_rate=0.0, epochs=3)
        np.testing.assert_array_equal(trained.w1, params.w1)
        np.testing.assert_array_equal(trained.w2, params.w2)

    def test_single_sample_memorization(self):
        features = np.array([[1.0, -0.5, 0.25, 2.0]])
        labels = np.array([1])
        params = L.init_head(4, 4, seed=2)
        trained, curve = L.train_head(params, features, labels,
                                      learning_rate=0.5, epochs=200)
        assert curve[-1][1] < 1e-2

    def test_separable_clusters_reach_95_percent(self):
        features, labels = L.make_separable_dataset(200, 32, seed=0)
        params = L.init_head(32, 16, seed=0)
        _, curve = L.train_head(params, features, labels,
                                learning_rate=0.05, epochs=40, seed=0)
        assert curve[-1][2] >= 0.95

    def test_loss_curve_non_increasing_after_first_epoch(self):
        features, labels = L.make_separable_dataset(200, 32, seed=0)
        params = L.init_head(32, 16, seed=0)
        _, curve = L.train_head(params, features, labels,
                                learning_rate=0.05, epochs=40, seed=0)
        values = [loss for _, loss, _ in curve]
        assert all(a >= b - 1e-12 for a, b in zip(values[1:], values[2:]))

    def test_deterministic_given_seed(self):
        features, labels = L.make_separable_dataset(50, 8, seed=3)
        params = L.init_head(8, 4, seed=3)
        first = L.train_head(params, features, labels, 0.05, 5, seed=9)
        second = L.train_head(params, features, labels, 0.05, 5, seed=9)
        np.testing.assert_array_equal(first[0].w1, second[0].w1)
        assert first[1] == second[1]

    def test_divergence_aborts(self):
        features, labels = L.make_separable_dataset(50, 8, seed=4)
        params = L.init_head(8, 4, seed=4)
        with pytest.raises(L.TrainingDiverged):
            L.train_head(params, features, labels,
                         learning_rate=1e12, epochs=50)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            L.train_head(L.init_head(4, 2), np.zeros((0, 4)), np.zeros(0),
                         0.1, 1)

    def test_loss_curve_csv(self, tmp_path):
        path = tmp_path / "curve.csv"
        L.write_loss_curve(path, [(1, 0.5, 0.75), (2, 0.25, 0.9)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss,accuracy"
        assert len(lines) == 3
        assert lines[1].startswith("1,0.5")
