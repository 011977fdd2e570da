import numpy as np
import pytest

from cascadet import oracles
from cascadet import tensor as T
from cascadet.weights import WeightArchive


def channels_last(x):
    """The same NCHW values, held in (N, H, W, C) memory order."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


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
        # A 1x1 kernel at stride 1 without padding: the per-pixel product.
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
