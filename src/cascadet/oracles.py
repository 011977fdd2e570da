"""Slow, independent reference implementations used as oracles by the tests
and by ``cascadet selfcheck``.

Everything here computes in float64, with explicit scalar loops or, for
whole networks, window einsums, and stays deliberately ignorant of how the
package implements the same operations.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def naive_conv2d(x, weight, bias=None, stride=1, padding=1):
    """Direct convolution via six nested loops."""
    x = np.asarray(x, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    n, c, h, w = x.shape
    oc, ic, kh, kw = weight.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, oc, oh, ow))
    for ni in range(n):
        for oi in range(oc):
            for yi in range(oh):
                for xi in range(ow):
                    acc = 0.0
                    for ci in range(ic):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += (weight[oi, ci, ky, kx]
                                        * xp[ni, ci, yi * stride + ky,
                                             xi * stride + kx])
                    if bias is not None:
                        acc += bias[oi]
                    out[ni, oi, yi, xi] = acc
    return out


def naive_depthwise_conv2d(x, weight, stride=1, padding=0):
    x = np.asarray(x, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    n, c, h, w = x.shape
    _, _, kh, kw = weight.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, c, oh, ow))
    for ni in range(n):
        for ci in range(c):
            for yi in range(oh):
                for xi in range(ow):
                    acc = 0.0
                    for ky in range(kh):
                        for kx in range(kw):
                            acc += (weight[ci, 0, ky, kx]
                                    * xp[ni, ci, yi * stride + ky,
                                         xi * stride + kx])
                    out[ni, ci, yi, xi] = acc
    return out


def naive_dense(x, weight, bias=None):
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    weight = np.asarray(weight, dtype=np.float64)
    m, n = weight.shape
    out = np.zeros(m)
    for i in range(m):
        acc = 0.0
        for j in range(n):
            acc += weight[i, j] * x[j]
        if bias is not None:
            acc += bias[i]
        out[i] = acc
    return out


def naive_batch_norm(x, gamma, beta, mean, variance, epsilon):
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    n, c, h, w = x.shape
    for ni in range(n):
        for ci in range(c):
            for yi in range(h):
                for xi in range(w):
                    out[ni, ci, yi, xi] = (
                        gamma[ci] * (x[ni, ci, yi, xi] - mean[ci])
                        / np.sqrt(variance[ci] + epsilon) + beta[ci])
    return out


def naive_max_pool2d(x, kernel, stride):
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    out = np.zeros((n, c, oh, ow))
    for ni in range(n):
        for ci in range(c):
            for yi in range(oh):
                for xi in range(ow):
                    best = -np.inf
                    for ky in range(kernel):
                        for kx in range(kernel):
                            best = max(best, x[ni, ci, yi * stride + ky,
                                               xi * stride + kx])
                    out[ni, ci, yi, xi] = best
    return out


def naive_global_avg_pool(x):
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    out = np.zeros((n, c, 1, 1))
    for ni in range(n):
        for ci in range(c):
            acc = 0.0
            for yi in range(h):
                for xi in range(w):
                    acc += x[ni, ci, yi, xi]
            out[ni, ci, 0, 0] = acc / (h * w)
    return out


def naive_crop_resize(frame, box, extent):
    """Bilinear extent x extent crop of the (x1, y1, x2, y2) ``box`` from an
    (N, C, H, W) frame's first image, one sample at a time: sample (i, j)
    sits at the centre of cell (i, j) of the box's extent x extent grid, and
    a pixel outside the frame reads as zero. Returns (C, extent, extent)."""
    image = np.asarray(frame, dtype=np.float64)[0]
    c, h, w = image.shape
    x1, y1, x2, y2 = (float(v) for v in box)

    def pixel(ci, y, x):
        return image[ci, y, x] if 0 <= y < h and 0 <= x < w else 0.0

    out = np.zeros((c, extent, extent))
    for i in range(extent):
        sy = y1 + (i + 0.5) * (y2 - y1) / extent - 0.5
        ty = int(np.floor(sy))
        fy = sy - ty
        for j in range(extent):
            sx = x1 + (j + 0.5) * (x2 - x1) / extent - 0.5
            tx = int(np.floor(sx))
            fx = sx - tx
            for ci in range(c):
                top = (1 - fx) * pixel(ci, ty, tx) + fx * pixel(ci, ty, tx + 1)
                bottom = ((1 - fx) * pixel(ci, ty + 1, tx)
                          + fx * pixel(ci, ty + 1, tx + 1))
                out[ci, i, j] = (1 - fy) * top + fy * bottom
    return out


def brute_force_nms(boxes, scores, threshold, mode="union"):
    """Indices kept by checking every box against every kept box, in
    score-then-index order. ``boxes`` rows are (x1, y1, x2, y2)."""
    boxes = np.asarray(boxes, dtype=np.float64).tolist()
    scores = np.asarray(scores, dtype=np.float64).tolist()
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    kept = []
    for i in order:
        x1, y1, x2, y2 = boxes[i]
        ok = True
        for k in kept:
            ox1, oy1, ox2, oy2 = boxes[k]
            ix = max(0.0, min(x2, ox2) - max(x1, ox1))
            iy = max(0.0, min(y2, oy2) - max(y1, oy1))
            inter = ix * iy
            area = (x2 - x1) * (y2 - y1)
            other_area = (ox2 - ox1) * (oy2 - oy1)
            if mode == "union":
                overlap = inter / (area + other_area - inter)
            else:
                overlap = inter / min(area, other_area)
            if overlap > threshold:
                ok = False
                break
        if ok:
            kept.append(i)
    return kept


def raster_iou(a, b):
    """IoU by counting unit pixels; exact for integer-aligned boxes."""
    x_lo = int(min(a.x1, b.x1))
    x_hi = int(max(a.x2, b.x2))
    y_lo = int(min(a.y1, b.y1))
    y_hi = int(max(a.y2, b.y2))
    inter = union = 0
    for y in range(y_lo, y_hi):
        for x in range(x_lo, x_hi):
            in_a = a.x1 <= x < a.x2 and a.y1 <= y < a.y2
            in_b = b.x1 <= x < b.x2 and b.y1 <= y < b.y2
            inter += in_a and in_b
            union += in_a or in_b
    return inter / union if union else 0.0


def central_difference(f, x, step=1e-5):
    """Gradient of scalar f at x by central differences, in float64."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        bumped = xf.copy()
        dipped = xf.copy()
        bumped[i] += step
        dipped[i] -= step
        flat[i] = (f(bumped.reshape(x.shape)) - f(dipped.reshape(x.shape))) / (2 * step)
    return grad


def _reference_windows(x, kernel, stride, padding):
    """(N, C, outH, outW, k, k) windows of zero-padded NCHW ``x``."""
    pad = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    win = sliding_window_view(np.pad(x, pad), (kernel, kernel), axis=(2, 3))
    return win[:, :, ::stride, ::stride]


def _reference_layer(layer, param, x):
    """One layer in float64; ``param(role)`` gives a parameter as float64."""
    kind = layer.kind

    def conv(x, weight, stride=1, padding=0):
        win = _reference_windows(x, weight.shape[-1], stride, padding)
        return np.einsum("nchwij,ocij->nohw", win, weight, optimize=False)

    def norm(x, prefix=""):
        gamma, beta, mean, variance = (param(prefix + stat) for stat in
                                       ("gamma", "beta", "mean", "variance"))
        shape = (1, -1) + (1,) * (x.ndim - 2)
        return ((x - mean.reshape(shape)) / np.sqrt(variance + 1e-5).reshape(shape)
                * gamma.reshape(shape) + beta.reshape(shape))

    def bias(out):
        if not layer.bias:
            return out
        return out + param("bias").reshape((1, -1) + (1,) * (out.ndim - 2))

    if kind == "conv":
        return bias(conv(x, param("weight"), layer.stride, layer.padding))
    if kind == "dense":
        return bias(np.einsum("nk,ok->no", x.reshape(len(x), -1),
                              param("weight"), optimize=False))
    if kind == "batch-norm":
        return norm(x)
    if kind == "relu6":
        return np.clip(x, 0.0, 6.0)
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "prelu":
        alpha = param("alpha").reshape((1, -1) + (1,) * (x.ndim - 2))
        return np.where(x > 0, x, alpha * x)
    if kind == "max-pool":
        return _reference_windows(x, layer.kernel, layer.stride, 0).max(axis=(4, 5))
    if kind == "global-avg-pool":
        return x.mean(axis=(2, 3), keepdims=True)
    if kind == "softmax":
        e = np.exp(x - x.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)
    if kind != "bottleneck-block":
        raise ValueError(f"no reference for layer kind {kind!r}")
    h = x
    if layer.expansion > 1:
        h = np.clip(norm(conv(h, param("expand_weight")), "expand_norm."), 0, 6)
    depthwise = param("depthwise_weight")[:, 0]
    win = _reference_windows(h, depthwise.shape[-1], layer.stride, 1)
    h = np.clip(norm(np.einsum("nchwij,cij->nchw", win, depthwise,
                               optimize=False),
                     "depthwise_norm."), 0, 6)
    h = norm(conv(h, param("project_weight")), "project_norm.")
    if layer.stride == 1 and layer.in_channels == layer.out_channels:
        h = h + x
    return h


def reference_forward(layers, archive, x, taps=()):
    """The network a ``LayerSpec`` list and a weight archive describe,
    evaluated in float64 on NCHW input ``x``: convolutions, depthwise
    convolutions and dense layers are window einsums summed without BLAS.

    Returns the final output or, with ``taps``, ``(output, {name: tensor})``
    for the named layers. Each layer reads the previous layer's output, or
    the output of the layer its ``feeds_from`` names.
    """
    outputs, current = {}, np.asarray(x, dtype=np.float64)
    for layer in layers:
        def param(role, name=layer.name):
            return np.asarray(archive.get(f"{name}.{role}"), dtype=np.float64)

        source = outputs[layer.feeds_from] if layer.feeds_from else current
        current = outputs[layer.name] = _reference_layer(layer, param, source)
    if taps:
        return current, {name: outputs[name] for name in taps}
    return current


def relative_gap(got, want):
    """Largest absolute difference over the largest magnitude of ``want``."""
    want = np.asarray(want, dtype=np.float64)
    return float(np.abs(np.asarray(got, dtype=np.float64) - want).max()
                 / np.abs(want).max())
