"""Slow, independent reference implementations used as oracles by the tests
and by ``cascadet selfcheck``.

Everything here computes with explicit scalar loops (float64 accumulators)
and stays deliberately ignorant of how the package implements the same
operations.
"""

import numpy as np


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


def naive_depthwise_conv2d(x, weight, bias=None, stride=1, padding=0):
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
                    if bias is not None:
                        acc += bias[ci]
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
