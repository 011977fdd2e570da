"""Minimal deterministic tensor operators and a sequential network container.

Tensors are plain ``numpy.ndarray`` objects in float32 whose shapes are
logical batch-channel-height-width (NCHW). Their memory order is not fixed:
a returned array may be a strided view. A convolution's output is held
channels-last (channels fastest-varying), and padding, pooling and the
depthwise convolution keep their input's order, so every convolution, 1x1
included, copies each output position's (kH, kW, C) window in runs of kW*C
floats into one row of window-major im2col columns (Chellapilla et al.
2006). One rule decides who copies for memory layout: only an operator
whose arithmetic depends on its input's memory order (the matrix products
and the spatial mean) copies that input, and only its own input. No caller
copies on an operator's behalf, so a result's bits never depend on the
memory order it is given.

Every matrix product (:func:`conv2d`, :func:`dense`) runs in tiles of exactly
``_TILE_ROWS`` rows, so a row's bits never depend on the rest of its batch
(batch-invariant kernels, He et al. 2025). :func:`row_chunks` splits a batch
by ``_BLOCK_BYTES`` of input rows; a :class:`Network` and the crop sampler
run on its slices, so their temporaries grow with a chunk, not the batch.
:func:`read_extent` finds, from layer geometry, the top-left region of an
input that a network's requested outputs read, and :meth:`Network.forward`
cuts its input to that region first: rows and columns that floor pooling
drops are never convolved.

One helper runs a frame's independent units side by side:
:func:`parallel_map` maps a function over its items on the calling thread
and on a one-thread ``ThreadPoolExecutor`` when this process may run on two
or more cores. Its units are a network's chunks and the detector's pyramid
levels and crop blocks. The executor has no setting: its size follows the
CPU affinity, and it is made on first use, so a one-core process never
starts a thread. Results are joined in input order, so outputs are
byte-identical at any core count.

Operators are pure functions: inputs are never modified, except that
:func:`prelu` writes to ``out`` when given one, and repeated calls on
identical inputs return bit-identical results. :class:`Network` passes
``out`` only for an intermediate that no one else holds. Dense reductions go
through single-threaded BLAS (pinned in :mod:`cascadet`), which keeps the
reduction order fixed across runs and caller thread counts.

Operators check the activation they are given (rank, channels, geometry)
but trust their float32 parameter tensors: a :class:`Network` checks those
once, when it binds them. It then also works out each batch norm's scale
and shift, and holds each conv weight in the columns' (outC, kH, kW, inC)
order, which :func:`conv2d` otherwise makes on every call.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cache, partial, reduce
from typing import Callable, Iterable

import numpy as np

Tensor = np.ndarray


class NetworkError(ValueError):
    """Raised when a network cannot be constructed against its weights."""


def _as_f32(x) -> Tensor:
    return np.asarray(x, dtype=np.float32)


# Bytes of input rows per chunk.
_BLOCK_BYTES = 1 << 18


def row_chunks(n: int, row_bytes: int) -> list[slice]:
    """Slices that split ``n`` rows of ``row_bytes`` bytes (0 counts as 1)
    into chunks of ``max(1, _BLOCK_BYTES // row_bytes)`` rows, the last
    also taking the remainder; below twice that, one whole slice."""
    rows = max(1, _BLOCK_BYTES // max(1, row_bytes))
    starts = range(0, n - rows + 1, rows) or range(1)
    return list(map(slice, starts, [*starts[1:], n]))


# The most helpers: each unit in flight holds its own chunk's temporaries,
# and a forward's memory bounds hold for two units at once (with three
# helpers, onet's 160-crop forward peaks at 21 MiB, not 11-13 MiB).
_MAX_HELPERS = 1


@cache
def _helpers() -> ThreadPoolExecutor | None:
    """The helper threads, made on first use: one per core this process may
    run on, less the caller's, at most ``_MAX_HELPERS``; ``None`` on one
    core, so a one-core process never starts a thread."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    size = min(_MAX_HELPERS, cores - 1)
    return ThreadPoolExecutor(size, "cascadet-helper") if size > 0 else None


# A forked child has none of the parent's threads: it makes its own.
os.register_at_fork(after_in_child=_helpers.cache_clear)


def parallel_map(fn: Callable, items: Iterable) -> list:
    """``[fn(item) for item in items]``, with helper threads taking items too.

    Items are taken in input order, by the calling thread or a helper, and
    the caller never waits for a helper that has not started on this call,
    so a call made from inside ``fn``, or from any number of threads, cannot
    deadlock. On failure no later item is started, and once the started ones
    end, the exception of the earliest failed item is raised as it was
    raised: the one a plain loop would raise. Each ``fn(item)`` must be
    independent of the others; results keep the input order.
    """
    items = list(items)
    pool = _helpers() if len(items) > 1 else None
    if pool is None:
        return [fn(item) for item in items]
    results: list = [None] * len(items)
    # A list, not a dict: one thread may append while another iterates.
    errors: list[tuple[int, BaseException]] = []

    def run(i: int) -> None:
        # An item before a failed one still runs: it may fail first.
        if any(j < i for j, _ in errors):
            return
        try:
            results[i] = fn(items[i])
        except BaseException as exc:  # re-raised by the caller
            errors.append((i, exc))

    futures = [pool.submit(run, i) for i in range(1, len(items))]
    # The caller runs item 0 itself. Handed to the helper as well, it raised
    # the peak RSS of 6 frames x 2 at 640x360 from 125-126 MB to 135 MB,
    # likely because a pyramid's first and largest level then grows the
    # helper's malloc arena.
    run(0)
    # An item no helper has taken runs here; a cancelled future is not
    # waited on, since it stays queued behind whatever a helper is running.
    started = []
    for i, future in enumerate(futures, 1):
        if future.cancel():
            run(i)
        else:
            started.append(future)
    wait(started)
    if errors:
        raise min(errors)[1]  # indices are unique: no exception is compared
    return results


def _check_conv_geometry(op: str, h: int, w: int, kh: int, kw: int,
                         stride: int, padding: int) -> tuple[int, int]:
    if stride < 1:
        raise ValueError(f"{op}: stride must be positive, got {stride}")
    if padding < 0:
        raise ValueError(f"{op}: padding must be non-negative, got {padding}")
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ValueError(
            f"{op}: padded input {h + 2 * padding}x{w + 2 * padding} is "
            f"smaller than the {kh}x{kw} kernel")
    return (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1


def _pad_spatial(x: Tensor, padding: int) -> Tensor:
    """``x`` with ``padding`` zeros around each image, in ``x``'s memory order."""
    if padding == 0:
        return x
    n, c, h, w = x.shape
    out = np.zeros_like(x, shape=(n, c, h + 2 * padding, w + 2 * padding))
    out[:, :, padding:padding + h, padding:padding + w] = x
    return out


def _window_major(weight: Tensor) -> Tensor:
    """``weight`` held in the (outC, kH, kW, inC) memory order conv2d reads."""
    return np.ascontiguousarray(weight.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


# Rows per product tile; 1024-row tiles were slower.
_TILE_ROWS = 64


def _gemm(rows: Tensor, weight_t: Tensor) -> Tensor:
    """``rows @ weight_t`` as one BLAS call per ``_TILE_ROWS`` rows, the
    last tile (perhaps empty) a copy padded with zero rows, so a row gets
    its bits alone."""
    rows = np.ascontiguousarray(rows)
    (m, k), n = rows.shape, weight_t.shape[1]
    full = m - m % _TILE_ROWS
    out = np.empty((full + _TILE_ROWS, n), np.float32)
    np.matmul(rows[:full].reshape(-1, _TILE_ROWS, k), weight_t,
              out=out[:full].reshape(-1, _TILE_ROWS, n))
    last = np.zeros((_TILE_ROWS, k), np.float32)
    last[:m - full] = rows[full:]
    np.matmul(last, weight_t, out=out[full:])
    return out[:m]


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """Dense 2D convolution (cross-correlation) over an NCHW tensor.

    ``weight`` is (outC, inC, kH, kW); the optional ``bias`` is (outC,).
    Output spatial extent is floor((in + 2*padding - k)/stride) + 1.
    """
    x = _as_f32(x)
    if x.ndim != 4:
        raise ValueError(f"conv2d: input must be rank 4, got rank {x.ndim}")
    n, c, h, w = x.shape
    out_c, in_c, kh, kw = weight.shape
    if c != in_c:
        raise ValueError(
            f"conv2d: input has {c} channels but weight expects {in_c}")
    out_h, out_w = _check_conv_geometry("conv2d", h, w, kh, kw, stride, padding)
    # One GEMM: (N*outH*outW, kH*kW*C) window-major columns x (kH*kW*C, outC).
    win = np.lib.stride_tricks.sliding_window_view(
        _pad_spatial(x, padding).transpose(0, 2, 3, 1), (kh, kw), axis=(1, 2))
    cols = np.ascontiguousarray(np.moveaxis(win[:, ::stride, ::stride], 3, -1))
    weight = np.ascontiguousarray(weight.transpose(0, 2, 3, 1))
    out = _gemm(cols.reshape(-1, kh * kw * c), weight.reshape(out_c, -1).T)
    if bias is not None:
        out += bias
    return out.reshape(n, out_h, out_w, out_c).transpose(0, 3, 1, 2)


def depthwise_conv2d(x: Tensor, weight: Tensor, stride: int = 1,
                     padding: int = 0) -> Tensor:
    """Per-channel 2D convolution; weight is (C, 1, kH, kW)."""
    x = _as_f32(x)
    if x.ndim != 4:
        raise ValueError(f"depthwise_conv2d: input must be rank 4, got {x.ndim}")
    n, c, h, w = x.shape
    wc, _, kh, kw = weight.shape
    if c != wc:
        raise ValueError(
            f"depthwise_conv2d: input has {c} channels but weight has {wc}")
    out_h, out_w = _check_conv_geometry("depthwise_conv2d", h, w, kh, kw,
                                        stride, padding)
    x = _pad_spatial(x, padding)
    taps = weight[:, 0, :, :, None, None]  # (C, kH, kW, 1, 1)
    # Shifted multiply-adds, element-wise and so free of memory order. The
    # sum is taken as np.einsum("nchwij,cij->nchw") takes it for every 3x3
    # shape a LayerSpec builds: from +0.0, adding each kernel row's sum,
    # itself accumulated left to right from the row's first product.
    out = np.zeros_like(x, shape=(n, c, out_h, out_w))
    for i in range(kh):
        row = None
        for j in range(kw):
            tap = x[:, :, i:i + stride * (out_h - 1) + 1:stride,
                    j:j + stride * (out_w - 1) + 1:stride] * taps[:, i, j]
            row = tap if row is None else np.add(row, tap, out=row)
        out += row
    return out


def _check_channels(op: str, x: Tensor, params: str, count: int) -> None:
    """Raise unless ``x`` has ``count`` channels on axis 1, one for each
    value of the parameter ``params``."""
    if x.ndim < 2:
        raise ValueError(f"{op}: input must have a channel axis, got rank {x.ndim}")
    if x.shape[1] != count:
        raise ValueError(
            f"{op}: input has {x.shape[1]} channels but {params} has {count}")


def _norm_affine(gamma: Tensor, beta: Tensor, mean: Tensor,
                 variance: Tensor, epsilon: float = 1e-5
                 ) -> tuple[Tensor, Tensor]:
    """Per-channel ``(scale, shift)`` with which batch norm is
    ``x * scale + shift``."""
    scale = gamma / np.sqrt(variance + np.float32(epsilon))
    return scale, beta - mean * scale


def _scale_shift(scale: Tensor, shift: Tensor, x: Tensor) -> Tensor:
    """``x * scale + shift`` with one scale and shift per channel (axis 1);
    the parameters come first, to be bound with :func:`functools.partial`."""
    x = _as_f32(x)
    _check_channels("batch_norm", x, "gamma", scale.size)
    shape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
    return x * scale.reshape(shape) + shift.reshape(shape)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, mean: Tensor,
               variance: Tensor, epsilon: float = 1e-5) -> Tensor:
    """Inference-mode batch normalization with stored per-channel statistics."""
    return _scale_shift(*_norm_affine(gamma, beta, mean, variance, epsilon), x)


def relu6(x: Tensor) -> Tensor:
    """Clamp to [0, 6] elementwise."""
    return np.clip(_as_f32(x), 0.0, 6.0)


def relu(x: Tensor) -> Tensor:
    """Clamp negatives to zero elementwise."""
    return np.maximum(_as_f32(x), np.float32(0.0))


def prelu(x: Tensor, alpha: Tensor, out: Tensor | None = None) -> Tensor:
    """Parametric ReLU with one slope per channel (axis 1).

    As with a numpy ufunc, the result is written to ``out`` when given; it
    may be ``x`` itself.
    """
    x = _as_f32(x)
    _check_channels("prelu", x, "alpha", alpha.size)
    alpha = alpha.reshape((1, x.shape[1]) + (1,) * (x.ndim - 2))
    if out is None:
        out = np.empty_like(x)
    # max(x, 0) + alpha * min(x, 0): same values as the piecewise form,
    # without materializing a boolean mask. ``neg`` is read from ``x``
    # before ``out`` can overwrite it.
    neg = np.minimum(x, 0.0)
    neg *= alpha
    np.maximum(x, 0.0, out=out)
    out += neg
    return out


def max_pool2d(x: Tensor, kernel: int, stride: int) -> Tensor:
    """Max over kernel x kernel windows; no padding, floor output extents."""
    x = _as_f32(x)
    if x.ndim != 4:
        raise ValueError(f"max_pool2d: input must be rank 4, got {x.ndim}")
    n, c, h, w = x.shape
    out_h, out_w = _check_conv_geometry("max_pool2d", h, w, kernel, kernel,
                                        stride, 0)
    # Fold the k*k window offsets with elementwise maxima over strided
    # slices into one buffer in the input's memory order; far faster than
    # reducing a 6-D window view. max(-inf, v) is v bit for bit, NaN too.
    out = np.full_like(x, -np.inf, shape=(n, c, out_h, out_w))
    for ky in range(kernel):
        for kx in range(kernel):
            np.maximum(out, x[:, :, ky:ky + stride * out_h:stride,
                              kx:kx + stride * out_w:stride], out=out)
    return out


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the full spatial extent per channel -> (N, C, 1, 1)."""
    x = _as_f32(x)
    if x.ndim != 4:
        raise ValueError(f"global_avg_pool: input must be rank 4, got {x.ndim}")
    # The summation order, and so the bits, follow the input's strides.
    return np.ascontiguousarray(x).mean(axis=(2, 3), keepdims=True, dtype=np.float32)


def dense(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map weight @ x + bias per row; weight is (out, in).

    Rank-4 input is flattened channel-major to (N, C*H*W).
    """
    x = _as_f32(x)
    if x.ndim == 4:
        x = x.reshape(x.shape[0], math.prod(x.shape[1:]))
    elif x.ndim != 2:
        raise ValueError(f"dense: input must be rank 2 or 4, got {x.ndim}")
    if x.shape[1] != weight.shape[1]:
        raise ValueError(
            f"dense: input has {x.shape[1]} features but weight expects "
            f"{weight.shape[1]}")
    out = _gemm(x, weight.T)
    if bias is not None:
        out += bias
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically guarded softmax along ``axis`` (max-subtracted)."""
    x = _as_f32(x)
    # Max and sum fold the classes in class order, element-wise, so their
    # bits never follow memory order and a short class axis stays fast.
    top = reduce(np.maximum, np.moveaxis(x, axis, 0))
    e = np.exp(x - np.expand_dims(top, axis))
    return e / np.expand_dims(reduce(np.add, np.moveaxis(e, axis, 0)), axis)


LAYER_KINDS = frozenset({
    "conv", "batch-norm", "relu6", "relu", "prelu", "max-pool",
    "global-avg-pool", "dense", "softmax", "bottleneck-block",
})


@dataclass(frozen=True)
class LayerSpec:
    """Declarative description of one layer's geometry.

    The parameters a layer needs follow from its kind and geometry alone
    (see :func:`layer_parameters`); ``bias`` adds a bias to a conv or dense
    layer. ``feeds_from`` names an earlier layer whose output this layer
    consumes instead of the immediately preceding one, which is how
    multi-head networks branch.
    """
    kind: str
    name: str
    in_channels: int | None = None
    out_channels: int | None = None
    kernel: int | None = None
    stride: int = 1
    padding: int = 0
    expansion: int = 1
    feeds_from: str | None = None
    bias: bool = False

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise NetworkError(f"layer {self.name!r}: unknown kind {self.kind!r}")

    @property
    def residual(self) -> bool:
        """Whether a bottleneck block adds its input to its projection: the
        inverted-residual shortcut, taken exactly when the block keeps the
        stride at 1 and the channel count unchanged."""
        return (self.kind == "bottleneck-block" and self.stride == 1
                and self.in_channels == self.out_channels)


_NORM_STATS = ("gamma", "beta", "mean", "variance")


def layer_parameters(layer: LayerSpec) -> list[tuple[str, tuple[int, ...]]]:
    """The layer's (role, shape) pairs in archive order.

    The archive entry that holds a role is always ``f"{layer.name}.{role}"``.
    """
    kind, out = layer.kind, layer.out_channels

    def norm(prefix: str, channels: int) -> list[tuple[str, tuple[int, ...]]]:
        return [(prefix + stat, (channels,)) for stat in _NORM_STATS]

    if kind == "batch-norm":
        return norm("", out)
    if kind == "prelu":
        return [("alpha", (out,))]
    if kind == "bottleneck-block":
        mid = layer.in_channels * layer.expansion
        expand = ([("expand_weight", (mid, layer.in_channels, 1, 1)),
                   *norm("expand_norm.", mid)] if layer.expansion > 1 else [])
        return [*expand,
                ("depthwise_weight", (mid, 1, 3, 3)), *norm("depthwise_norm.", mid),
                ("project_weight", (out, mid, 1, 1)), *norm("project_norm.", out)]
    if kind == "dense":
        weight = (out, layer.in_channels)
    elif kind == "conv":
        weight = (out, layer.in_channels, layer.kernel, layer.kernel)
    else:
        return []
    return [("weight", weight)] + ([("bias", (out,))] if layer.bias else [])


def parameter_shapes(layers: list[LayerSpec]) -> list[tuple[str, tuple[int, ...]]]:
    """Every (archive entry name, shape) pair the layer list requires."""
    return [(f"{layer.name}.{role}", shape)
            for layer in layers for role, shape in layer_parameters(layer)]


def _bind(layer: LayerSpec, archive) -> dict:
    """The layer's parameter tensors by role, fetched from ``archive`` and
    checked against :func:`layer_parameters`; every batch-norm variance must
    be non-negative. Operators trust what this returns."""
    bound = {}
    for role, shape in layer_parameters(layer):
        entry = f"{layer.name}.{role}"
        if archive is None or entry not in archive:
            raise NetworkError(
                f"layer {layer.name!r}: parameter {entry!r} missing from archive")
        tensor = archive.get(entry)
        if tuple(tensor.shape) != shape:
            raise NetworkError(
                f"layer {layer.name!r}: parameter {entry!r} has shape "
                f"{tuple(tensor.shape)}, expected {shape}")
        if role.endswith("variance") and np.any(tensor < 0):
            raise NetworkError(
                f"layer {layer.name!r}: parameter {entry!r} has a negative "
                "value; a variance must be non-negative")
        bound[role] = tensor
    return bound


def _compile(layer: LayerSpec, params: dict) -> Callable[[Tensor], Tensor]:
    """One callable that applies ``layer`` with its bound ``params`` (by role).

    Raises NetworkError for a bottleneck block that could never run: a
    stride other than 1 or 2, or an expansion below 1.
    """
    kind = layer.kind
    if kind == "conv":
        params = {**params, "weight": _window_major(params["weight"])}
        return partial(conv2d, **params, stride=layer.stride,
                       padding=layer.padding)
    if kind == "batch-norm":
        return partial(_scale_shift, *_norm_affine(**params))
    if kind == "relu6":
        return relu6
    if kind == "relu":
        return relu
    if kind == "prelu":
        return partial(prelu, **params)
    if kind == "max-pool":
        return partial(max_pool2d, kernel=layer.kernel, stride=layer.stride)
    if kind == "global-avg-pool":
        return global_avg_pool
    if kind == "dense":
        return partial(dense, **params)
    if kind == "softmax":
        return partial(softmax, axis=1)

    # bottleneck-block: 1x1 expand (when expansion > 1), 3x3 depthwise, 1x1
    # linear projection. Batch norm follows each convolution and ReLU6 the
    # first two only; with ``layer.residual`` the input is added to the
    # projection.
    stride, expansion = layer.stride, layer.expansion
    if stride not in (1, 2) or expansion < 1:
        raise NetworkError(
            f"layer {layer.name!r}: bottleneck needs stride 1 or 2 and a "
            f"positive expansion, got stride {stride}, expansion {expansion}")
    residual = layer.residual

    def norm(prefix: str):
        return partial(_scale_shift, *_norm_affine(
            **{stat: params[f"{prefix}.{stat}"] for stat in _NORM_STATS}))

    # A 1x1 weight's memory is already in conv2d's (outC, kH, kW, inC) order.
    if expansion > 1:
        expand_weight, expand_norm = params["expand_weight"], norm("expand_norm")
    depthwise_weight, depthwise_norm = (params["depthwise_weight"],
                                        norm("depthwise_norm"))
    project_weight, project_norm = params["project_weight"], norm("project_norm")

    def bottleneck(x: Tensor) -> Tensor:
        h = x
        if expansion > 1:
            h = relu6(expand_norm(conv2d(h, expand_weight)))
        # parameter_shapes fixes the depthwise kernel at 3x3: "same" padding 1.
        h = relu6(depthwise_norm(depthwise_conv2d(h, depthwise_weight,
                                                  stride=stride, padding=1)))
        h = project_norm(conv2d(h, project_weight))
        return h + x if residual else h

    return bottleneck


# Layers whose output at a position reads only their input at that position.
_ELEMENTWISE = frozenset({"batch-norm", "relu6", "relu", "prelu", "softmax"})


def read_extent(layers: Iterable[LayerSpec], extent: tuple[int, int],
                outputs: Iterable[str] = ()) -> tuple[int, int]:
    """``(h, w)``: the rows and columns, from the top-left, of an input of
    spatial ``extent`` that the final output and the layers named in
    ``outputs`` read.

    A receptive-field walk (Araujo et al. 2019). Forward, each layer's
    output extent; a rank-2 output (dense) counts as 1x1. Backward from the
    outputs, each needed in full: a conv or max-pool with padding 0 that must
    give n rows reads ``(n - 1) * stride + kernel`` of its input's; an
    element-wise layer passes its need through; any other layer (a padded
    conv, a bottleneck block, dense, global-avg-pool) reads its whole input;
    a layer read by several consumers gives the largest of their needs.
    Where the extents do not fit the kernels, the whole ``extent``, so the
    forward itself reports the misfit.
    """
    layers, extent = tuple(layers), tuple(extent)
    # Per layer name (None: the network input), its source and its extent.
    source, size, last = {}, {None: extent}, None
    for layer in layers:
        src = source[layer.name] = layer.feeds_from or last
        last = layer.name
        kind = layer.kind
        if kind in ("conv", "max-pool", "bottleneck-block"):
            kernel, padding = ((3, 1) if kind == "bottleneck-block"
                               else (layer.kernel, layer.padding))
            size[last] = tuple((n + 2 * padding - kernel) // layer.stride + 1
                               for n in size[src])
            if min(size[last]) < 1:
                return extent
        elif kind in _ELEMENTWISE:
            size[last] = size[src]
        else:  # dense, global-avg-pool
            size[last] = (1, 1)
    need: dict = {}

    def read(name, rows_cols):
        need[name] = tuple(map(max, need.get(name, rows_cols), rows_cols))

    for name in {last, *outputs}:
        read(name, size[name])
    for layer in reversed(layers):
        if layer.name not in need:
            continue
        src, rows_cols = source[layer.name], need[layer.name]
        if layer.kind in _ELEMENTWISE:
            read(src, rows_cols)
        elif layer.kind in ("conv", "max-pool") and layer.padding == 0:
            read(src, tuple((n - 1) * layer.stride + layer.kernel
                            for n in rows_cols))
        else:
            read(src, size[src])
    return need[None]


class Network:
    """Ordered layers bound to parameter tensors from a weight archive.

    Construction fetches and checks every parameter (its shape, and a
    non-negative batch-norm variance), checks each layer's geometry, and
    compiles each layer once into a callable with its parameters bound; a
    mismatch there raises NetworkError. Construction does not check that
    one layer's output channels match the next layer's input: such a
    mismatch raises a ValueError naming the layer on the first forward.
    Immutable after construction and safe to share across threads. The
    forward pass applies layers in order; each layer consumes the previous
    output unless its spec names an earlier layer via ``feeds_from``.

    ``input_shape`` optionally declares the expected per-sample input shape
    (channels, height, width); when set, forward rejects anything but it
    and the region of it that the requested outputs read. Fully
    convolutional networks leave it unset.
    """

    def __init__(self, layers: list[LayerSpec], archive=None,
                 input_shape: tuple[int, ...] | None = None):
        self.layers = tuple(layers)
        self.input_shape = tuple(input_shape) if input_shape else None
        self._names = frozenset(layer.name for layer in self.layers)
        if len(self._names) != len(self.layers):
            raise NetworkError("duplicate layer names in network")
        self._feeds = frozenset(layer.feeds_from for layer in self.layers
                                if layer.feeds_from)
        steps = []
        known = set()
        for layer in self.layers:
            if layer.feeds_from is not None and layer.feeds_from not in known:
                raise NetworkError(
                    f"layer {layer.name!r} feeds from unknown layer "
                    f"{layer.feeds_from!r}")
            known.add(layer.name)
            steps.append((layer.name, layer.feeds_from, layer.kind == "prelu",
                          _compile(layer, _bind(layer, archive))))
        self._steps = tuple(steps)

    def forward(self, x: Tensor, taps: tuple[str, ...] = ()):
        """Apply all layers; returns the final output.

        With ``taps`` the return value is ``(output, {name: tensor})`` for
        the named intermediate layers. ``x``, the taps and every
        ``feeds_from`` source are never written; a PReLU overwrites any
        other intermediate with its own output.

        A rank-4 ``x`` is first cut, as a view, to the top-left region that
        the output and taps read (:func:`read_extent`), and the batch is
        chunked by that region's row bytes; the bits are an uncut
        forward's. With a declared ``input_shape``, ``x`` must have that
        shape or its region's: (3, 21, 21) for rnet's (3, 24, 24) and heads.
        """
        unknown = set(taps) - self._names
        if unknown:
            raise NetworkError(f"unknown tap layers: {sorted(unknown)}")
        keep = self._feeds.union(taps)
        x = _as_f32(x)
        shape = tuple(x.shape[1:])
        if self.input_shape and shape != self.input_shape:
            c, *extent = self.input_shape
            region = (c, *read_extent(self.layers, extent, taps))
            if shape != region:
                raise ValueError(
                    f"input shape {shape} is neither the network's declared "
                    f"{self.input_shape} nor the region {region} it reads")
        if x.ndim == 4:
            h, w = read_extent(self.layers, x.shape[2:], taps)
            x = x[:, :, :h, :w]
        parts = parallel_map(lambda chunk: self._run(x[chunk], keep, taps),
                             row_chunks(len(x), x[:1].nbytes))
        current, *tapped = map(np.concatenate, zip(*parts))
        return (current, dict(zip(taps, tapped))) if taps else current

    def _run(self, current: Tensor, keep: frozenset, taps: tuple[str, ...]):
        """Apply every layer to ``current``; returns the result followed by
        the output of each layer in ``taps``."""
        # Whether ``current`` is an intermediate no one else holds: not the
        # caller's input, a tap or a ``feeds_from`` source. No operator
        # returns a view of its input, so a PReLU may then overwrite it.
        owned = False
        outputs = {}
        for name, feeds_from, in_place, step in self._steps:
            try:
                if feeds_from:
                    current = step(outputs[feeds_from])
                elif in_place and owned:
                    current = step(current, out=current)
                else:
                    current = step(current)
            except ValueError as exc:
                raise ValueError(f"layer {name!r}: {exc}") from exc
            owned = name not in keep
            if not owned:
                outputs[name] = current
        return [current, *(outputs[name] for name in taps)]


def bn_layer(name: str, channels: int) -> LayerSpec:
    return LayerSpec(kind="batch-norm", name=name, out_channels=channels)


def conv_layer(name: str, in_channels: int, out_channels: int, kernel: int,
               stride: int = 1, padding: int = 0, bias: bool = True,
               feeds_from: str | None = None) -> LayerSpec:
    return LayerSpec(kind="conv", name=name, in_channels=in_channels,
                     out_channels=out_channels, kernel=kernel, stride=stride,
                     padding=padding, feeds_from=feeds_from, bias=bias)


def prelu_layer(name: str, channels: int) -> LayerSpec:
    return LayerSpec(kind="prelu", name=name, out_channels=channels)


def dense_layer(name: str, in_features: int, out_features: int,
                bias: bool = True, feeds_from: str | None = None) -> LayerSpec:
    return LayerSpec(kind="dense", name=name, in_channels=in_features,
                     out_channels=out_features, feeds_from=feeds_from,
                     bias=bias)


def bottleneck_layer(name: str, in_channels: int, out_channels: int,
                     expansion: int, stride: int) -> LayerSpec:
    return LayerSpec(kind="bottleneck-block", name=name,
                     in_channels=in_channels, out_channels=out_channels,
                     expansion=expansion, stride=stride)
