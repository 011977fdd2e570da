"""Minimal deterministic tensor operators and a sequential network container.

Tensors are plain ``numpy.ndarray`` objects in float32 whose shapes are
logical batch-channel-height-width (NCHW). Their memory order is not fixed:
a returned array may be a strided view, and a convolution's output is held
channels-last (channels fastest-varying) so the next layer reads it without
a transpose copy. The result's bits never depend on the input's memory
order; an operator whose arithmetic would (the matrix products, the
depthwise einsum, the spatial mean) first makes its input contiguous.

A :class:`Network` runs its trunk, the layers before its first dense or
global-avg-pool layer, on chunks of ``_CHUNK_ROWS`` batch rows, so each
im2col matrix and element-wise temporary is a chunk's size, not the
batch's. Its head runs once on the joined trunk output. A trunk
convolution's product gives the same bits on a chunk of three or more rows
as on the whole batch (on the BLAS build the golden trace pins), so
chunking changes no output bit. A dense layer's product does not at any
chunk size: its bits depend on the batch's row count, so the head sees the
whole batch.

Operators are pure functions: inputs are never modified, except that
:func:`prelu` writes to ``out`` when given one, and repeated calls on
identical inputs return bit-identical results. :class:`Network` passes
``out`` only for an intermediate that no one else holds. Dense reductions go
through single-threaded BLAS (pinned in :mod:`cascadet`), which keeps the
reduction order fixed across runs and caller thread counts.

Operators check the activation they are given (rank, channels, geometry)
but trust their float32 parameter tensors: a :class:`Network` checks those
once, when it binds them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

Tensor = np.ndarray


class NetworkError(ValueError):
    """Raised when a network cannot be constructed against its weights."""


def _as_f32(x) -> Tensor:
    return np.asarray(x, dtype=np.float32)


# Rows per chunk of a network's trunk (see :meth:`Network.forward`).
_CHUNK_ROWS = 32


def _out_extent(extent: int, kernel: int, stride: int, padding: int) -> int:
    return (extent + 2 * padding - kernel) // stride + 1


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
    return _out_extent(h, kh, stride, padding), _out_extent(w, kw, stride, padding)


def _pad_spatial(x: Tensor, padding: int) -> Tensor:
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def _windows(x: Tensor, kh: int, kw: int, stride: int) -> Tensor:
    """View of all kernel-sized windows: (N, C, outH, outW, kH, kW)."""
    view = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    return view[:, :, ::stride, ::stride, :, :]


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
    if (kh, kw, stride, padding) == (1, 1, 1, 0):
        # A per-pixel linear map across channels: one product per sample.
        # Its bits depend on the operand's strides, hence the contiguous copy.
        out = np.matmul(weight[:, :, 0, 0],
                        np.ascontiguousarray(x).reshape(n, c, h * w))
        if bias is not None:
            out += bias[None, :, None]
        return out.reshape(n, out_c, h, w)

    win = _windows(_pad_spatial(x, padding), kh, kw, stride)
    # One GEMM: (N*outH*outW, C*kH*kW) x (C*kH*kW, outC).
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5))
    cols = cols.reshape(n * out_h * out_w, c * kh * kw)
    out = cols @ weight.reshape(out_c, -1).T
    if bias is not None:
        out += bias
    # Channels-last memory under the logical NCHW shape: the next im2col
    # copies windows out of any strides, so no transpose copy is needed.
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
    _check_conv_geometry("depthwise_conv2d", h, w, kh, kw, stride, padding)
    # The einsum's bits depend on the input's strides.
    win = _windows(_pad_spatial(np.ascontiguousarray(x), padding), kh, kw, stride)
    out = np.einsum("nchwij,cij->nchw", win, weight[:, 0], optimize=False)
    return np.ascontiguousarray(out, dtype=np.float32)


def _check_channels(op: str, x: Tensor, params: str, count: int) -> None:
    """Raise unless ``x`` has ``count`` channels on axis 1, one for each
    value of the parameter ``params``."""
    if x.ndim < 2:
        raise ValueError(f"{op}: input must have a channel axis, got rank {x.ndim}")
    if x.shape[1] != count:
        raise ValueError(
            f"{op}: input has {x.shape[1]} channels but {params} has {count}")


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, mean: Tensor,
               variance: Tensor, epsilon: float = 1e-5) -> Tensor:
    """Inference-mode batch normalization with stored per-channel statistics."""
    x = _as_f32(x)
    _check_channels("batch_norm", x, "gamma", gamma.size)
    shape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
    scale = (gamma / np.sqrt(variance + np.float32(epsilon))).reshape(shape)
    shift = beta.reshape(shape) - mean.reshape(shape) * scale
    return x * scale + shift


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
    # The product's bits depend on the operand's strides.
    out = np.ascontiguousarray(x) @ weight.T
    if bias is not None:
        out += bias
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically guarded softmax along ``axis`` (max-subtracted)."""
    x = _as_f32(x)
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


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
        return partial(conv2d, **params, stride=layer.stride,
                       padding=layer.padding)
    if kind == "batch-norm":
        return partial(batch_norm, **params)
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
        return partial(batch_norm, **{stat: params[f"{prefix}.{stat}"]
                                      for stat in _NORM_STATS})

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
    (channels, height, width); when set, forward rejects anything else.
    Fully convolutional networks leave it unset.
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
        # The trunk ends at the first dense or global-avg-pool layer.
        split = next((i for i, layer in enumerate(self.layers)
                      if layer.kind in ("dense", "global-avg-pool")), len(steps))
        self._trunk, self._head = self._steps[:split], self._steps[split:]

    def forward(self, x: Tensor, taps: tuple[str, ...] = ()):
        """Apply all layers; returns the final output.

        With ``taps`` the return value is ``(output, {name: tensor})`` for
        the named intermediate layers. ``x``, the taps and every
        ``feeds_from`` source are never written; a PReLU overwrites any
        other intermediate with its own output.
        """
        unknown = set(taps) - self._names
        if unknown:
            raise NetworkError(f"unknown tap layers: {sorted(unknown)}")
        keep = self._feeds.union(taps)
        x = _as_f32(x)
        if self.input_shape and tuple(x.shape[1:]) != self.input_shape:
            raise ValueError(
                f"input shape {tuple(x.shape[1:])} does not match the "
                f"network's declared {self.input_shape}")
        # The trunk runs on chunks of _CHUNK_ROWS rows, the last taking the
        # remainder; its outputs are joined for the head.
        n = len(x)
        starts = range(0, n - _CHUNK_ROWS + 1, _CHUNK_ROWS) or range(1)
        parts = [self._run(self._trunk, x[start:stop], keep, {})
                 for start, stop in zip(starts, [*starts[1:], n])]
        current = np.concatenate([part[0] for part in parts])
        outputs = {name: np.concatenate([part[1][name] for part in parts])
                   for name in parts[0][1]}
        current, outputs = self._run(self._head, current, keep, outputs)
        if taps:
            return current, {name: outputs[name] for name in taps}
        return current

    def _run(self, steps, current: Tensor, keep: frozenset, outputs: dict):
        """Apply ``steps`` to ``current``; returns the result and
        ``outputs`` with the output of each layer in ``keep`` added."""
        # Whether ``current`` is an intermediate no one else holds: not the
        # caller's input, a tap or a ``feeds_from`` source. No operator
        # returns a view of its input, so a PReLU may then overwrite it.
        owned = False
        for name, feeds_from, in_place, step in steps:
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
            if name in self._feeds:
                # Held contiguous once, so no reader copies it again.
                current = np.ascontiguousarray(current)
            if not owned:
                outputs[name] = current
        return current, outputs


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
