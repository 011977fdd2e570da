"""Spans, delegating networks, computed work counts and percentile rules.

Everything here observes the package from outside: spans are recorded
around calls into its public functions, and network spans come from
:class:`TracedNetwork`, a delegate handed to the detector and classifier in
place of each ``Network``. Nothing inside the package is wrapped or patched.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

FLOAT_BYTES = 4  # every activation tensor is float32


@dataclass
class Span:
    name: str
    frame: int | None
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span list; spans share the id of the frame they serve.
    Frames are traced one at a time, on one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.frame: int | None = None

    @contextmanager
    def span(self, name: str, frame: int | None = None, **attrs):
        frame = self.frame if frame is None else frame
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(Span(name, frame, start, time.perf_counter(), attrs))

    @contextmanager
    def frame_span(self, frame: int):
        """Root span of one frame; child spans opened inside inherit its id."""
        self.frame = frame
        try:
            with self.span("frame", frame):
                yield
        finally:
            self.frame = None


class TracedNetwork:
    """Stands in for a ``Network``: same ``forward``, ``layers`` and
    ``input_shape``, plus one span per forward call with the batch shape."""

    def __init__(self, network, label: str, recorder: Recorder):
        self._network = network
        self._label = label
        self._recorder = recorder
        self.layers = network.layers
        self.input_shape = network.input_shape

    def forward(self, x, taps=()):
        with self._recorder.span(f"tensor.{self._label}.forward",
                                 shape=tuple(x.shape)):
            return self._network.forward(x, taps=taps)


# -- computed work -----------------------------------------------------------

def _extent(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def forward_work(layers, input_shape: tuple[int, ...]) -> tuple[int, int]:
    """(multiply-accumulates, activation bytes) of one forward, computed from
    the layer specs and the input batch shape; nothing is measured.

    MACs count convolutions (dense, depthwise, pointwise) and dense layers;
    element-wise layers, pooling and softmax count none. Activation bytes
    sum the float32 output of every layer, and of each of a bottleneck
    block's three convolutions.
    """
    shapes: dict[str, tuple[int, ...]] = {}
    shape = tuple(input_shape)
    macs = 0
    act = 0
    for layer in layers:
        src = shapes[layer.feeds_from] if layer.feeds_from else shape
        kind = layer.kind
        if kind in ("conv", "depthwise-conv"):
            n, c, h, w = src
            oh = _extent(h, layer.kernel, layer.stride, layer.padding)
            ow = _extent(w, layer.kernel, layer.stride, layer.padding)
            per_out = layer.kernel ** 2 * (1 if kind == "depthwise-conv" else c)
            shape = (n, layer.out_channels, oh, ow)
            macs += math.prod(shape) * per_out
        elif kind == "max-pool":
            n, c, h, w = src
            shape = (n, c, _extent(h, layer.kernel, layer.stride, 0),
                     _extent(w, layer.kernel, layer.stride, 0))
        elif kind == "global-avg-pool":
            shape = src[:2] + (1, 1)
        elif kind == "dense":
            shape = (src[0], layer.out_channels)
            macs += src[0] * layer.out_channels * layer.in_channels
        elif kind == "bottleneck-block":
            n, c, h, w = src
            mid = c * layer.expansion
            oh = _extent(h, 3, layer.stride, 1)
            ow = _extent(w, 3, layer.stride, 1)
            if layer.expansion > 1:
                macs += n * mid * h * w * c
                act += n * mid * h * w * FLOAT_BYTES
            macs += n * mid * oh * ow * 9
            act += n * mid * oh * ow * FLOAT_BYTES
            shape = (n, layer.out_channels, oh, ow)
            macs += math.prod(shape) * mid
        else:  # batch-norm, relu, relu6, prelu, softmax keep their shape
            shape = src
        act += math.prod(shape) * FLOAT_BYTES
        shapes[layer.name] = shape
    return macs, act


# -- statistics --------------------------------------------------------------

def tail_percentile(values, beyond: int = 10) -> tuple[float, float]:
    """(percentile, value): the highest nearest-rank percentile that leaves
    at least ``beyond`` samples above it.

    With n samples the k-th smallest sits at percentile 100*k/n and has
    n-k samples beyond it, so k = n - beyond. Where that falls below the
    median (fewer than 2*beyond samples) the median is reported instead,
    since no tail is supported.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail percentile of no values")
    k = n - beyond
    if 2 * k < n:
        return 50.0, statistics.median(ordered)
    return 100.0 * k / n, float(ordered[k - 1])


def covered_seconds(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
