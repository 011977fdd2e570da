"""Facial-mask classifier: inverted-bottleneck backbone plus a small head.

The backbone stacks 17 bottleneck residual blocks between a stride-2 stem
convolution and a final 1x1 convolution; the head is global average pool ->
dense(hidden) -> ReLU -> dense(2) -> softmax. Class order is fixed as
[Mask, NoMask] everywhere (weights, logs, reports).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import detector
from .tensor import (LayerSpec, Network, Tensor, bn_layer, bottleneck_layer,
                     conv_layer, dense_layer, parameter_shapes)

# (expansion, output channels, repeats, first-block stride) per group; the
# standard inverted-residual progression, 17 blocks total.
BLOCK_TABLE: tuple[tuple[int, int, int, int], ...] = (
    (1, 16, 1, 1),
    (6, 24, 2, 2),
    (6, 32, 3, 2),
    (6, 64, 4, 2),
    (6, 96, 3, 1),
    (6, 160, 3, 2),
    (6, 320, 1, 1),
)

STEM_CHANNELS = 32
LAST_CHANNELS = 1280


class MaskLabel(enum.Enum):
    MASK = "Mask"
    NO_MASK = "NoMask"

    @property
    def display(self) -> str:
        return "Mask" if self is MaskLabel.MASK else "No Mask"


@dataclass(frozen=True)
class MaskPrediction:
    label: MaskLabel
    confidence: float


@dataclass(frozen=True)
class BackboneSpec:
    input_extent: int = 96
    width_multiplier: float = 1.0
    head_hidden: int = 128

    def __post_init__(self):
        if self.input_extent < 32:
            raise ValueError(
                f"input extent must be at least 32, got {self.input_extent}")
        # LAST_CHANNELS is the widest layer; its scaled count must be finite.
        if not 0 < self.width_multiplier * LAST_CHANNELS < np.inf:
            raise ValueError(
                "width_multiplier must be above 0 and below "
                f"{np.finfo(np.float64).max / LAST_CHANNELS:.4g}, "
                f"got {self.width_multiplier}")
        if self.head_hidden < 1:
            raise ValueError(
                f"head_hidden must be at least 1, got {self.head_hidden}")


def _scaled(channels: int, multiplier: float) -> int:
    """Width-scaled channel count, kept divisible by 8."""
    return max(8, int(round(channels * multiplier / 8)) * 8)


def classifier_layers(spec: BackboneSpec) -> list[LayerSpec]:
    m = spec.width_multiplier
    layers = [
        conv_layer("backbone.stem", 3, _scaled(STEM_CHANNELS, m), 3,
                   stride=2, padding=1, bias=False),
        bn_layer("backbone.stem_norm", _scaled(STEM_CHANNELS, m)),
        LayerSpec(kind="relu6", name="backbone.stem_act"),
    ]
    channels = _scaled(STEM_CHANNELS, m)
    index = 0
    for expansion, out, repeats, stride in BLOCK_TABLE:
        out = _scaled(out, m)
        for rep in range(repeats):
            index += 1
            layers.append(bottleneck_layer(
                f"backbone.block{index}", channels, out, expansion,
                stride if rep == 0 else 1))
            channels = out
    last = _scaled(LAST_CHANNELS, m)
    layers += [
        conv_layer("backbone.final", channels, last, 1, bias=False),
        bn_layer("backbone.final_norm", last),
        LayerSpec(kind="relu6", name="backbone.final_act"),
        LayerSpec(kind="global-avg-pool", name="head.pool"),
        dense_layer("head.fc1", last, spec.head_hidden),
        LayerSpec(kind="relu", name="head.act"),
        dense_layer("head.fc2", spec.head_hidden, 2),
        LayerSpec(kind="softmax", name="head.prob"),
    ]
    return layers


def classifier_parameter_shapes(spec: BackboneSpec) -> list[tuple[str, tuple[int, ...]]]:
    return parameter_shapes(classifier_layers(spec))


def build_classifier(spec: BackboneSpec, weights) -> Network:
    """Network mapping a (1, 3, E, E) crop to [P(Mask), P(NoMask)]."""
    return Network(classifier_layers(spec), weights,
                   input_shape=(3, spec.input_extent, spec.input_extent))


def classify_all(classifier: Network, frame: Tensor,
                 faces: list[detector.FaceCandidate], *,
                 input_extent: int | None = None,
                 ) -> list[tuple[detector.FaceCandidate, MaskPrediction]]:
    """One prediction per detected face, input order preserved.

    Crops are square-padded and resampled from the normalized frame tensor,
    matching the preprocessing the detector stages use, and classified a
    unit at a time by :func:`detector.forward_crops`. The crop extent
    defaults to the classifier's declared input shape. The label is the
    likelier class, NoMask on an exact tie, and the confidence its
    probability. Raises ValueError when no extent is given or declared, or
    unless the forward emits two finite probabilities per face.
    """
    if input_extent is None:
        if classifier.input_shape is None:
            raise ValueError("classifier declares no input shape; "
                             "pass input_extent explicitly")
        input_extent = classifier.input_shape[-1]
    boxes = np.array([f.box for f in faces], np.float64).reshape(-1, 4)
    probs = np.asarray(detector.forward_crops(
        frame, detector.square_pad(boxes), classifier, input_extent))
    if probs.shape != (len(faces), 2):
        raise ValueError(f"classifier emitted shape {probs.shape}, "
                         f"expected {(len(faces), 2)}")
    if not np.isfinite(probs).all():
        raise ValueError(f"classifier probabilities must be finite, got {probs}")
    return [(face, MaskPrediction(MaskLabel.MASK if mask > nomask
                                  else MaskLabel.NO_MASK, max(mask, nomask)))
            for face, (mask, nomask) in zip(faces, probs.tolist())]
