"""Learning objectives with analytic gradients, plus a desk-scale trainer.

Three per-sample losses: squared-error box regression, squared-error
landmark regression, and binary cross-entropy for face/not-face. The
trainer runs plain seeded SGD on the classifier head (dense -> ReLU ->
dense -> softmax) over precomputed feature vectors; the backbone stays
frozen.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PROB_CLAMP = 1e-7
DEFAULT_TASK_WEIGHTS = {"det": 1.0, "box": 0.5, "landmark": 0.5}


class TrainingDiverged(RuntimeError):
    """Raised when the training loss becomes non-finite."""


@dataclass(frozen=True)
class TrainingSample:
    tasks: frozenset
    y_det: int | None = None
    y_box: np.ndarray | None = None
    y_landmark: np.ndarray | None = None

    def __post_init__(self):
        unknown = set(self.tasks) - {"det", "box", "landmark"}
        if unknown:
            raise ValueError(f"unknown tasks {sorted(unknown)}")
        if "det" in self.tasks:
            if self.y_det not in (0, 1):
                raise ValueError(f"y_det must be 0 or 1, got {self.y_det}")
        if "box" in self.tasks and self.y_box is None:
            raise ValueError("box task requires y_box")
        if "landmark" in self.tasks and self.y_landmark is None:
            raise ValueError("landmark task requires y_landmark")


@dataclass(frozen=True)
class LossReport:
    losses: dict          # task -> scalar loss
    gradients: dict       # task -> gradient w.r.t. the network output
    total: float


def _squared_error(pred, target, size: int, what: str):
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    target = np.asarray(target, dtype=np.float64).reshape(-1)
    if pred.shape != (size,) or target.shape != (size,):
        raise ValueError(
            f"{what}: expected {size}-vectors, got {pred.shape} and {target.shape}")
    if not (np.isfinite(pred).all() and np.isfinite(target).all()):
        raise ValueError(f"{what}: inputs must be finite")
    diff = pred - target
    return float(diff @ diff), 2.0 * diff


def loss_box(pred, target) -> tuple[float, np.ndarray]:
    """Squared L2 box-offset loss; gradient is 2*(pred - target)."""
    return _squared_error(pred, target, 4, "loss_box")


def loss_landmark(pred, target) -> tuple[float, np.ndarray]:
    """Squared L2 landmark loss over the 10-vector of five points."""
    return _squared_error(pred, target, 10, "loss_landmark")


def loss_det(p: float, y: int) -> tuple[float, float]:
    """Binary cross-entropy on the face probability.

    ``p`` is clamped to [1e-7, 1 - 1e-7] before evaluation; the returned
    gradient is d/dp of the clamped loss.
    """
    if y not in (0, 1):
        raise ValueError(f"y must be 0 or 1, got {y!r}")
    p = min(max(float(p), PROB_CLAMP), 1.0 - PROB_CLAMP)
    loss = -(y * np.log(p) + (1 - y) * np.log(1.0 - p))
    grad = -(y / p - (1 - y) / (1.0 - p))
    return float(loss), float(grad)


def multitask_loss(sample: TrainingSample, outputs: dict,
                   weights: dict | None = None) -> LossReport:
    """Weighted sum of the per-task losses named by the sample's task mask.

    ``outputs`` maps task -> network output ("det": probability scalar,
    "box": 4-vector, "landmark": 10-vector). Missing weights default to
    det 1.0, box 0.5, landmark 0.5.
    """
    weights = {**DEFAULT_TASK_WEIGHTS, **(weights or {})}
    losses: dict = {}
    gradients: dict = {}
    total = 0.0
    if "det" in sample.tasks:
        losses["det"], gradients["det"] = loss_det(outputs["det"], sample.y_det)
        total += weights["det"] * losses["det"]
    if "box" in sample.tasks:
        losses["box"], gradients["box"] = loss_box(outputs["box"], sample.y_box)
        total += weights["box"] * losses["box"]
    if "landmark" in sample.tasks:
        losses["landmark"], gradients["landmark"] = loss_landmark(
            outputs["landmark"], sample.y_landmark)
        total += weights["landmark"] * losses["landmark"]
    return LossReport(losses=losses, gradients=gradients, total=total)


@dataclass
class HeadParams:
    """Parameters of the classifier head: dense -> ReLU -> dense -> softmax."""
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def copy(self) -> "HeadParams":
        return HeadParams(self.w1.copy(), self.b1.copy(),
                          self.w2.copy(), self.b2.copy())


def init_head(feature_dim: int, hidden: int, seed: int = 0) -> HeadParams:
    rng = np.random.default_rng(seed)
    return HeadParams(
        w1=rng.uniform(-0.1, 0.1, size=(hidden, feature_dim)),
        b1=np.zeros(hidden),
        w2=rng.uniform(-0.1, 0.1, size=(2, hidden)),
        b2=np.zeros(2))


def _head_activations(params: HeadParams, x: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hidden pre-activation, its ReLU and the class probabilities for one
    feature vector: everything the backward pass needs."""
    h = params.w1 @ x + params.b1
    a = np.maximum(h, 0.0)
    z = params.w2 @ a + params.b2
    z = z - z.max()
    e = np.exp(z)
    return h, a, e / e.sum()


def head_forward(params: HeadParams, x: np.ndarray) -> np.ndarray:
    """Class probabilities [P(Mask), P(NoMask)] for one feature vector."""
    return _head_activations(params, x)[2]


def _epoch_stats(params: HeadParams, features: np.ndarray,
                 labels: np.ndarray) -> tuple[float, float]:
    losses = []
    correct = 0
    for x, y in zip(features, labels):
        q = head_forward(params, x)
        losses.append(loss_det(q[0], int(y))[0])
        predicted = 1 if q[0] > q[1] else 0
        correct += int(predicted == y)
    return float(np.mean(losses)), correct / len(labels)


def train_head(params: HeadParams, features: np.ndarray, labels: np.ndarray,
               learning_rate: float, epochs: int,
               seed: int = 0) -> tuple[HeadParams, list[tuple[int, float, float]]]:
    """Per-sample SGD on the head; label 1 means class Mask (index 0).

    Returns the trained parameters and the loss curve as (epoch, mean loss,
    accuracy) rows evaluated over the full dataset after each epoch.
    Deterministic for a fixed seed; a non-finite loss aborts.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if len(features) == 0:
        raise ValueError("dataset must be non-empty")
    if learning_rate < 0:
        raise ValueError(f"learning rate must be >= 0, got {learning_rate}")
    params = params.copy()
    rng = np.random.default_rng(seed)
    curve: list[tuple[int, float, float]] = []
    for epoch in range(1, epochs + 1):
        for i in rng.permutation(len(features)):
            x, y = features[i], int(labels[i])
            h, a, q = _head_activations(params, x)
            # Cross-entropy through softmax: dL/dz = q - onehot(y).
            dz = q - np.array([y, 1 - y], dtype=np.float64)
            da = params.w2.T @ dz
            dh = da * (h > 0)
            params.w2 -= learning_rate * np.outer(dz, a)
            params.b2 -= learning_rate * dz
            params.w1 -= learning_rate * np.outer(dh, x)
            params.b1 -= learning_rate * dh
        mean_loss, accuracy = _epoch_stats(params, features, labels)
        if not np.isfinite(mean_loss):
            raise TrainingDiverged(
                f"loss became non-finite at epoch {epoch}")
        curve.append((epoch, mean_loss, accuracy))
    return params, curve


def make_separable_dataset(count: int, feature_dim: int,
                           seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Two linearly separable Gaussian clusters, labels 1 (Mask) and 0."""
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=feature_dim)
    direction /= np.linalg.norm(direction)
    labels = np.arange(count) % 2
    noise = rng.normal(scale=0.3, size=(count, feature_dim))
    signs = np.where(labels == 1, 1.0, -1.0)
    features = signs[:, None] * 2.0 * direction[None, :] + noise
    return features, labels


def write_loss_curve(path: str | Path,
                     curve: list[tuple[int, float, float]]) -> None:
    """CSV with header epoch,loss,accuracy."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "accuracy"])
        for epoch, loss, accuracy in curve:
            writer.writerow([epoch, f"{loss:.8f}", f"{accuracy:.4f}"])
