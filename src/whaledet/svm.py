"""Binary linear SVM over feature vectors, trained by dual coordinate descent.

L1-loss (hinge) dual with box constraints [0, C]; the bias is handled via an
augmented constant feature.  Labels are {0, 1} at the interface and mapped to
{-1, +1} internally.  The decision is 1 iff w.x + b > 0 (exact ties -> 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class SvmError(Exception):
    pass


class SingleClassError(SvmError):
    pass


class DimensionMismatchError(SvmError):
    pass


class NonFiniteFeatureError(SvmError):
    pass


@dataclass
class LabeledSet:
    """Feature matrix with {0,1} labels and optional per-sample group tags."""

    features: np.ndarray  # (n_samples, dim)
    labels: np.ndarray  # (n_samples,) in {0, 1}
    group_tags: list[str] | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise SvmError("features must be a 2-D matrix")
        if len(self.features) != len(self.labels):
            raise SvmError(
                f"{len(self.features)} feature rows vs {len(self.labels)} labels"
            )
        if self.group_tags is not None and len(self.group_tags) != len(self.labels):
            raise SvmError("group_tags length does not match labels")

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class SvmModel:
    weights: np.ndarray
    bias: float
    c_param: float
    # training diagnostics, not serialized
    dual_coef: np.ndarray | None = field(default=None, repr=False)
    objective_history: list[float] | None = field(default=None, repr=False)
    n_epochs: int = 0

    @property
    def dim(self) -> int:
        return len(self.weights)


def train(
    data: LabeledSet,
    c_param: float = 1.0,
    tol: float = 1e-4,
    max_iter: int = 1000,
    seed: int = 0,
) -> SvmModel:
    """Fit an L2-regularized hinge-loss linear SVM by dual coordinate descent.

    Coordinates are visited in a fresh random permutation each epoch;
    training stops when the largest projected-gradient violation over an
    epoch drops below tol, or after max_iter epochs.
    """
    X = data.features
    if not np.isfinite(X).all():
        raise NonFiniteFeatureError("features contain NaN or infinity")
    if c_param <= 0:
        raise SvmError(f"c_param must be > 0, got {c_param}")
    labels = data.labels
    classes = np.unique(labels)
    if len(classes) < 2:
        raise SingleClassError(f"training data contains a single class: {classes}")
    if not np.isin(classes, (0, 1)).all():
        raise SvmError(f"labels must be in {{0, 1}}, got {classes}")

    n, d = X.shape
    y = np.where(labels == 1, 1.0, -1.0)
    Xa = np.hstack([X, np.ones((n, 1))])  # augmented constant feature = bias
    q_diag = np.einsum("ij,ij->i", Xa, Xa)
    alpha = np.zeros(n)
    w = np.zeros(d + 1)
    rng = np.random.default_rng(seed)
    history: list[float] = []
    epochs = 0

    for epoch in range(max_iter):
        epochs = epoch + 1
        max_violation = 0.0
        for i in rng.permutation(n):
            g = y[i] * (w @ Xa[i]) - 1.0
            if alpha[i] == 0.0:
                pg = min(g, 0.0)
            elif alpha[i] == c_param:
                pg = max(g, 0.0)
            else:
                pg = g
            max_violation = max(max_violation, abs(pg))
            if pg != 0.0 and q_diag[i] > 0.0:
                new_alpha = min(max(alpha[i] - g / q_diag[i], 0.0), c_param)
                if new_alpha != alpha[i]:
                    w += (new_alpha - alpha[i]) * y[i] * Xa[i]
                    alpha[i] = new_alpha
        history.append(float(alpha.sum() - 0.5 * (w @ w)))
        if max_violation < tol:
            break

    return SvmModel(
        weights=w[:d],
        bias=float(w[d]),
        c_param=c_param,
        dual_coef=alpha,
        objective_history=history,
        n_epochs=epochs,
    )


def decision_values(model: SvmModel, X: np.ndarray) -> np.ndarray:
    """Raw margins w.x + b of the rows of X (enables threshold sweeps)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise DimensionMismatchError(
            f"feature matrix of shape {X.shape} does not match model dim {model.dim}"
        )
    return X @ model.weights + model.bias


def predict_batch(model: SvmModel, X: np.ndarray) -> np.ndarray:
    """1 where w.x + b > 0 else 0, per row; an exact-zero margin maps to 0."""
    return (decision_values(model, X) > 0.0).astype(np.int64)


def save_model(model: SvmModel, path) -> None:
    """Plain-text model file: header line (dim, C, bias) then one weight/line."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{model.dim} {model.c_param!r} {model.bias!r}\n")
        for wi in model.weights:
            fh.write(f"{float(wi)!r}\n")


def load_model(path) -> SvmModel:
    path = Path(path)
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise SvmError(f"{path}: malformed model header")
        try:
            dim = int(header[0])
            c_param = float(header[1])
            bias = float(header[2])
            weights = np.array([float(line) for line in fh], dtype=np.float64)
        except ValueError as exc:
            raise SvmError(f"{path}: non-numeric model value: {exc}") from exc
    if len(weights) != dim:
        raise SvmError(f"{path}: expected {dim} weights, found {len(weights)}")
    return SvmModel(weights=weights, bias=bias, c_param=c_param)
