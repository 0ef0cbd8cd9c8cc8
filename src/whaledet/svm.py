"""Binary linear SVM over feature vectors, trained by dual coordinate descent.

L1-loss (hinge) dual with box constraints [0, C]; the bias is handled via an
augmented constant feature.  Labels are {0, 1} at the interface and mapped to
{-1, +1} internally.  The decision is 1 iff w.x + b > 0 (exact ties -> 0).
"""

from __future__ import annotations

import math
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
class SvmModel:
    weights: np.ndarray
    bias: float
    c_param: float
    # training diagnostics, not serialized
    dual_coef: np.ndarray | None = field(default=None, repr=False)
    objective_history: list[float] | None = field(default=None, repr=False)
    n_epochs: int = 0
    converged: bool = False  # the last epoch's largest violation < tol
    final_violation: float = math.inf  # that violation (inf: no epoch ran)

    @property
    def dim(self) -> int:
        return len(self.weights)


def uses_gram(n: int, d: int) -> bool:
    """Whether train runs its loop on the n x n Gram factor (n <= d + 1)
    rather than on the n augmented rows."""
    return n <= d + 1


def scratch_bytes(n: int, d: int) -> int:
    """The float64 scratch train allocates for n rows of d features: the
    Gram matrix, its eigenvectors and their scaled copy, or the augmented
    copy of X."""
    return 8 * (3 * n * n if uses_gram(n, d) else n * (d + 1))


def train(
    X: np.ndarray,
    labels: np.ndarray,
    c_param: float = 1.0,
    tol: float = 1e-4,
    max_iter: int = 1000,
    seed: int = 0,
) -> SvmModel:
    """Fit an L2-regularized hinge-loss linear SVM by dual coordinate descent
    to the rows of X (n_samples x dim) and their {0, 1} labels.

    Coordinates are visited in a fresh random permutation each epoch;
    training stops when the largest projected-gradient violation over an
    epoch drops below tol, or after max_iter epochs.

    The dual sees the augmented rows Xa = [X, 1] only through
    Q = Xa @ Xa.T = X @ X.T + 1.  When n <= d + 1 the loop runs on an
    n-column factor Z with Z @ Z.T == Q (from the eigendecomposition of
    the Gram matrix), so a coordinate step costs O(n) instead of O(d); the
    real weights Xa.T @ (alpha * y) are formed once at the end.
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if X.ndim != 2:
        raise SvmError("features must be a 2-D matrix")
    if len(X) != len(labels):
        raise SvmError(f"{len(X)} feature rows vs {len(labels)} labels")
    if not 0 < c_param < math.inf:
        raise SvmError(f"c_param must be finite and > 0, got {c_param}")
    classes = np.unique(labels)
    if len(classes) < 2:
        raise SingleClassError(f"training data contains a single class: {classes}")
    if not np.isin(classes, (0, 1)).all():
        raise SvmError(f"labels must be in {{0, 1}}, got {classes}")

    n, d = X.shape
    gram = uses_gram(n, d)
    # A NaN or infinite value makes its row's squared norm NaN or infinite,
    # so the n norms stand in for a scan of the whole matrix.
    with np.errstate(over="ignore", invalid="ignore"):
        if gram:  # Xa's products, formed from X without copying it
            q_diag = np.einsum("ij,ij->i", X, X) + 1.0
        else:  # augmented constant feature = bias
            Z = np.hstack([X, np.ones((n, 1))])
            q_diag = np.einsum("ij,ij->i", Z, Z)
    if not np.isfinite(q_diag).all():
        raise NonFiniteFeatureError(
            "features contain NaN or infinity, or a row whose squared norm "
            "overflows")
    if gram:
        K = X @ X.T
        K += 1.0
        lam, vec = np.linalg.eigh(K)
        Z = vec * np.sqrt(np.maximum(lam, 0.0))
    w = np.zeros(Z.shape[1])  # weights in the coordinates of Z's columns
    # The loop runs on Python floats and row views: the same IEEE steps as
    # on numpy scalars, at a fraction of their overhead.
    rows = list(Z)
    y = np.where(labels == 1, 1.0, -1.0).tolist()
    q = q_diag.tolist()
    alpha = [0.0] * n
    rng = np.random.default_rng(seed)
    history: list[float] = []
    epochs = 0
    max_violation = math.inf

    for epoch in range(max_iter):
        epochs = epoch + 1
        max_violation = 0.0
        for i in rng.permutation(n).tolist():
            g = y[i] * float(w @ rows[i]) - 1.0
            a = alpha[i]
            if a == 0.0:
                pg = min(g, 0.0)
            elif a == c_param:
                pg = max(g, 0.0)
            else:
                pg = g
            max_violation = max(max_violation, abs(pg))
            if pg != 0.0 and q[i] > 0.0:
                new_alpha = min(max(a - g / q[i], 0.0), c_param)
                if new_alpha != a:
                    w += (new_alpha - a) * y[i] * rows[i]
                    alpha[i] = new_alpha
        history.append(float(np.sum(alpha) - 0.5 * (w @ w)))
        if max_violation < tol:
            break

    alpha = np.array(alpha)
    if gram:
        v = alpha * np.array(y)
        w = np.append(X.T @ v, v.sum())
    return SvmModel(
        weights=w[:d],
        bias=float(w[d]),
        c_param=c_param,
        dual_coef=alpha,
        objective_history=history,
        n_epochs=epochs,
        converged=bool(max_violation < tol),
        final_violation=float(max_violation),
    )


def decision_values(model: SvmModel, X: np.ndarray) -> np.ndarray:
    """Raw margins w.x + b of the rows of X (enables threshold sweeps)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise DimensionMismatchError(
            f"feature matrix of shape {X.shape} does not match model dim {model.dim}"
        )
    # a NaN or infinite feature makes its margin NaN or infinite (even
    # times a zero weight), so the n margins stand in for a scan of X
    with np.errstate(over="ignore", invalid="ignore"):
        values = X @ model.weights + model.bias
    if not np.isfinite(values).all():
        raise NonFiniteFeatureError(
            "features contain NaN or infinity, or a margin that overflows")
    return values


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
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().split()
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise SvmError(f"{path}: not an ASCII model file: {exc}") from None
    if len(header) != 3:
        raise SvmError(f"{path}: malformed model header")
    try:
        dim = int(header[0])
        c_param = float(header[1])
        bias = float(header[2])
        weights = np.array([float(line) for line in lines], dtype=np.float64)
    except ValueError as exc:
        raise SvmError(f"{path}: non-numeric model value: {exc}") from exc
    if len(weights) != dim:
        raise SvmError(f"{path}: expected {dim} weights, found {len(weights)}")
    if not np.isfinite([c_param, bias, *weights]).all():
        raise SvmError(f"{path}: NaN or infinite model value")
    return SvmModel(weights=weights, bias=bias, c_param=c_param)
