"""Monte-Carlo train/test evaluation: confusion counts, recognition and
false-alarm rates, and the CSV rows of the E1-E6 x SNR sweep grid.

Each iteration draws a disjoint train/test split, trains a linear SVM on
standardized features and scores the held-out samples.  Iterations use
seeds derived from (run seed, iteration index), so parallel and sequential
execution agree.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import svm
from .parallel import map_chunks


class EvalError(Exception):
    pass


COUNTS = ("tp", "fp", "fn", "tn")  # whale is the positive class


def confusion(predictions, truth) -> np.ndarray:
    """The COUNTS of predictions against the truth labels, as 4 ints."""
    predictions = np.asarray(predictions, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if len(predictions) != len(truth):
        raise EvalError(
            f"{len(predictions)} predictions vs {len(truth)} truth labels"
        )
    yes, no = predictions == 1, predictions == 0
    pos, neg = truth == 1, truth == 0
    return np.array([np.sum(yes & pos), np.sum(yes & neg),
                     np.sum(no & pos), np.sum(no & neg)])


@dataclass
class MonteCarloResult:
    """One pool's fold counts; a sweep tags each cell with its experiment
    and SNR, a single pool keeps the defaults."""

    counts: np.ndarray  # (n_iter, 4) ints: each fold's COUNTS
    experiment_id: str = "-"
    snr_db: float = float("nan")

    def rates(self) -> tuple[np.ndarray, np.ndarray]:
        """Each fold's correct-recognition rate tp / (tp + fn) and
        false-alarm rate fp / (fp + tn); a fold's test half holds both
        classes, so neither divides by zero."""
        tp, fp, fn, tn = self.counts.T
        return tp / (tp + fn), fp / (fp + tn)


def _draw_split(labels: np.ndarray, n_train: int, n_test: int, rng):
    """Disjoint train/test index draw with both classes in both halves."""
    for _ in range(100):
        perm = rng.permutation(len(labels))
        train_idx = perm[:n_train]
        test_idx = perm[n_train : n_train + n_test]
        if (len(np.unique(labels[train_idx])) == 2
                and len(np.unique(labels[test_idx])) == 2):
            return train_idx, test_idx
    raise EvalError("could not draw a split with both classes present "
                    "in 100 retries")


def run_monte_carlo(
    features: np.ndarray,
    labels: np.ndarray,
    n_iter: int = 100,
    n_train: int = 300,
    n_test: int = 200,
    seed: int = 0,
    c_param: float = 1.0,
    max_iter: int = 1000,
) -> MonteCarloResult:
    """Repeated random resampling of the rows of features (n_samples x dim)
    and their {0, 1} labels: train an SVM, score the held-out test set.

    Each fold's features are centered and scaled by statistics computed
    from the training draw only.  The folds run on the threads map_chunks
    chooses, each with one pair of fold buffers that every fold of its
    chunk refills, and no more threads than half the available memory
    holds; each fold's counts land in its row of the result.
    """
    # a float32 pool (what featurize makes) stays float32: the folds widen it
    features = np.asarray(features)
    labels = np.asarray(labels, dtype=np.int64)
    if features.ndim != 2:
        raise EvalError("features must be a 2-D matrix")
    if len(features) != len(labels):
        raise EvalError(
            f"{len(features)} feature rows vs {len(labels)} labels")
    if len(labels) < n_train + n_test:
        raise EvalError(
            f"pool of {len(labels)} samples too small for {n_train}+{n_test} "
            "split")
    if min(n_train, n_test) < 2:
        raise EvalError(f"a {n_train}+{n_test} split cannot hold both classes "
                        "in both halves")
    dim = features.shape[1]
    counts = np.empty((n_iter, len(COUNTS)), dtype=np.int64)

    def run_folds(iterations) -> None:
        x_train = np.empty((n_train, dim))
        x_test = np.empty((n_test, dim))
        for it in iterations:
            rng = np.random.default_rng([seed, it])
            train_idx, test_idx = _draw_split(labels, n_train, n_test, rng)
            # row by row, so a float32 pool is widened into the buffers
            # (exactly) without a float64 copy of the pool
            for buf, idx in ((x_train, train_idx), (x_test, test_idx)):
                for r, j in enumerate(idx.tolist()):
                    buf[r] = features[j]
            # standardize in place; a non-finite value turns its row NaN
            # quietly here, and svm.train raises NonFiniteFeatureError on it
            with np.errstate(invalid="ignore", over="ignore"):
                mu = x_train.mean(axis=0)
                x_train -= mu
                sd = np.maximum(np.sqrt(
                    np.einsum("ij,ij->j", x_train, x_train) / n_train), 1e-12)
                x_train /= sd
                x_test -= mu
                x_test /= sd
            model = svm.train(x_train, labels[train_idx], c_param=c_param,
                              max_iter=max_iter, seed=int(it))
            counts[it] = confusion(svm.predict_batch(model, x_test),
                                   labels[test_idx])

    # a fold thread allocates its two float64 buffers and svm.train's scratch
    map_chunks(run_folds, n_iter,
               8 * (n_train + n_test) * dim + svm.scratch_bytes(n_train, dim))
    return MonteCarloResult(counts)


SWEEP_CSV_FIELDS = (
    "experiment_id", "snr_db", "n_iter",
    "mean_correct_recognition", "std_correct_recognition",
    "mean_false_alarm", "std_false_alarm",
    "mean_tp", "mean_fp", "mean_fn", "mean_tn",
)


def sweep_row(c: MonteCarloResult) -> list[str]:
    """The SWEEP_CSV_FIELDS of one cell; a cell with no SNR (NaN) shows
    " -" in its SNR column."""
    cr, fa = c.rates()
    return [
        c.experiment_id, " -" if math.isnan(c.snr_db) else f"{c.snr_db:.1f}",
        str(len(c.counts)),
        f"{cr.mean():.6f}", f"{cr.std():.6f}",
        f"{fa.mean():.6f}", f"{fa.std():.6f}",
        *(f"{m:.3f}" for m in c.counts.mean(axis=0)),
    ]


def write_sweep_csv(cells: list[MonteCarloResult], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_CSV_FIELDS)
        writer.writerows(sweep_row(c) for c in cells)


def write_confusion_csv(cells: list[MonteCarloResult], path) -> None:
    """Per-cell mean confusion counts, plot-ready: the id, SNR and count
    columns of the sweep rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment_id", "snr_db", *COUNTS])
        for c in cells:
            row = sweep_row(c)
            writer.writerow(row[:2] + row[-len(COUNTS):])
