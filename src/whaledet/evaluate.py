"""Monte-Carlo train/test evaluation: confusion matrices, recognition and
false-alarm rates, and the CSV rows of the E1-E6 x SNR sweep grid.

Each iteration draws a disjoint train/test split, trains a linear SVM on
standardized features and scores the held-out samples.  Iterations use
seeds derived from (run seed, iteration index), so parallel and sequential
execution agree.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import svm
from .parallel import map_chunks
from .svm import LabeledSet


class EvalError(Exception):
    pass


@dataclass(frozen=True)
class ConfusionMatrix:
    """2x2 counts with whale as the positive class."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def correct_recognition(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def false_alarm(self) -> float:
        return self.fp / (self.fp + self.tn) if self.fp + self.tn else 0.0


def confusion(predictions, truth) -> ConfusionMatrix:
    predictions = np.asarray(predictions, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if len(predictions) != len(truth):
        raise EvalError(
            f"{len(predictions)} predictions vs {len(truth)} truth labels"
        )
    return ConfusionMatrix(
        tp=int(np.sum((truth == 1) & (predictions == 1))),
        fp=int(np.sum((truth == 0) & (predictions == 1))),
        fn=int(np.sum((truth == 1) & (predictions == 0))),
        tn=int(np.sum((truth == 0) & (predictions == 0))),
    )


COUNTS = ("tp", "fp", "fn", "tn")


@dataclass
class MonteCarloResult:
    """One pool's fold matrices and their statistics; a sweep tags each
    cell with its experiment and SNR, a single pool keeps the defaults."""

    matrices: list[ConfusionMatrix] = field(default_factory=list)
    experiment_id: str = "-"
    snr_db: float = float("nan")

    @property
    def n_iter(self) -> int:
        return len(self.matrices)

    def _rates(self, attr: str) -> np.ndarray:
        return np.array([getattr(m, attr) for m in self.matrices])

    @property
    def mean_correct_recognition(self) -> float:
        return float(self._rates("correct_recognition").mean())

    @property
    def std_correct_recognition(self) -> float:
        return float(self._rates("correct_recognition").std())

    @property
    def mean_false_alarm(self) -> float:
        return float(self._rates("false_alarm").mean())

    @property
    def std_false_alarm(self) -> float:
        return float(self._rates("false_alarm").std())

    def mean_count(self, k: str) -> float:
        """Mean over the folds of one of the COUNTS."""
        return float(np.mean([getattr(m, k) for m in self.matrices]))


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


def column_sum_of_squares(x: np.ndarray) -> np.ndarray:
    """np.add.reduce(x * x, axis=0), bytewise, without the n x d square.

    numpy reduces the rows of a C-contiguous matrix into the output one row
    at a time, so accumulating row by row repeats its additions exactly.  A
    single column is reduced pairwise instead; that square is small.
    """
    if x.shape[1] == 1:
        return np.add.reduce(x * x, axis=0)
    acc = x[0] * x[0]
    square = np.empty_like(acc)
    for row in x[1:]:
        np.multiply(row, row, out=square)
        acc += square
    return acc


def run_monte_carlo(
    pool: LabeledSet,
    n_iter: int = 100,
    n_train: int = 300,
    n_test: int = 200,
    seed: int = 0,
    c_param: float = 1.0,
    max_iter: int = 1000,
) -> MonteCarloResult:
    """Repeated random resampling: train an SVM, score the held-out test set.

    Each fold's features are centered and scaled by statistics computed
    from the training draw only.  The folds run on the threads map_chunks
    chooses, each with one pair of fold buffers that every fold of its
    chunk refills, and no more threads than half the available memory
    holds; the matrices come back in fold order.
    """
    features, labels = pool.features, pool.labels
    if len(pool) < n_train + n_test:
        raise EvalError(
            f"pool of {len(pool)} samples too small for {n_train}+{n_test} split"
        )
    if min(n_train, n_test) < 2:
        raise EvalError(f"a {n_train}+{n_test} split cannot hold both classes "
                        "in both halves")
    dim = features.shape[1]

    def run_folds(iterations: range) -> list[ConfusionMatrix]:
        x_train = np.empty((n_train, dim))
        x_test = np.empty((n_test, dim))
        matrices = []
        for it in iterations:
            rng = np.random.default_rng([seed, it])
            train_idx, test_idx = _draw_split(labels, n_train, n_test, rng)
            # row by row, so a float32 pool is widened into the buffers
            # (exactly) without a float64 copy of the pool
            for buf, idx in ((x_train, train_idx), (x_test, test_idx)):
                for r, j in enumerate(idx.tolist()):
                    buf[r] = features[j]
            # standardize in place, with the elementwise steps np.std takes
            mu = x_train.mean(axis=0)
            x_train -= mu
            sd = np.maximum(np.sqrt(column_sum_of_squares(x_train) / n_train),
                            1e-12)
            x_train /= sd
            x_test -= mu
            x_test /= sd
            model = svm.train(
                LabeledSet(x_train, labels[train_idx]),
                c_param=c_param, max_iter=max_iter, seed=int(it),
            )
            preds = svm.predict_batch(model, x_test)
            matrices.append(confusion(preds, labels[test_idx]))
        return matrices

    # a thread holds its two buffers and, on the primal path, svm.train's
    # augmented copy of x_train
    bytes_per_thread = (2 * n_train + n_test) * dim * 8  # float64
    chunks = map_chunks(run_folds, n_iter, bytes_per_thread)
    return MonteCarloResult(matrices=[m for chunk in chunks for m in chunk])


SWEEP_CSV_FIELDS = (
    "experiment_id", "snr_db", "n_iter",
    "mean_correct_recognition", "std_correct_recognition",
    "mean_false_alarm", "std_false_alarm",
    "mean_tp", "mean_fp", "mean_fn", "mean_tn",
)


def sweep_row(c: MonteCarloResult, snr_text: str | None = None) -> list[str]:
    """The SWEEP_CSV_FIELDS of one cell; snr_text replaces the SNR column."""
    return [
        c.experiment_id, f"{c.snr_db:.1f}" if snr_text is None else snr_text,
        str(c.n_iter),
        f"{c.mean_correct_recognition:.6f}", f"{c.std_correct_recognition:.6f}",
        f"{c.mean_false_alarm:.6f}", f"{c.std_false_alarm:.6f}",
        *(f"{c.mean_count(k):.3f}" for k in COUNTS),
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
