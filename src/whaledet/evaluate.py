"""Monte-Carlo train/test evaluation: confusion matrices, recognition and
false-alarm rates, and SNR sweeps over the E1-E6 experiment grid.

Each iteration draws a disjoint train/test split (honoring group tags when
present: train and test tag sets never overlap), trains a linear SVM and
scores the held-out samples.  Iterations use seeds derived from
(run seed, iteration index), so parallel and sequential execution agree.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from . import svm
from .svm import LabeledSet
from .synth import ExperimentConfig, NoiseBank, build_experiment


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


@dataclass
class MonteCarloResult:
    matrices: list[ConfusionMatrix] = field(default_factory=list)

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

    def mean_counts(self) -> dict[str, float]:
        return {
            k: float(np.mean([getattr(m, k) for m in self.matrices]))
            for k in ("tp", "fp", "fn", "tn")
        }


def _draw_split(pool: LabeledSet, n_train: int, n_test: int, rng,
                iteration: int = 0, max_retries: int = 100):
    """Disjoint train/test index draw with both classes in both halves.

    With group tags present, iterations cycle through all ordered
    (train-tag, test-tag) pairs so the aggregate averages over tag pairs.
    """
    n = len(pool)
    tags = pool.group_tags
    if tags is not None:
        unique = sorted(set(tags))
        if len(unique) < 2:
            raise EvalError(
                "group constraint needs at least two distinct tags"
            )
        pairs = list(permutations(unique, 2))
        pair = pairs[iteration % len(pairs)]
        tag_arr = np.asarray(tags)
        train_cand = np.flatnonzero(tag_arr == pair[0])
        test_cand = np.flatnonzero(tag_arr == pair[1])
        if len(train_cand) < n_train or len(test_cand) < n_test:
            raise EvalError(
                f"irreconcilable group constraint: tag '{pair[0]}' has "
                f"{len(train_cand)} samples (need {n_train}), tag "
                f"'{pair[1]}' has {len(test_cand)} (need {n_test})"
            )
    else:
        if n < n_train + n_test:
            raise EvalError(
                f"pool of {n} samples too small for {n_train}+{n_test} split"
            )
        train_cand = test_cand = None

    for _ in range(max_retries):
        if train_cand is None:
            perm = rng.permutation(n)
            train_idx = perm[:n_train]
            test_idx = perm[n_train : n_train + n_test]
        else:
            train_idx = rng.choice(train_cand, size=n_train, replace=False)
            test_idx = rng.choice(test_cand, size=n_test, replace=False)
        if (len(np.unique(pool.labels[train_idx])) == 2
                and len(np.unique(pool.labels[test_idx])) == 2):
            return train_idx, test_idx
    raise EvalError(
        f"could not draw a split with both classes present "
        f"in {max_retries} retries"
    )


def run_monte_carlo(
    pool: LabeledSet,
    n_iter: int = 100,
    n_train: int = 300,
    n_test: int = 200,
    seed: int = 0,
    c_param: float = 1.0,
    tol: float = 1e-4,
    max_iter: int = 1000,
    standardize: bool = True,
) -> MonteCarloResult:
    """Repeated random resampling: train an SVM, score the held-out test set.

    With standardize=True each fold's features are centered and scaled by
    statistics computed from the training draw only.
    """
    matrices = []
    for it in range(n_iter):
        rng = np.random.default_rng([seed, it])
        train_idx, test_idx = _draw_split(pool, n_train, n_test, rng,
                                          iteration=it)
        x_train = pool.features[train_idx]
        x_test = pool.features[test_idx]
        if standardize:
            mu = x_train.mean(axis=0)
            sd = np.maximum(x_train.std(axis=0), 1e-12)
            x_train = (x_train - mu) / sd
            x_test = (x_test - mu) / sd
        model = svm.train(
            LabeledSet(x_train, pool.labels[train_idx]),
            c_param=c_param, tol=tol, max_iter=max_iter, seed=int(it),
        )
        preds = svm.predict_batch(model, x_test)
        matrices.append(confusion(preds, pool.labels[test_idx]))
    return MonteCarloResult(matrices=matrices)


@dataclass(frozen=True)
class SweepCell:
    experiment_id: str
    snr_db: float
    n_iter: int
    mean_correct_recognition: float
    std_correct_recognition: float
    mean_false_alarm: float
    std_false_alarm: float
    mean_tp: float
    mean_fp: float
    mean_fn: float
    mean_tn: float

    @classmethod
    def from_result(cls, experiment_id: str, snr_db: float,
                    result: MonteCarloResult) -> "SweepCell":
        counts = result.mean_counts()
        return cls(
            experiment_id, snr_db, result.n_iter,
            result.mean_correct_recognition, result.std_correct_recognition,
            result.mean_false_alarm, result.std_false_alarm,
            counts["tp"], counts["fp"], counts["fn"], counts["tn"],
        )


@dataclass
class SweepResult:
    cells: list[SweepCell] = field(default_factory=list)

    def cell(self, experiment_id: str, snr_db: float) -> SweepCell:
        for c in self.cells:
            if c.experiment_id == experiment_id and c.snr_db == snr_db:
                return c
        raise EvalError(f"no sweep cell for ({experiment_id}, {snr_db})")


DEFAULT_SNR_VALUES = (-10.0, -5.0, 0.0, 5.0, 10.0)


def snr_sweep(
    units,
    bank: NoiseBank,
    featurize_fn,
    experiments=("E1", "E2", "E3", "E4", "E5", "E6"),
    snr_values=DEFAULT_SNR_VALUES,
    n_pos: int = 150,
    n_neg: int = 150,
    n_iter: int = 100,
    n_train: int = 300,
    n_test: int = 200,
    seed: int = 0,
    window_s: float = 2.0,
    c_param: float = 1.0,
    svm_max_iter: int = 1000,
    standardize: bool = True,
) -> SweepResult:
    """Full (experiment x SNR) evaluation grid.

    featurize_fn maps a list of AudioClips to a feature matrix, so CNN codes
    and raw spectrogram images plug into the same harness.
    """
    cells = []
    for ei, exp in enumerate(experiments):
        for si, snr_db in enumerate(snr_values):
            cell_seed = int(
                np.random.SeedSequence([seed, ei, si]).generate_state(1)[0]
            )
            cfg = ExperimentConfig(experiment_id=exp, snr_db=float(snr_db),
                                   seed=cell_seed)
            samples = build_experiment(units, bank, cfg, n_pos, n_neg,
                                       window_s=window_s)
            X = featurize_fn([s.audio for s in samples])
            pool = LabeledSet(X, np.array([s.label for s in samples]))
            result = run_monte_carlo(
                pool, n_iter=n_iter, n_train=n_train, n_test=n_test,
                seed=cell_seed, c_param=c_param, max_iter=svm_max_iter,
                standardize=standardize,
            )
            cells.append(SweepCell.from_result(exp, float(snr_db), result))
    return SweepResult(cells=cells)


SWEEP_CSV_FIELDS = (
    "experiment_id", "snr_db", "n_iter",
    "mean_correct_recognition", "std_correct_recognition",
    "mean_false_alarm", "std_false_alarm",
    "mean_tp", "mean_fp", "mean_fn", "mean_tn",
)


def sweep_row(c: SweepCell, snr_text: str | None = None) -> list[str]:
    """The SWEEP_CSV_FIELDS of one cell; snr_text replaces the SNR column."""
    return [
        c.experiment_id, f"{c.snr_db:.1f}" if snr_text is None else snr_text,
        str(c.n_iter),
        f"{c.mean_correct_recognition:.6f}", f"{c.std_correct_recognition:.6f}",
        f"{c.mean_false_alarm:.6f}", f"{c.std_false_alarm:.6f}",
        f"{c.mean_tp:.3f}", f"{c.mean_fp:.3f}",
        f"{c.mean_fn:.3f}", f"{c.mean_tn:.3f}",
    ]


def write_sweep_csv(result: SweepResult, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_CSV_FIELDS)
        writer.writerows(sweep_row(c) for c in result.cells)


def write_confusion_csv(result: SweepResult, path) -> None:
    """Per-cell mean confusion counts, plot-ready."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment_id", "snr_db", "tp", "fp", "fn", "tn"])
        for c in result.cells:
            writer.writerow([
                c.experiment_id, f"{c.snr_db:.1f}",
                f"{c.mean_tp:.3f}", f"{c.mean_fp:.3f}",
                f"{c.mean_fn:.3f}", f"{c.mean_tn:.3f}",
            ])
