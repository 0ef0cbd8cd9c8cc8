import csv
from types import SimpleNamespace

import numpy as np
import pytest

from whaledet.cli import main
from whaledet.evaluate import (
    EvalError,
    column_sum_of_squares,
    confusion,
    run_monte_carlo,
)
from whaledet.svm import LabeledSet


def test_confusion_perfect():
    truth = [1] * 10 + [0] * 10
    m = confusion(truth, truth)
    assert (m.tp, m.tn, m.fp, m.fn) == (10, 10, 0, 0)
    assert m.correct_recognition == 1.0
    assert m.false_alarm == 0.0


def test_confusion_all_positive_predictor():
    truth = [1] * 10 + [0] * 10
    m = confusion([1] * 20, truth)
    assert (m.tp, m.fp, m.fn, m.tn) == (10, 10, 0, 0)
    assert m.false_alarm == 1.0


def test_confusion_matches_exhaustive_count():
    rng = np.random.default_rng(0)
    truth = rng.integers(0, 2, 200)
    preds = rng.integers(0, 2, 200)
    m = confusion(preds, truth)
    counts = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
    for p, t in zip(preds, truth):
        if t == 1 and p == 1:
            counts["tp"] += 1
        elif t == 0 and p == 1:
            counts["fp"] += 1
        elif t == 1 and p == 0:
            counts["fn"] += 1
        else:
            counts["tn"] += 1
    assert (m.tp, m.fp, m.fn, m.tn) == tuple(counts.values())
    assert m.total == 200


def test_confusion_length_mismatch():
    with pytest.raises(EvalError):
        confusion([1, 0], [1])


def _oracle_pool(n=120, seed=0):
    # features literally encode the label
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, n)
    X = np.repeat(labels[:, None].astype(float), 4, axis=1)
    X += 0.01 * rng.standard_normal(X.shape)
    return LabeledSet(X, labels)


def test_monte_carlo_oracle_features():
    result = run_monte_carlo(_oracle_pool(), n_iter=10, n_train=60, n_test=40,
                             seed=1)
    assert result.mean_correct_recognition == 1.0
    assert result.mean_false_alarm == 0.0
    assert all(m.total == 40 for m in result.matrices)


def test_monte_carlo_shuffled_labels_near_chance():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((300, 8))
    labels = np.array([0, 1] * 150)
    rng.shuffle(labels)
    result = run_monte_carlo(LabeledSet(X, labels), n_iter=100, n_train=100,
                             n_test=100, seed=3)
    assert 0.4 <= result.mean_correct_recognition <= 0.6


def test_monte_carlo_deterministic():
    pool = _oracle_pool(seed=4)
    a = run_monte_carlo(pool, n_iter=5, n_train=50, n_test=30, seed=7)
    b = run_monte_carlo(pool, n_iter=5, n_train=50, n_test=30, seed=7)
    assert a.matrices == b.matrices


def test_monte_carlo_split_disjoint_and_sized():
    # a pool exactly the size of one split: the two halves partition it
    pool = _oracle_pool(n=90, seed=5)
    result = run_monte_carlo(pool, n_iter=3, n_train=60, n_test=30, seed=8)
    assert all(m.total == 30 for m in result.matrices)


def test_monte_carlo_leaves_pool_unchanged():
    # folds standardize their copies of the pool rows in place
    pool = _oracle_pool(seed=10)
    pool.features[:, 2] *= 50.0  # a column far from mean 0, sd 1
    before = pool.features.tobytes()
    run_monte_carlo(pool, n_iter=3, n_train=60, n_test=40, seed=2)
    assert pool.features.tobytes() == before


@pytest.mark.parametrize("d", [6, 50], ids=["primal", "gram"])
def test_monte_carlo_float32_pool_scores_as_its_float64_values(d):
    # a feature file's float32 pool is widened fold by fold; the folds see
    # exactly the values of a float64 copy of the pool
    rng = np.random.default_rng(d)
    labels = np.array([0, 1] * 40)
    X32 = (rng.standard_normal((80, d)) + 0.3 * labels[:, None]).astype(
        np.float32)
    kwargs = dict(n_iter=4, n_train=30, n_test=20, seed=5, max_iter=50)
    a = run_monte_carlo(LabeledSet(X32, labels), **kwargs)
    b = run_monte_carlo(LabeledSet(X32.astype(np.float64), labels), **kwargs)
    assert a.matrices == b.matrices
    assert len({m.tp for m in a.matrices}) > 1  # the folds differ


@pytest.mark.parametrize("n", [1, 2, 37])
@pytest.mark.parametrize("d", [1, 999])
def test_column_sum_of_squares_matches_numpy_bytewise(n, d):
    rng = np.random.default_rng(n * d)
    x = rng.standard_normal((n, d)) * rng.uniform(1e-3, 1e3, d)
    got = column_sum_of_squares(x)
    assert got.tobytes() == np.add.reduce(x * x, axis=0).tobytes()


def test_monte_carlo_pool_too_small():
    with pytest.raises(EvalError):
        run_monte_carlo(_oracle_pool(n=50), n_iter=1, n_train=40, n_test=20)


@pytest.fixture(scope="module")
def small_sweep(tmp_path_factory):
    """The output directory of a 2 x 2 spectrogram sweep at 8 kHz."""
    root = tmp_path_factory.mktemp("small_sweep")
    cfg = root / "run.cfg"
    cfg.write_text("\n".join([
        "sample_rate=8000", "segment_len=512", "hop=256", "fft_size=512",
        "image_size=32", "features=spectrogram", "n_units=6",
        "bank_clip_s=6.0", "bank_clips_per_type=1", "experiments=E1,E2",
        "snr_values=-10,10", "n_pos=20", "n_neg=20", "n_iter=4",
        "n_train=24", "n_test=12", "seed=5", "window_s=2.0",
        "svm_max_iter=200",
    ]) + "\n")
    out = root / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def _cells(out):
    """The rows of sweep_results.csv, numeric columns as floats."""
    with open(out / "sweep_results.csv", newline="") as fh:
        return [SimpleNamespace(**{k: v if k == "experiment_id" else float(v)
                                   for k, v in row.items()})
                for row in csv.DictReader(fh)]


def test_sweep_grid_size(small_sweep):
    cells = _cells(small_sweep)
    assert len(cells) == 4
    ids = {(c.experiment_id, c.snr_db) for c in cells}
    assert ids == {("E1", -10.0), ("E1", 10.0), ("E2", -10.0), ("E2", 10.0)}


def test_sweep_rates_in_range(small_sweep):
    for c in _cells(small_sweep):
        assert 0.0 <= c.mean_correct_recognition <= 1.0
        assert 0.0 <= c.mean_false_alarm <= 1.0
        assert c.std_correct_recognition >= 0.0


def test_sweep_csv_outputs(small_sweep):
    sweep = small_sweep / "sweep_results.csv"
    lines = sweep.read_text().strip().splitlines()
    assert len(lines) == 1 + 4  # header + |experiments| * |snr_values|
    assert lines[0].startswith("experiment_id,snr_db,n_iter")
    conf = small_sweep / "confusion_matrices.csv"
    assert len(conf.read_text().strip().splitlines()) == 5
