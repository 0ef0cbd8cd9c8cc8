import csv
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from whaledet import evaluate as ev
from whaledet.cli import main
from whaledet.evaluate import (
    EvalError,
    MonteCarloResult,
    column_sum_of_squares,
    confusion,
    run_monte_carlo,
    sweep_row,
)


def test_confusion_perfect():
    truth = [1] * 10 + [0] * 10
    assert confusion(truth, truth).tolist() == [10, 0, 0, 10]  # tp fp fn tn


def test_confusion_all_positive_predictor():
    truth = [1] * 10 + [0] * 10
    assert confusion([1] * 20, truth).tolist() == [10, 10, 0, 0]


def test_confusion_matches_exhaustive_count():
    rng = np.random.default_rng(0)
    truth = rng.integers(0, 2, 200)
    preds = rng.integers(0, 2, 200)
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
    m = confusion(preds, truth)
    assert m.tolist() == list(counts.values())
    assert m.sum() == 200


def test_confusion_length_mismatch():
    with pytest.raises(EvalError):
        confusion([1, 0], [1])


def test_rates_and_sweep_row_from_counts():
    # two folds: CR 3/4 and 1/2, FA 1/4 and 0/4
    result = MonteCarloResult(np.array([[3, 1, 1, 3], [2, 0, 2, 4]]))
    cr, fa = result.rates()
    assert cr.tolist() == [0.75, 0.5] and fa.tolist() == [0.25, 0.0]
    assert sweep_row(result) == [
        "-", " -", "2", "0.625000", "0.125000", "0.125000", "0.125000",
        "2.500", "0.500", "1.500", "3.500"]
    tagged = replace(result, experiment_id="E3", snr_db=-0.04)
    assert sweep_row(tagged)[:2] == ["E3", "-0.0"]


def _oracle_pool(n=120, seed=0):
    # features literally encode the label
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, n)
    X = np.repeat(labels[:, None].astype(float), 4, axis=1)
    X += 0.01 * rng.standard_normal(X.shape)
    return X, labels


def test_monte_carlo_oracle_features():
    result = run_monte_carlo(*_oracle_pool(), n_iter=10, n_train=60,
                             n_test=40, seed=1)
    cr, fa = result.rates()
    assert cr.mean() == 1.0
    assert fa.mean() == 0.0
    assert result.counts.shape == (10, 4)
    assert (result.counts.sum(axis=1) == 40).all()


def test_monte_carlo_shuffled_labels_near_chance():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((300, 8))
    labels = np.array([0, 1] * 150)
    rng.shuffle(labels)
    result = run_monte_carlo(X, labels, n_iter=100, n_train=100,
                             n_test=100, seed=3)
    assert 0.4 <= result.rates()[0].mean() <= 0.6


def test_monte_carlo_deterministic():
    pool = _oracle_pool(seed=4)
    a = run_monte_carlo(*pool, n_iter=5, n_train=50, n_test=30, seed=7)
    b = run_monte_carlo(*pool, n_iter=5, n_train=50, n_test=30, seed=7)
    assert np.array_equal(a.counts, b.counts)


def test_monte_carlo_split_disjoint_and_sized():
    # a pool exactly the size of one split: the two halves partition it
    pool = _oracle_pool(n=90, seed=5)
    result = run_monte_carlo(*pool, n_iter=3, n_train=60, n_test=30, seed=8)
    assert (result.counts.sum(axis=1) == 30).all()


def test_monte_carlo_leaves_pool_unchanged():
    # folds standardize their copies of the pool rows in place
    X, labels = _oracle_pool(seed=10)
    X[:, 2] *= 50.0  # a column far from mean 0, sd 1
    before = X.tobytes()
    run_monte_carlo(X, labels, n_iter=3, n_train=60, n_test=40, seed=2)
    assert X.tobytes() == before


@pytest.mark.parametrize("d", [6, 50], ids=["primal", "gram"])
def test_monte_carlo_float32_pool_scores_as_its_float64_values(d):
    # a feature file's float32 pool is widened fold by fold; the folds see
    # exactly the values of a float64 copy of the pool
    rng = np.random.default_rng(d)
    labels = np.array([0, 1] * 40)
    X32 = (rng.standard_normal((80, d)) + 0.3 * labels[:, None]).astype(
        np.float32)
    kwargs = dict(n_iter=4, n_train=30, n_test=20, seed=5, max_iter=50)
    a = run_monte_carlo(X32, labels, **kwargs)
    b = run_monte_carlo(X32.astype(np.float64), labels, **kwargs)
    assert np.array_equal(a.counts, b.counts)
    assert len(set(a.counts[:, 0].tolist())) > 1  # the folds differ


@pytest.mark.parametrize("X, labels, message", [
    (np.ones(100), [0, 1] * 50, "2-D"),
    (np.ones((100, 3)), [0, 1] * 49, "100 feature rows vs 98 labels"),
], ids=["vector", "length-mismatch"])
def test_monte_carlo_checks_matrix_and_label_count(X, labels, message):
    with pytest.raises(EvalError, match=message):
        run_monte_carlo(X, labels, n_iter=1, n_train=20, n_test=10)


@pytest.mark.parametrize("n_train, n_test, dim", [(40, 20, 4000),
                                                  (120, 40, 400)],
                         ids=["gram", "primal"])
def test_fold_thread_budget_is_what_a_fold_allocates(monkeypatch, n_train,
                                                     n_test, dim):
    # run_monte_carlo asks map_chunks for threads that each hold the bytes
    # it budgets; one fold, in the calling thread, allocates about that
    rng = np.random.default_rng(dim)
    labels = np.array([0, 1] * ((n_train + n_test) // 2))
    X = (rng.standard_normal((len(labels), dim))
         + 0.3 * labels[:, None]).astype(np.float32)
    budgets = []
    real_map_chunks = ev.map_chunks

    def recording(fn, n_items, bytes_per_thread):
        budgets.append(bytes_per_thread)
        return real_map_chunks(fn, n_items, bytes_per_thread)

    monkeypatch.setattr(ev, "map_chunks", recording)
    kwargs = dict(n_iter=1, n_train=n_train, n_test=n_test, max_iter=25)
    run_monte_carlo(X, labels, **kwargs)  # first-call allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_monte_carlo(X, labels, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert budgets[0] == budgets[1]
    # the two n x d buffers and the path's n x d or n x n work dominate;
    # a few d-vectors and the loop's Python objects make up the rest
    assert budgets[0] <= peak <= 1.15 * budgets[0]


@pytest.mark.parametrize("n", [1, 2, 37])
@pytest.mark.parametrize("d", [1, 999])
def test_column_sum_of_squares_matches_numpy_bytewise(n, d):
    rng = np.random.default_rng(n * d)
    x = rng.standard_normal((n, d)) * rng.uniform(1e-3, 1e3, d)
    got = column_sum_of_squares(x)
    assert got.tobytes() == np.add.reduce(x * x, axis=0).tobytes()


def test_monte_carlo_pool_too_small():
    with pytest.raises(EvalError):
        run_monte_carlo(*_oracle_pool(n=50), n_iter=1, n_train=40, n_test=20)


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
