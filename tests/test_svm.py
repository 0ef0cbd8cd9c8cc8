import numpy as np
import pytest

from whaledet.svm import (
    DimensionMismatchError,
    NonFiniteFeatureError,
    SingleClassError,
    SvmError,
    SvmModel,
    decision_values,
    load_model,
    predict_batch,
    save_model,
    train,
)

from naive_ref import naive_dual_cd


def separable_2d(n_per_class=20, seed=0):
    rng = np.random.default_rng(seed)
    pos = np.array([2.0, 0.0]) + 0.01 * rng.standard_normal((n_per_class, 2))
    neg = np.array([-2.0, 0.0]) + 0.01 * rng.standard_normal((n_per_class, 2))
    X = np.vstack([pos, neg])
    y = np.array([1] * n_per_class + [0] * n_per_class)
    return X, y


def test_separable_data_perfect_training_accuracy():
    X, y = separable_2d()
    model = train(X, y)
    preds = predict_batch(model, X)
    assert (preds == y).all()
    # decision is driven by the x-coordinate: exhaustive margin check
    for x, lab in zip(X, y):
        assert predict_batch(model, x[None, :])[0] == (1 if x[0] > 0 else 0) == lab


def test_degenerate_identical_features_mixed_labels():
    X = np.ones((10, 3))
    y = np.array([1, 1, 1, 1, 1, 1, 0, 0, 0, 0])
    model = train(X, y)
    preds = predict_batch(model, X)
    acc = np.mean(preds == y)
    assert acc == pytest.approx(max(np.mean(y == 1), np.mean(y == 0)))


def test_duplicated_dataset_same_decision_function():
    X, y = separable_2d(seed=1)
    m1 = train(X, y, tol=1e-8, max_iter=10000)
    m2 = train(np.vstack([X, X]), np.concatenate([y, y]), tol=1e-8,
               max_iter=10000)
    grid = np.array([[x, y] for x in np.linspace(-3, 3, 7)
                     for y in np.linspace(-3, 3, 7)])
    v1 = decision_values(m1, grid)
    v2 = decision_values(m2, grid)
    assert np.abs(v1 - v2).max() < 1e-6


def test_dual_feasibility_and_objective_monotone():
    c = 1.0
    model = train(*separable_2d(seed=2), c_param=c)
    assert (model.dual_coef >= -1e-12).all()
    assert (model.dual_coef <= c + 1e-12).all()
    hist = model.objective_history
    assert all(b >= a - 1e-9 for a, b in zip(hist, hist[1:]))


def test_permutation_seed_invariance_on_separable_data():
    X, y = separable_2d(seed=3)
    accs = []
    for seed in range(3):
        model = train(X, y, seed=seed)
        accs.append(np.mean(predict_batch(model, X) == y))
    assert max(accs) - min(accs) < 0.01


def test_training_errors_are_distinct():
    X = np.ones((4, 2))
    with pytest.raises(SingleClassError):
        train(X, np.array([1, 1, 1, 1]))
    bad = X.copy()
    bad[0, 0] = np.nan
    with pytest.raises(NonFiniteFeatureError):
        train(bad, np.array([0, 1, 0, 1]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("d", [2, 40], ids=["primal", "gram"])
def test_non_finite_feature_is_rejected(value, d):
    X = np.ones((10, d))
    X[7, d - 1] = value
    with pytest.raises(NonFiniteFeatureError, match="NaN or infinity"):
        train(X, np.array([0, 1] * 5))


@pytest.mark.parametrize("d", [2, 40], ids=["primal", "gram"])
def test_row_whose_squared_norm_overflows_is_rejected(d):
    # every value is finite, but 1e200 squared is not: the Gram path used
    # to train to NaN weights on it, the primal path to ignore the row
    X = np.ones((10, d))
    X[::2] *= -1.0
    X[3, 0] = 1e200
    with pytest.raises(NonFiniteFeatureError, match="overflows"):
        train(X, np.array([0, 1] * 5))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_row_is_rejected_even_at_a_zero_weight(value):
    model = SvmModel(np.array([1.0, 0.0]), 0.0, 1.0)
    X = np.ones((3, 2))
    X[1, 1] = value  # the margin sees it only as value * 0.0
    with pytest.raises(NonFiniteFeatureError):
        decision_values(model, X)


def test_float32_features_train_as_their_float64_values():
    rng = np.random.default_rng(8)
    X32 = rng.standard_normal((30, 5)).astype(np.float32)
    labels = np.array([0, 1] * 15)
    m32 = train(X32, labels, seed=2)
    m64 = train(X32.astype(np.float64), labels, seed=2)
    assert m32.weights.tobytes() == m64.weights.tobytes()
    assert m32.bias == m64.bias
    assert (decision_values(m32, X32).tobytes()
            == decision_values(m64, X32.astype(np.float64)).tobytes())


@pytest.mark.parametrize("d", [3, 40], ids=["primal", "gram"])
def test_int_features_train_as_their_float64_values(tmp_path, d):
    rng = np.random.default_rng(9)
    labels = np.array([0, 1] * 10)
    X = rng.integers(-5, 6, (20, d)) + 3 * labels[:, None]
    assert X.dtype.kind == "i"
    for name, features in (("int", X), ("float", X.astype(np.float64))):
        save_model(train(features, labels, seed=4), tmp_path / name)
    assert (tmp_path / "int").read_bytes() == (tmp_path / "float").read_bytes()


@pytest.mark.parametrize("X, labels, message", [
    (np.ones(4), [0, 1, 0, 1], "2-D"),
    (np.ones((4, 2)), [0, 1, 0], "4 feature rows vs 3 labels"),
], ids=["vector", "length-mismatch"])
def test_train_checks_matrix_and_label_count(X, labels, message):
    with pytest.raises(SvmError, match=message):
        train(X, labels)


@pytest.mark.parametrize("c", [0.0, -1.0, np.nan, np.inf])
def test_c_param_must_be_finite_and_positive(c):
    with pytest.raises(SvmError, match="c_param must be finite and > 0"):
        train(*separable_2d(), c_param=c)


def test_predict_trivial_cases():
    assert predict_batch(SvmModel(np.array([1.0, 0.0]), 0.0, 1.0),
                         np.array([[3.0, -5.0]])).tolist() == [1]
    assert predict_batch(SvmModel(np.zeros(2), -1.0, 1.0),
                         np.ones((1, 2))).tolist() == [0]
    # documented tie-break: exact zero margin -> 0
    tie = SvmModel(np.array([1.0]), -2.0, 1.0)
    assert decision_values(tie, np.array([[2.0]])).tolist() == [0.0]
    assert predict_batch(tie, np.array([[2.0]])).tolist() == [0]


def test_decision_value_and_linearity():
    model = SvmModel(np.array([1.0, 1.0]), 0.5, 1.0)
    assert decision_values(model, np.array([[1.0, 1.0]]))[0] == pytest.approx(2.5)
    x = np.array([[0.7, -1.3]])
    base = decision_values(model, x)[0] - model.bias
    scaled = decision_values(model, 3.0 * x)[0] - model.bias
    assert scaled == pytest.approx(3.0 * base)


def test_decision_value_matches_naive_dot():
    rng = np.random.default_rng(13)
    model = SvmModel(rng.standard_normal(17), float(rng.standard_normal()), 1.0)
    X = rng.standard_normal((4, 17))
    for x, value in zip(X, decision_values(model, X)):
        acc = model.bias
        for wi, xi in zip(model.weights, x):
            acc += wi * xi
        assert value == pytest.approx(acc, abs=1e-9)


def test_predict_consistent_with_decision_value():
    rng = np.random.default_rng(14)
    model = SvmModel(rng.standard_normal(5), 0.1, 1.0)
    for _ in range(50):
        x = rng.standard_normal((1, 5))
        assert predict_batch(model, x)[0] == int(decision_values(model, x)[0] > 0)


def test_dim_mismatch():
    model = SvmModel(np.zeros(3), 0.0, 1.0)
    with pytest.raises(DimensionMismatchError):
        decision_values(model, np.zeros((1, 4)))
    with pytest.raises(DimensionMismatchError):
        decision_values(model, np.zeros(3))  # a bare vector is not a matrix
    with pytest.raises(DimensionMismatchError):
        predict_batch(model, np.zeros((2, 5)))


def test_model_file_round_trip(tmp_path):
    model = train(*separable_2d(seed=4))
    path = tmp_path / "model.txt"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.weights, model.weights)
    assert loaded.bias == model.bias
    assert loaded.c_param == model.c_param


def _gram_cases():
    """n <= d + 1 problems, on which train solves the dual in Gram space."""
    rng = np.random.default_rng(21)
    wide = rng.standard_normal((20, 300))
    wide_labels = rng.integers(0, 2, 20)
    wide_labels[:2] = (0, 1)
    boundary = rng.standard_normal((9, 8))  # n = d + 1
    boundary_labels = np.array([0, 1] * 4 + [1])
    duplicated = np.vstack([wide[:8], wide[:8]])  # singular Gram matrix
    duplicated_labels = np.concatenate([wide_labels[:8], wide_labels[:8]])
    dead = wide.copy()
    dead[:, 5] = 0.0  # a zero feature column
    return {
        "n20-d300": (wide, wide_labels),
        "n=d+1": (boundary, boundary_labels),
        "duplicated-rows": (duplicated, duplicated_labels),
        "zero-column": (dead, wide_labels),
    }


@pytest.mark.parametrize("case", list(_gram_cases()))
def test_gram_space_matches_w_space_oracle(case):
    X, labels = _gram_cases()[case]
    model = train(X, labels, seed=3)
    weights, bias, alpha, epochs = naive_dual_cd(X, labels, seed=3)
    assert model.n_epochs == epochs
    assert np.abs(model.dual_coef - alpha).max() < 1e-9
    margins = decision_values(model, X)
    assert np.abs(margins - (X @ weights + bias)).max() < 1e-9
    assert (predict_batch(model, X) == (X @ weights + bias > 0.0)).all()


def test_convergence_diagnostics():
    rng = np.random.default_rng(5)  # criterion 4's separable problem
    labels = np.array([0, 1] * 200)
    X = np.clip(rng.standard_normal((400, 2)), -2.5, 2.5)
    X[labels == 1] += [6.0, 6.0]
    model = train(X, labels, c_param=1.0, seed=0)
    assert model.converged
    assert model.final_violation < 1e-4
    assert model.n_epochs < 1000

    fold = _gram_cases()["n20-d300"]
    capped = train(*fold, tol=1e-4, max_iter=2)
    assert capped.n_epochs == 2
    assert not capped.converged
    assert capped.final_violation >= 1e-4


@pytest.mark.parametrize("n, d, seed, c_param, max_iter", [
    (40, 2, 0, 1.0, 1000),
    (40, 2, 1, 0.01, 1000),  # duals pinned at the upper bound C
    (60, 5, 2, 1.0, 1000),
    (25, 23, 3, 10.0, 1000),  # n = d + 2, the smallest primal fold
    (80, 12, 4, 1.0, 3),  # stopped at the epoch cap
], ids=["n40-d2", "n40-d2-small-c", "n60-d5", "n25-d23", "capped"])
def test_primal_path_is_byte_equal_to_oracle(n, d, seed, c_param, max_iter):
    rng = np.random.default_rng(100 + seed)
    labels = np.array([0, 1] * (n // 2) + [1] * (n % 2))
    X = rng.standard_normal((n, d)) + 0.7 * labels[:, None]
    X[:3] = X[3:6]  # repeated rows
    model = train(X, labels, c_param=c_param, max_iter=max_iter, seed=seed)
    weights, bias, alpha, epochs = naive_dual_cd(
        X, labels, c_param=c_param, max_iter=max_iter, seed=seed)
    assert model.weights.tobytes() == weights.tobytes()
    assert repr(model.bias) == repr(bias)
    assert model.dual_coef.tobytes() == alpha.tobytes()
    assert model.n_epochs == epochs
