import numpy as np
import pytest

from whaledet.svm import (
    DimensionMismatchError,
    LabeledSet,
    NonFiniteFeatureError,
    SingleClassError,
    SvmModel,
    decision_values,
    load_model,
    predict_batch,
    save_model,
    train,
)


def separable_2d(n_per_class=20, seed=0):
    rng = np.random.default_rng(seed)
    pos = np.array([2.0, 0.0]) + 0.01 * rng.standard_normal((n_per_class, 2))
    neg = np.array([-2.0, 0.0]) + 0.01 * rng.standard_normal((n_per_class, 2))
    X = np.vstack([pos, neg])
    y = np.array([1] * n_per_class + [0] * n_per_class)
    return LabeledSet(X, y)


def test_separable_data_perfect_training_accuracy():
    data = separable_2d()
    model = train(data)
    preds = predict_batch(model, data.features)
    assert (preds == data.labels).all()
    # decision is driven by the x-coordinate: exhaustive margin check
    for x, lab in zip(data.features, data.labels):
        assert predict_batch(model, x[None, :])[0] == (1 if x[0] > 0 else 0) == lab


def test_degenerate_identical_features_mixed_labels():
    X = np.ones((10, 3))
    y = np.array([1, 1, 1, 1, 1, 1, 0, 0, 0, 0])
    model = train(LabeledSet(X, y))
    preds = predict_batch(model, X)
    acc = np.mean(preds == y)
    assert acc == pytest.approx(max(np.mean(y == 1), np.mean(y == 0)))


def test_duplicated_dataset_same_decision_function():
    data = separable_2d(seed=1)
    doubled = LabeledSet(np.vstack([data.features, data.features]),
                         np.concatenate([data.labels, data.labels]))
    m1 = train(data, tol=1e-8, max_iter=10000)
    m2 = train(doubled, tol=1e-8, max_iter=10000)
    grid = np.array([[x, y] for x in np.linspace(-3, 3, 7)
                     for y in np.linspace(-3, 3, 7)])
    v1 = decision_values(m1, grid)
    v2 = decision_values(m2, grid)
    assert np.abs(v1 - v2).max() < 1e-6


def test_dual_feasibility_and_objective_monotone():
    data = separable_2d(seed=2)
    c = 1.0
    model = train(data, c_param=c)
    assert (model.dual_coef >= -1e-12).all()
    assert (model.dual_coef <= c + 1e-12).all()
    hist = model.objective_history
    assert all(b >= a - 1e-9 for a, b in zip(hist, hist[1:]))


def test_permutation_seed_invariance_on_separable_data():
    data = separable_2d(seed=3)
    accs = []
    for seed in range(3):
        model = train(data, seed=seed)
        accs.append(np.mean(predict_batch(model, data.features) == data.labels))
    assert max(accs) - min(accs) < 0.01


def test_training_errors_are_distinct():
    X = np.ones((4, 2))
    with pytest.raises(SingleClassError):
        train(LabeledSet(X, np.array([1, 1, 1, 1])))
    bad = X.copy()
    bad[0, 0] = np.nan
    with pytest.raises(NonFiniteFeatureError):
        train(LabeledSet(bad, np.array([0, 1, 0, 1])))


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
    data = separable_2d(seed=4)
    model = train(data)
    path = tmp_path / "model.txt"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.weights, model.weights)
    assert loaded.bias == model.bias
    assert loaded.c_param == model.c_param
