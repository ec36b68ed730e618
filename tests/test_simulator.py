import dataclasses
import math

import numpy as np
import pytest

from krr_regimes import simulator
from krr_regimes.errors import (
    DegenerateWindowError,
    InvalidParameterError,
    SingularSystemError,
)
from krr_regimes.simulator import (
    CurveRow,
    LamSchedule,
    LearningCurve,
    SimConfig,
    default_cv_grid,
    excess_error_empirical,
    fit_decay_exponent,
    fit_loglog_slope,
    grid_search_lambda,
    learning_curve,
    ridge_fit,
    sample_dataset,
    trial_seed,
)
from krr_regimes.spectrum import PowerLawParams, power_law_spectrum, \
    teacher_variance
from krr_regimes.theory import excess_error_closed, optimal_lambda


def test_sample_dataset_noiseless_is_exactly_linear():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 40))
    X, y = sample_dataset(sp, 80, 0.0, 1)
    w, *_ = np.linalg.lstsq(X, y, rcond=None)
    assert np.abs(X @ w - y).max() < 1e-10


def test_sample_dataset_deterministic():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 100))
    X1, y1 = sample_dataset(sp, 50, 0.3, 123)
    X2, y2 = sample_dataset(sp, 50, 0.3, 123)
    assert np.array_equal(X1, X2) and np.array_equal(y1, y2)
    X3, _ = sample_dataset(sp, 50, 0.3, 124)
    assert not np.array_equal(X1, X3)


def test_sample_dataset_column_variances():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 50))
    X, _ = sample_dataset(sp, 100_000, 0.0, 7)
    rel = np.abs(X.var(axis=0) - sp.eigenvalues) / sp.eigenvalues
    assert rel.max() < 0.03


def test_ridge_fit_zero_labels():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 30))
    X, _ = sample_dataset(sp, 20, 0.0, 5)
    w = ridge_fit(X, np.zeros(20), 1e-2)
    assert np.abs(w).max() == 0.0


def test_ridge_fit_one_dimensional_exact():
    rng = np.random.default_rng(11)
    u = rng.standard_normal((30, 1))
    theta = 0.7
    y = theta * u[:, 0]
    w = ridge_fit(u, y, 0.0)
    assert w[0] == pytest.approx(float(u[:, 0] @ y / (u[:, 0] @ u[:, 0])), rel=1e-12)
    assert w[0] == pytest.approx(theta, rel=1e-12)


def test_ridge_primal_dual_equivalence():
    # dual route vs explicit primal normal equations on a wide instance
    rng = np.random.default_rng(0)
    X = rng.standard_normal((50, 80))
    y = rng.standard_normal(50)
    lam = 1e-3
    w_dual = ridge_fit(X, y, lam)
    w_primal = np.linalg.solve(X.T @ X + 50 * lam * np.eye(80), X.T @ y)
    assert np.abs(w_dual - w_primal).max() <= 1e-8 * np.abs(w_primal).max()


def test_ridge_primal_dual_equivalence_grid():
    rng = np.random.default_rng(3)
    for n, p in [(40, 120), (120, 40), (100, 100)]:
        X = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        for lam in [1e-6, 1e-3, 1e-1, 1.0]:
            w = ridge_fit(X, y, lam)
            w_ref = np.linalg.solve(X.T @ X + n * lam * np.eye(p), X.T @ y)
            assert np.abs(w - w_ref).max() <= 1e-8 * max(np.abs(w_ref).max(), 1e-30)


def test_ridge_fit_rejects_negative_lambda():
    with pytest.raises(InvalidParameterError):
        ridge_fit(np.eye(3), np.ones(3), -1.0)


def test_excess_empirical_teacher_and_null():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 500))
    theta = np.sqrt(sp.teacher_sq)
    assert excess_error_empirical(theta, sp) == 0.0
    assert excess_error_empirical(np.zeros(500), sp) == pytest.approx(
        teacher_variance(sp), rel=1e-12)


def test_excess_empirical_matches_fresh_sample_mse():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 300))
    sigma = 0.3
    X, y = sample_dataset(sp, 200, sigma, 21)
    w = ridge_fit(X, y, 1e-3)
    population = excess_error_empirical(w, sp)
    Xt, yt = sample_dataset(sp, 100_000, sigma, 22)
    sq = (Xt @ w - yt) ** 2
    mse_excess = sq.mean() - sigma ** 2
    stderr = sq.std(ddof=1) / np.sqrt(sq.size)
    assert abs(population - mse_excess) <= 3 * stderr


def _config(**kw):
    base = dict(
        spectrum=power_law_spectrum(PowerLawParams(2.0, 0.5, 1000)),
        n_values=(32, 64, 128), sigma=0.0,
        lam_schedule=LamSchedule("fixed", lam=0.0), trials=5, master_seed=99)
    base.update(kw)
    return SimConfig(**base)


def test_learning_curve_interpolates_noiseless_full_rank():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 64))
    curve = learning_curve(_config(spectrum=sp, n_values=(128,), trials=1))
    row = curve.rows[0]
    assert row.mean_excess <= 1e-8 * teacher_variance(sp)
    assert row.std_excess == 0.0


def test_learning_curve_deterministic_and_parallel_identical():
    cfg = _config(trials=8, sigma=0.2, regime_params=(2.0, 0.5))
    c1 = learning_curve(cfg)
    c2 = learning_curve(cfg)
    assert c1 == c2
    c4 = learning_curve(dataclasses.replace(cfg, workers=4))
    assert c1 == c4


def test_learning_curve_green_slope():
    # Fig.-2-style check: noiseless ridgeless decay at the predicted rate.
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 10_000))
    cfg = _config(spectrum=sp, n_values=(32, 64, 128, 256, 512, 1024), trials=6,
                  master_seed=7)
    curve = learning_curve(cfg)
    slope, _ = fit_decay_exponent(curve, (0, 5))
    assert slope == pytest.approx(-2.0, abs=0.2)


def test_learning_curve_plateau_flattens():
    # n must stay well below the truncation: the ridgeless noisy curve blows
    # up toward the n ~ p interpolation peak otherwise.
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 10_000))
    cfg = _config(spectrum=sp, sigma=0.3, n_values=(64, 128, 256, 512),
                  trials=20, master_seed=17)
    curve = learning_curve(cfg)
    # plateau region confirmed by the closed-form curve
    theory = [excess_error_closed(r.n, 0.0, 0.3, sp).total for r in curve.rows]
    tslope, _ = fit_loglog_slope([r.n for r in curve.rows], theory)
    assert -0.2 < tslope < 0.05
    slope, _ = fit_decay_exponent(curve, (0, len(curve.rows) - 1))
    assert -0.2 < slope < 0.05


def test_learning_curve_schedules_and_labels():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 500))
    cfg = _config(spectrum=sp, n_values=(64, 128),
                  lam_schedule=LamSchedule("power", lambda0=1.0, ell=1.0),
                  regime_params=(2.0, 0.5))
    curve = learning_curve(cfg)
    assert [r.lam_used for r in curve.rows] == [1.0 / 64, 1.0 / 128]
    assert all(r.regime for r in curve.rows)


def test_learning_curve_errors_when_too_many_trials_fail(monkeypatch):
    calls = {"i": 0}

    def flaky(features, labels, lam):
        calls["i"] += 1
        raise SingularSystemError("forced failure")

    monkeypatch.setattr(simulator, "ridge_fit", flaky)
    with pytest.raises(SingularSystemError):
        learning_curve(_config(trials=5, n_values=(32,)))


def test_grid_search_prefers_small_lambda_without_noise():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 300))
    X, y = sample_dataset(sp, 200, 0.0, 9)
    lam = grid_search_lambda(X, y, np.concatenate([[0.0], np.geomspace(1e-8, 10, 30)]))
    assert lam <= 1e-6


def test_grid_search_prefers_large_lambda_for_pure_noise():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 200))
    X, _ = sample_dataset(sp, 100, 0.0, 9)
    y = np.random.default_rng(4).standard_normal(100)
    lam = grid_search_lambda(X, y)
    assert lam >= 1.0


def test_grid_search_near_theory_optimum():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 2000))
    X, y = sample_dataset(sp, 512, 0.5, 5)
    lam_cv = grid_search_lambda(X, y)
    lam_star, _ = optimal_lambda(512, 0.5, sp, np.geomspace(1e-8, 1.0, 200))
    assert lam_star / 10 <= lam_cv <= lam_star * 10


def test_grid_search_validation():
    X = np.eye(4)
    y = np.ones(4)
    with pytest.raises(InvalidParameterError):
        grid_search_lambda(X, y, k_folds=1)
    with pytest.raises(InvalidParameterError):
        grid_search_lambda(X[:3], y[:3], k_folds=5)


def test_default_cv_grid_shape():
    grid = default_cv_grid()
    assert grid[0] == 0.0
    assert grid[1] == pytest.approx(10 ** (-10 + 0.026), rel=1e-12)
    steps = np.diff(np.log10(grid[1:]))
    assert np.allclose(steps, 0.026)
    assert grid[-1] < 1e5 <= grid[-1] * 10 ** 0.026


def test_fit_decay_exponent_pure_power_law():
    ns = [10, 20, 40, 80, 160]
    rows = tuple(CurveRow(n, 0.0, float(n) ** -2.0, 0.0, 1, 0.0, "") for n in ns)
    slope, stderr = fit_decay_exponent(LearningCurve(rows), (0, 4))
    assert slope == pytest.approx(-2.0, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-12)


def test_fit_decay_exponent_constant():
    rows = tuple(CurveRow(n, 0.0, 0.7, 0.0, 1, 0.0, "") for n in [10, 100, 1000])
    slope, _ = fit_decay_exponent(LearningCurve(rows), (0, 2))
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_fit_decay_exponent_degenerate_window():
    rows = tuple(CurveRow(n, 0.0, 1.0, 0.0, 1, 0.0, "") for n in [10, 100, 1000])
    with pytest.raises(DegenerateWindowError):
        fit_decay_exponent(LearningCurve(rows), (0, 1))
    bad = tuple(CurveRow(n, 0.0, 0.0, 0.0, 1, 0.0, "") for n in [10, 100, 1000])
    with pytest.raises(DegenerateWindowError):
        fit_decay_exponent(LearningCurve(bad), (0, 2))


def test_curve_csv_roundtrip(tmp_path):
    cfg = _config(trials=3, sigma=0.1, regime_params=(2.0, 0.5))
    path = tmp_path / "curve.csv"
    # a simulated curve, and hand-made rows with extreme values and no regime label
    for curve in (learning_curve(cfg),
                  LearningCurve((CurveRow(1, 0.0, 5e-324, 1.0 / 3.0, 1, 1e300, ""),
                                 CurveRow(10**6, 0.1, 2.0 / 3.0, 0.0, 7, 1e-300, "")))):
        curve.to_csv(path)
        assert LearningCurve.from_csv(path) == curve


def test_trial_seed_splittable():
    a = np.random.default_rng(trial_seed(1, 64, 0)).standard_normal(4)
    b = np.random.default_rng(trial_seed(1, 64, 1)).standard_normal(4)
    c = np.random.default_rng(trial_seed(1, 64, 0)).standard_normal(4)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)


def test_sim_config_validation():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 10))
    with pytest.raises(InvalidParameterError):
        SimConfig(spectrum=sp, n_values=(10,), sigma=0.1,
                  lam_schedule=LamSchedule("fixed", lam=0.0), trials=0, master_seed=0)
    with pytest.raises(InvalidParameterError):
        LamSchedule("bogus")
    for kind in ("fixed", "power", "cv"):
        for key in ("lam", "lambda0", "ell"):
            with pytest.raises(InvalidParameterError):
                LamSchedule(kind, **{key: math.nan})
