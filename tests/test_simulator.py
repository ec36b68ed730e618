import ctypes
import faulthandler
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from krr_regimes import _openblas, simulator
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


def _reference_sample(spectrum, n, sigma, seed):
    """The direct formula: scale a fresh standard normal draw, then add noise."""
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, spectrum.p)) * np.sqrt(spectrum.eigenvalues)
    labels = features @ np.sqrt(spectrum.teacher_sq)
    if sigma > 0:
        labels = labels + sigma * rng.standard_normal(n)
    return features, labels


@pytest.mark.parametrize("sigma", [0.0, 0.3])
@pytest.mark.parametrize("n", [40, 200])
def test_sample_dataset_matches_the_direct_formula(n, sigma):
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 120))
    seed = trial_seed(5, n, 1)
    for got, want in zip(sample_dataset(sp, n, sigma, seed),
                         _reference_sample(sp, n, sigma, seed)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_sample_dataset_fills_out_with_the_same_bits():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 120))
    want = sample_dataset(sp, 40, 0.3, 8)
    buffer = np.full((50, 120), np.nan)
    features, labels = sample_dataset(sp, 40, 0.3, 8, out=buffer[:40])
    assert np.shares_memory(features, buffer) and features.shape == (40, 120)
    assert features.tobytes() == want[0].tobytes() and labels.tobytes() == want[1].tobytes()
    for bad in (buffer, np.empty((40, 120), np.float32), np.empty((120, 40)).T,
                buffer[:40, :60]):
        with pytest.raises(InvalidParameterError, match="C-contiguous float64"):
            sample_dataset(sp, 40, 0.3, 8, out=bad)


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
    # and any lambda that is not finite
    for lam in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParameterError):
            ridge_fit(np.eye(3), np.ones(3), lam)


def _solve_by_copy(mat, rhs):
    """The ridgeless solve on a copy of mat, jitter retry included, by scipy: the
    reference for the in-place factorization."""
    import scipy.linalg

    try:
        factor = scipy.linalg.cho_factor(mat, check_finite=False)
    except scipy.linalg.LinAlgError:
        jitter = simulator._JITTER_REL * np.trace(mat) / mat.shape[0]
        factor = scipy.linalg.cho_factor(mat + jitter * np.eye(mat.shape[0]),
                                         check_finite=False)
    return scipy.linalg.cho_solve(factor, rhs, check_finite=False)


def _psd_system(zero_row):
    features = np.random.default_rng(5).standard_normal((200, 300))
    if zero_row:
        features[57] = 0.0  # a zero pivot: the first factorization fails
    return features @ features.T, features[:, 0].copy()


def _pin_scipy_blas_too(request):
    """Run scipy's OpenBLAS on one thread for the rest of the test, as
    _one_blas_thread runs numpy's, for solves that run scipy's LAPACK; at
    n = 200 OpenBLAS would thread the factorization."""
    import scipy.linalg

    lib = ctypes.CDLL(scipy.linalg._flapack.__file__)
    setter = getattr(lib, "openblas_set_num_threads_local", None)
    if setter is None:
        pytest.skip("no OpenBLAS per-thread setter found in scipy: its solve cannot be pinned")
    setter.argtypes, setter.restype = (ctypes.c_int,), ctypes.c_int
    previous = setter(1)
    request.addfinalizer(lambda: setter(previous))


@pytest.mark.parametrize("zero_row", [False, True], ids=["direct", "jitter-retry"])
def test_in_place_solve_has_the_copy_solve_bits(monkeypatch, request, zero_row):
    lapack = _openblas._lapack
    dpotrf = lapack("dpotrf")
    if dpotrf is None or lapack("dpotrs") is None:
        pytest.skip("numpy's LAPACK lacks the Cholesky symbols: scipy's solve is the only path")
    _pin_scipy_blas_too(request)
    gram, rhs = _psd_system(zero_row)
    with _openblas._one_blas_thread():
        expected = _solve_by_copy(gram.copy(), rhs)
    start, factored = gram.ctypes.data, []

    def recording(uplo, n, a, *rest):
        factored.append(a - start if 0 <= a - start < gram.nbytes else None)
        dpotrf(uplo, n, a, *rest)

    monkeypatch.setattr(_openblas, "_lapack",
                        lambda name: recording if name == "dpotrf" else lapack(name))
    with _openblas._one_blas_thread():
        solution = simulator._solve_psd(gram, rhs, lam_is_zero=True)
    assert solution.tobytes() == expected.tobytes()
    # The first factorization runs in gram's buffer, with no copy; the retry
    # factors a fresh matrix.
    assert factored == ([0, None] if zero_row else [0])


@pytest.mark.parametrize("zero_row", [False, True], ids=["direct", "jitter-retry"])
def test_numpy_fallback_solve_agrees_with_the_main_path(monkeypatch, zero_row):
    # Where numpy's LAPACK lacks dpotrf and dpotrs, numpy's Cholesky tests
    # definiteness and its solve runs.  It rounds differently from the main
    # path: 1.7e-15 (direct) and 1.4e-15 (retry) relative on an x86-64 VM with
    # numpy 2.4.6, so 1e-14 leaves a margin of about 6.
    if _openblas._lapack("dpotrf") is None or _openblas._lapack("dpotrs") is None:
        pytest.skip("numpy's LAPACK lacks the Cholesky symbols: the fallback is the only path")
    gram, rhs = _psd_system(zero_row)
    with _openblas._one_blas_thread():
        expected = simulator._solve_psd(gram.copy(), rhs, lam_is_zero=True)
    factored, cholesky = [], np.linalg.cholesky

    def recording(a):
        try:
            return cholesky(a)
        finally:
            factored.append(np.shares_memory(a, gram))

    monkeypatch.setattr(_openblas, "_lapack", lambda name: None)
    monkeypatch.setattr(np.linalg, "cholesky", recording)
    with _openblas._one_blas_thread():
        solution = simulator._solve_psd(gram, rhs, lam_is_zero=True)
    assert np.linalg.norm(solution - expected) <= 1e-14 * np.linalg.norm(expected)
    # The retry fires on the zero row and factors a fresh matrix.
    assert factored == ([True, False] if zero_row else [True])


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


def _reference_curve(cfg, skip=frozenset()):
    """The per-trial loop: draw, fit and score each trial in turn, leaving out
    the (n, trial) pairs in skip, then reduce each row."""
    def draw(n, t):
        return _reference_sample(cfg.spectrum, n, cfg.sigma, trial_seed(cfg.master_seed, n, t))

    rows = []
    for n in sorted(cfg.n_values):
        lam = cfg.lam_schedule.lam_at(n)
        if lam is None:
            lam = grid_search_lambda(*draw(n, 0))
        values = np.array([excess_error_empirical(ridge_fit(*draw(n, t), lam), cfg.spectrum)
                           for t in range(cfg.trials) if (n, t) not in skip])
        theory = excess_error_closed(n, lam, cfg.sigma, cfg.theory_spectrum or cfg.spectrum)
        regime = ""
        if cfg.spectrum.law is not None:
            regime = cfg.lam_schedule.label(*cfg.spectrum.law, cfg.sigma, n, lam).region.value
        rows.append(CurveRow(n, lam, float(values.mean()),
                             float(values.std(ddof=1)) if values.size > 1 else 0.0,
                             values.size, theory.total, regime))
    return LearningCurve(tuple(rows))


@pytest.mark.parametrize("trials", [1, 2, 4])
@pytest.mark.parametrize("sigma", [0.0, 0.5])
@pytest.mark.parametrize("schedule", [LamSchedule("fixed", lam=0.0),
                                      LamSchedule("power", lambda0=1.0, ell=1.0),
                                      LamSchedule("cv")], ids=["fixed", "power", "cv"])
def test_learning_curve_matches_the_per_trial_loop(schedule, sigma, trials):
    # Unsorted sample counts with a duplicate; 160 > p takes the primal branch.
    # One trial per row gives std 0; odd and even trial counts start each row
    # in a different one of the two design buffers.
    cfg = _config(spectrum=power_law_spectrum(PowerLawParams(2.0, 0.5, 128)),
                  n_values=(96, 24, 160, 24), sigma=sigma, lam_schedule=schedule,
                  trials=trials)
    assert repr(learning_curve(cfg)) == repr(_reference_curve(cfg))


def test_learning_curve_interpolates_noiseless_full_rank():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 64))
    curve = learning_curve(_config(spectrum=sp, n_values=(128,), trials=1))
    row = curve.rows[0]
    assert row.mean_excess <= 1e-8 * teacher_variance(sp)
    assert row.std_excess == 0.0


def test_learning_curve_deterministic_and_parallel_identical():
    cfg = _config(trials=8, sigma=0.2)
    c1 = learning_curve(cfg)
    c2 = learning_curve(cfg)
    assert c1 == c2


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
                  lam_schedule=LamSchedule("power", lambda0=1.0, ell=1.0))
    curve = learning_curve(cfg)
    assert [r.lam_used for r in curve.rows] == [1.0 / 64, 1.0 / 128]
    assert all(r.regime for r in curve.rows)


@pytest.fixture
def exit_on_hang(capsys):
    """Within the test, a hang past 120 s ends the test process with every
    thread's stack on stderr and status 1.  A hung learning curve waits in its
    executor's shutdown, and the executor's workers are not daemon threads, so
    the interpreter would not exit either."""
    with capsys.disabled():
        stderr = os.dup(2)  # the terminal's stderr, which the capture replaces
    faulthandler.dump_traceback_later(120, exit=True, file=stderr)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
        os.close(stderr)


def test_learning_curve_errors_when_too_many_trials_fail(monkeypatch, exit_on_hang):
    calls = {"i": 0}

    def flaky(features, labels, lam):
        calls["i"] += 1
        raise SingularSystemError("forced failure")

    monkeypatch.setattr(simulator, "ridge_fit", flaky)
    before = threading.active_count()
    with pytest.raises(SingularSystemError):
        learning_curve(_config(trials=5, n_values=(32,)))
    assert threading.active_count() == before
    # Raised while the next row's designs are still being drawn.
    with pytest.raises(SingularSystemError):
        learning_curve(_config(trials=5, n_values=(32, 64)))
    assert threading.active_count() == before


def test_learning_curve_tolerates_one_failed_trial(monkeypatch):
    cfg = _config(spectrum=power_law_spectrum(PowerLawParams(2.0, 0.5, 200)),
                  n_values=(48,), sigma=0.3, trials=10)
    # Trial 3 is recognized by its design: the workers fit in no fixed order.
    _, trial_3_labels = _reference_sample(cfg.spectrum, 48, cfg.sigma, trial_seed(99, 48, 3))
    calls = []

    def fails_on_trial_3(features, labels, lam):
        calls.append(lam)
        if np.array_equal(labels, trial_3_labels):
            raise SingularSystemError("forced failure")
        return ridge_fit(features, labels, lam)

    monkeypatch.setattr(simulator, "ridge_fit", fails_on_trial_3)
    curve = learning_curve(cfg)
    assert len(calls) == 10 and curve.rows[0].trials == 9
    assert repr(curve) == repr(_reference_curve(cfg, skip={(48, 3)}))


def _record_threads(monkeypatch, names) -> dict:
    """Patch each simulator function in names to record the thread of each call."""
    seen = {name: [] for name in names}
    for name in names:
        def recording(*args, name=name, original=getattr(simulator, name), **kwargs):
            seen[name].append(threading.get_ident())
            return original(*args, **kwargs)

        monkeypatch.setattr(simulator, name, recording)
    return seen


def test_learning_curve_searches_and_labels_on_the_calling_thread(monkeypatch):
    seen = _record_threads(monkeypatch, ("grid_search_lambda", "excess_error_closed",
                                         "classify"))
    curve = learning_curve(_config(n_values=(32, 64), trials=3, lam_schedule=LamSchedule("cv")))
    assert [row.trials for row in curve.rows] == [3, 3]
    assert all(set(seen[name]) == {threading.get_ident()} for name in seen), seen


@pytest.mark.parametrize("schedule", [LamSchedule("fixed", lam=1e-3), LamSchedule("cv")],
                         ids=["fixed", "cv"])
@pytest.mark.parametrize("trials", [1, 3])
def test_learning_curve_draws_and_fits_on_two_worker_threads(monkeypatch, schedule, trials):
    names = ("sample_dataset", "ridge_fit", "excess_error_empirical")
    seen = _record_threads(monkeypatch, names)
    learning_curve(_config(n_values=(32, 64, 128), trials=trials, lam_schedule=schedule))
    caller = threading.get_ident()
    workers = set().union(*seen.values()) - {caller}
    assert 1 <= len(workers) <= 2
    assert all(seen.values())
    # The calling thread draws a cv row's search design, once a row.
    searches = 3 if schedule.kind == "cv" else 0
    assert [seen[name].count(caller) for name in names] == [searches, 0, 0]


@pytest.mark.parametrize("schedule", [LamSchedule("fixed", lam=1e-3), LamSchedule("cv")],
                         ids=["fixed", "cv"])
def test_learning_curve_draws_every_design_through_sample_dataset(monkeypatch, schedule):
    # The one draw path that the benchmark's tracer wraps: rows x trials designs,
    # plus one search design per cv row, each into a shared buffer's rows.
    draws, real = [], simulator.sample_dataset

    def counting(spectrum, n, sigma, seed, out=None):
        draws.append((n, out is not None))
        return real(spectrum, n, sigma, seed, out)

    monkeypatch.setattr(simulator, "sample_dataset", counting)
    learning_curve(_config(n_values=(64, 32), trials=2, lam_schedule=schedule))
    per_row = 2 + (schedule.kind == "cv")
    assert sorted(draws) == [(n, True) for n in (32, 64) for _ in range(per_row)]


def test_each_cv_search_runs_before_a_worker_draws_at_its_sample_count(monkeypatch,
                                                                     exit_on_hang):
    draw, search = simulator.sample_dataset, simulator.grid_search_lambda
    caller, worker_draws, searches = threading.get_ident(), set(), []

    def recording_draw(spectrum, n, sigma, seed, out=None):
        if threading.get_ident() != caller:
            worker_draws.add(n)
        return draw(spectrum, n, sigma, seed, out)

    def checked_search(features, labels, work=None):
        searches.append(features.shape[0] in worker_draws)
        return search(features, labels, work=work)

    monkeypatch.setattr(simulator, "sample_dataset", recording_draw)
    monkeypatch.setattr(simulator, "grid_search_lambda", checked_search)
    learning_curve(_config(n_values=(32, 48, 64, 96), trials=3, lam_schedule=LamSchedule("cv")))
    assert searches == [False] * 4


def _leaves_no_thread(cfg, error):
    """learning_curve(cfg) raises error and leaves no thread; run it under exit_on_hang."""
    before = threading.enumerate()
    with pytest.raises(error):
        learning_curve(cfg)
    assert threading.enumerate() == before


def test_learning_curve_leaves_no_thread_after_a_failing_draw(monkeypatch, exit_on_hang):
    # On a cv curve the first draw is row 0's search design, on the calling thread.
    def breaks(*args):
        raise RuntimeError("forced draw failure")

    monkeypatch.setattr(simulator, "sample_dataset", breaks)
    _leaves_no_thread(_config(trials=3, lam_schedule=LamSchedule("cv")), RuntimeError)


def test_learning_curve_leaves_no_thread_after_a_failing_trial(monkeypatch, exit_on_hang):
    calls = []

    def breaks_on_trial_2(features, labels, lam):
        calls.append(lam)
        if len(calls) == 3:
            raise RuntimeError("forced crash")
        return ridge_fit(features, labels, lam)

    monkeypatch.setattr(simulator, "ridge_fit", breaks_on_trial_2)
    _leaves_no_thread(_config(n_values=(32, 64), trials=3), RuntimeError)


@pytest.mark.parametrize("schedule", [LamSchedule("fixed", lam=0.0), LamSchedule("cv")],
                         ids=["fixed", "cv"])
def test_learning_curve_leaves_no_thread_after_too_many_failures(monkeypatch, schedule,
                                                                 exit_on_hang):
    # Row 0's raise comes while later rows' trials are still queued or running.
    def fails(features, labels, lam):
        raise SingularSystemError("forced failure")

    monkeypatch.setattr(simulator, "ridge_fit", fails)
    _leaves_no_thread(_config(n_values=(32, 64, 128), trials=4, lam_schedule=schedule),
                      SingularSystemError)


def test_learning_curve_leaves_no_thread_after_a_failing_search(monkeypatch, exit_on_hang):
    # The search of row 2 raises while rows 0 and 1's trials are queued or running.
    rows = []

    def breaks_at_row_2(features, labels, work=None):
        rows.append(features.shape[0])
        if len(rows) == 3:
            raise RuntimeError("forced search failure")
        return grid_search_lambda(features, labels, work=work)

    monkeypatch.setattr(simulator, "grid_search_lambda", breaks_at_row_2)
    _leaves_no_thread(_config(n_values=(32, 48, 64, 96), trials=2,
                              lam_schedule=LamSchedule("cv")), RuntimeError)


def test_concurrent_curves_keep_their_bits_under_a_short_switch_interval(exit_on_hang):
    # Four curves at once: eight workers on the machine's cores, switching often.
    configs = [_config(spectrum=power_law_spectrum(PowerLawParams(2.0, 0.5, 128)),
                       n_values=(48, 24, 48), sigma=0.5, trials=3, lam_schedule=schedule,
                       master_seed=seed)
               for seed in (1, 2) for schedule in (LamSchedule("fixed", lam=1e-3),
                                                   LamSchedule("cv"))]
    expected = [repr(_reference_curve(cfg)) for cfg in configs]
    got = [None] * len(configs)

    def run(k):
        got[k] = repr(learning_curve(configs[k]))

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(configs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == expected


def test_a_cv_curve_with_one_trial_and_duplicate_sample_counts_finishes(exit_on_hang):
    cfg = _config(spectrum=power_law_spectrum(PowerLawParams(2.0, 0.5, 128)),
                  n_values=(48, 24, 48, 24), sigma=0.5, trials=1,
                  lam_schedule=LamSchedule("cv"))
    curve = learning_curve(cfg)
    assert [row.n for row in curve.rows] == [24, 24, 48, 48]
    assert repr(curve) == repr(_reference_curve(cfg))


@pytest.mark.parametrize("flags", [["--lam", "0", "--n", "256,512"],
                                   ["--cv", "--sigma", "0.5", "--n", "256"]],
                         ids=["ridgeless", "cv"])
def test_curve_does_not_depend_on_the_blas_thread_count(tmp_path, flags):
    # From n = 128 on OpenBLAS threads the Cholesky factorization, whose rounding
    # then follows the thread count unless the solve is pinned to one thread.
    if _openblas._setter() is None:
        pytest.skip("no OpenBLAS per-thread setter found: the solve cannot be pinned")
    src = str(Path(simulator.__file__).resolve().parents[1])
    curves = []
    for threads in ("1", "2"):
        out = tmp_path / f"curve_{threads}.csv"
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-m", "krr_regimes.cli", "simulate", "--alpha", "2",
                        "--r", "0.5", "--p", "2000", "--trials", "3", "--seed", "11", *flags,
                        "--out", str(out)],
                       env=env, capture_output=True, check=True, timeout=300)
        curves.append(out.read_bytes())
    assert curves[0] == curves[1]


def test_a_trial_by_hand_has_the_curve_bits():
    # n = 512 is past the size where OpenBLAS threads the Cholesky
    # factorization, so this holds only if a bare ridge_fit is pinned too.
    cfg = _config(spectrum=power_law_spectrum(PowerLawParams(2.0, 0.5, 2000)),
                  n_values=(512,), sigma=0.5, trials=1)
    features, labels = sample_dataset(cfg.spectrum, 512, 0.5, trial_seed(99, 512, 0))
    by_hand = excess_error_empirical(ridge_fit(features, labels, 0.0), cfg.spectrum)
    assert learning_curve(cfg).rows[0].mean_excess == by_hand


def _blas_count():
    """The current thread count of numpy's OpenBLAS (the setter returns the count it replaces)."""
    setter = _openblas._setter()
    count = setter(1)
    setter(count)
    return count


@pytest.fixture
def blas_at_two_threads():
    setter = _openblas._setter()
    if setter is None:
        pytest.skip("no OpenBLAS per-thread setter found")
    before = setter(2)
    yield
    setter(before)


def test_learning_curve_restores_the_blas_thread_counts(blas_at_two_threads, monkeypatch):
    seen = []
    excess = simulator.excess_error_empirical

    def recording_excess(w, spectrum):
        seen.append(_blas_count())
        return excess(w, spectrum)

    monkeypatch.setattr(simulator, "excess_error_empirical", recording_excess)
    learning_curve(_config(trials=2))
    assert seen and all(count == 1 for count in seen)
    assert _blas_count() == 2


def test_failed_learning_curve_restores_the_blas_thread_counts(blas_at_two_threads,
                                                                monkeypatch):
    def failing(features, labels, lam):
        raise SingularSystemError("forced failure")

    monkeypatch.setattr(simulator, "ridge_fit", failing)
    with pytest.raises(SingularSystemError):
        learning_curve(_config(trials=5, n_values=(32, 64)))
    assert _blas_count() == 2


def test_the_pin_sets_the_threads_of_numpys_blas():
    # The setter found on numpy.linalg's library is the one numpy's matrix
    # products run under.
    setter = _openblas._setter()
    if setter is None:
        pytest.skip("no OpenBLAS per-thread setter found")
    lib = ctypes.CDLL(pytest.importorskip("numpy._core._multiarray_umath").__file__)

    def address(fn):
        return ctypes.cast(fn, ctypes.c_void_p).value

    assert address(setter) == address(lib.openblas_set_num_threads_local)


def test_without_the_library_every_call_falls_back(monkeypatch):
    # No handle: the pin calls no setter, the Cholesky is numpy's and the
    # grid search decomposes with eigh.
    setter = _openblas._setter()
    monkeypatch.setattr(_openblas, "_library", lambda: None)
    calls = []

    def recorded(name, original):
        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "cholesky", recorded("cholesky", np.linalg.cholesky))
    monkeypatch.setattr(np.linalg, "eigh", recorded("eigh", np.linalg.eigh))
    before = setter(3) if setter is not None else None
    try:
        with _openblas._one_blas_thread():
            if setter is not None:
                assert setter(3) == 3
        features, labels = sample_dataset(power_law_spectrum(PowerLawParams(2.0, 0.5, 60)),
                                          40, 0.5, 1)
        ridge_fit(features, labels, 0.1)
        grid_search_lambda(features, labels)
    finally:
        if setter is not None:
            setter(before)
    assert calls == ["cholesky"] + ["eigh"] * 5


class _FakeSetter:
    """A thread count behind a setter that returns the count it replaces."""

    def __init__(self, count):
        self.count = count

    def __call__(self, n):
        previous, self.count = self.count, n
        return previous


def test_overlapping_blocks_on_two_threads_restore_once(monkeypatch):
    # The count is process-wide: the last block to close restores it.
    lib = _FakeSetter(3)
    monkeypatch.setattr(_openblas, "_setter", lambda: lib)
    opened, release = threading.Event(), threading.Event()

    def other_block():
        with _openblas._one_blas_thread():
            opened.set()
            release.wait(10)

    other = threading.Thread(target=other_block)
    other.start()
    assert opened.wait(10)
    with _openblas._one_blas_thread():
        release.set()
        other.join(10)
        assert lib.count == 1
    assert lib.count == 3


def test_blocks_on_many_threads_keep_one_thread_and_restore(monkeypatch):
    lib = _FakeSetter(3)
    monkeypatch.setattr(_openblas, "_setter", lambda: lib)
    seen = set()

    def blocks():
        for _ in range(300):
            with _openblas._one_blas_thread():
                seen.add(lib.count)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=blocks) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == {1} and lib.count == 3


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
    for work in (np.zeros((40, 40)).T, np.zeros(100, dtype=np.float32)):
        with pytest.raises(InvalidParameterError):
            grid_search_lambda(X, y, k_folds=2, work=work)
    for grid in ([], [-1e-3, 1.0], [math.nan], [math.inf], [0.0, 1e-3, math.inf],
                 [1e-3, math.nan, 1.0]):
        with pytest.raises(InvalidParameterError):
            grid_search_lambda(X, y, grid, k_folds=2)


def _reference_grid_search(features, labels, lam_grid=None, k_folds=5):
    """The per-lambda loop that grid_search_lambda replaced, kept as its oracle."""
    n = features.shape[0]
    lam_grid = default_cv_grid() if lam_grid is None else np.sort(np.asarray(lam_grid, dtype=float))
    sizes = np.full(k_folds, n // k_folds)
    sizes[: n % k_folds] += 1
    edges = np.concatenate([[0], np.cumsum(sizes)])

    gram = features @ features.T
    mse = np.zeros(lam_grid.size)
    for lo, hi in [(int(edges[i]), int(edges[i + 1])) for i in range(k_folds)]:
        val_idx = np.arange(lo, hi)
        train_idx = np.concatenate([np.arange(0, lo), np.arange(hi, n)])
        m = train_idx.size
        k_tt = gram[np.ix_(train_idx, train_idx)]
        k_vt = gram[np.ix_(val_idx, train_idx)]
        evals, evecs = np.linalg.eigh(k_tt)
        evals = np.clip(evals, 0.0, None)
        uty = evecs.T @ labels[train_idx]
        b = k_vt @ evecs
        y_val = labels[val_idx]
        floor = max(evals.max(), 1.0) * np.finfo(float).eps * m
        for i, lam in enumerate(lam_grid):
            denom = evals + m * lam
            coef = np.where(denom > floor, uty / np.maximum(denom, floor), 0.0)
            pred = b @ coef
            mse[i] += float(((pred - y_val) ** 2).sum())
    mse /= n

    best_i = 0
    for i in range(1, lam_grid.size):
        if mse[i] <= mse[best_i]:
            best_i = i
    return float(lam_grid[best_i])


def test_grid_search_picks_the_per_lambda_loop_choice():
    # The CV spec of the mc-curves benchmark: trial 0 of each row, 20 seeds.
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 4000))
    flips = []
    with _openblas._one_blas_thread():
        for seed in range(20):
            for n in (32, 64, 128, 256, 512, 1024):
                X, y = sample_dataset(sp, n, 0.5, trial_seed(seed, n, 0))
                got, want = grid_search_lambda(X, y), _reference_grid_search(X, y)
                if got != want:
                    flips.append((seed, n, want, got))
    assert flips == []


@pytest.mark.parametrize("k_folds", [2, 3, 5])
@pytest.mark.parametrize("n", [5, 7, 23, 64])
def test_grid_search_matches_the_loop_on_uneven_folds(n, k_folds):
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 50))
    X, y = sample_dataset(sp, n, 0.3, trial_seed(1, n, k_folds))
    grid = np.concatenate([[0.0], np.geomspace(1e-6, 10.0, 40)])
    assert grid_search_lambda(X, y, grid, k_folds) == _reference_grid_search(X, y, grid, k_folds)


@pytest.mark.parametrize("grid", [None, [3.0, 0.0, 1e-4, 0.5]])
def test_grid_search_ties_go_to_the_largest_lambda(grid):
    # Zero labels: every lambda predicts zero, so all validation errors tie.
    X, _ = sample_dataset(power_law_spectrum(PowerLawParams(2.0, 0.5, 300)), 64, 0.0, 2)
    largest = default_cv_grid()[-1] if grid is None else max(grid)
    assert grid_search_lambda(X, np.zeros(64), grid) == largest
    assert _reference_grid_search(X, np.zeros(64), grid) == largest


@pytest.mark.parametrize("eigensolver", ["dsyevd", "eigh"])
def test_grid_search_folds_get_the_eigh_bits(monkeypatch, eigensolver):
    features, labels = sample_dataset(power_law_spectrum(PowerLawParams(2.0, 0.5, 300)),
                                      120, 0.5, 4)
    lam = grid_search_lambda(features, labels)
    eigh_overwrite = _openblas._eigh_overwrite
    if eigensolver == "eigh":
        monkeypatch.setattr(_openblas, "_lapack", lambda name: None)
    elif _openblas._lapack("dsyevd") is None:
        pytest.skip("numpy's LAPACK has no scipy_dsyevd_64_")
    same = []

    def compared(block, work=None):
        evals, evecs = np.linalg.eigh(block)
        in_place = eigh_overwrite(block, work)
        same.append(in_place[0].tobytes() == evals.tobytes()
                    and in_place[1].tobytes() == evecs.tobytes())
        return in_place

    monkeypatch.setattr(_openblas, "_eigh_overwrite", compared)
    assert grid_search_lambda(features, labels) == lam
    assert same == [True] * 5


def _searched(monkeypatch, features, labels, grid, k_folds, work=None):
    """grid_search_lambda's choice and the bytes of each fold's squared validation
    residuals, the terms of its mse."""
    folds, square = [], np.square

    def recording(*args, **kwargs):
        out = square(*args, **kwargs)
        folds.append(out.tobytes())
        return out

    with monkeypatch.context() as patch:
        patch.setattr(np, "square", recording)
        lam = grid_search_lambda(features, labels, grid, k_folds, work=work)
    assert len(folds) == k_folds
    return lam, folds


def _fold_terms(features, labels, lam_grid, k_folds):
    """Each fold's squared validation residuals as fresh arrays give them: the
    fancy-indexed blocks and temporaries of the search before it took work.
    Call it on one BLAS thread, as the search runs."""
    n, gram, folds = features.shape[0], features @ features.T, []
    for val_idx in np.array_split(np.arange(n), k_folds):
        val = slice(val_idx[0], val_idx[-1] + 1)
        train_idx = np.delete(np.arange(n), val)
        m = train_idx.size
        evals, evecs = _openblas._eigh_overwrite(gram[np.ix_(train_idx, train_idx)])
        evals = np.clip(evals, 0.0, None)
        uty = evecs.T @ labels[train_idx]
        b = gram[val, train_idx] @ evecs
        floor = max(evals.max(), 1.0) * np.finfo(float).eps * m
        coef = evals[:, None] + m * lam_grid
        dropped = coef <= floor
        coef = uty[:, None] / np.maximum(coef, floor)
        coef[dropped] = 0.0
        folds.append(((b @ coef - labels[val, None]) ** 2).tobytes())
    return folds


@pytest.mark.parametrize("eigensolver", ["dsyevd", "eigh"])
@pytest.mark.parametrize("work", ["separate", "features", "arrays-only", "too-small"])
@pytest.mark.parametrize("k_folds", [2, 3, 5])
@pytest.mark.parametrize("n", [5, 7, 23, 64, 256])
def test_grid_search_in_a_work_buffer_keeps_every_bit(monkeypatch, n, k_folds, work,
                                                      eigensolver):
    # At p = 3n + 64 an n x p buffer holds every fold's arrays and the
    # eigensolver's workspace for the 41-point grid; "features" searches in the
    # design's own buffer, as learning_curve does.  n^2 + 41 n doubles hold a
    # fold's arrays but not its workspace, whose 2 m^2 exceed v^2.
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 3 * n + 64))
    grid = np.concatenate([[0.0], np.geomspace(1e-6, 10.0, 40)])
    seed = trial_seed(3, n, k_folds)
    if eigensolver == "eigh":
        monkeypatch.setattr(_openblas, "_lapack", lambda name: None)
    want = _searched(monkeypatch, *sample_dataset(sp, n, 0.3, seed), grid, k_folds)
    with _openblas._one_blas_thread():
        assert want[1] == _fold_terms(*sample_dataset(sp, n, 0.3, seed), grid, k_folds)
    features, labels = sample_dataset(sp, n, 0.3, seed)
    buffer = {"separate": np.full(n * sp.p, np.nan), "features": features,
              "arrays-only": np.full(n * n + n * grid.size, np.nan),
              "too-small": np.full(n, np.nan)}[work]
    before = buffer.copy()
    assert _searched(monkeypatch, features, labels, grid, k_folds, buffer) == want
    # Only a buffer too small for the first fold is left as it was.
    assert np.array_equal(buffer, before, equal_nan=True) == (work == "too-small")


@pytest.mark.parametrize("offset", [0, 1, 3])
def test_eigh_overwrite_takes_its_workspace_from_work(offset):
    if _openblas._lapack("dsyevd") is None:
        pytest.skip("numpy's LAPACK has no scipy_dsyevd_64_")
    x = np.random.default_rng(offset).standard_normal((60, 40))
    gram = x @ x.T
    want = [a.tobytes() for a in _openblas._eigh_overwrite(gram.copy())]
    work, small = np.full(offset + 3 * 60 * 60, np.nan)[offset:], np.full(60, np.nan)
    for buffer in (work, small):
        assert [a.tobytes() for a in _openblas._eigh_overwrite(gram.copy(), buffer)] == want
    assert not np.isnan(work).all() and np.isnan(small).all()
    for bad in (np.empty((60, 200)), np.empty(20000, dtype=np.float32), np.empty(40000)[::2]):
        with pytest.raises(ValueError):
            _openblas._eigh_overwrite(gram.copy(), bad)
    with pytest.raises(ValueError):
        both = np.empty(60 * 60 + 20000)
        _openblas._eigh_overwrite(both[:3600].reshape(60, 60), both)


# Peak memory of one search on 1024 x 3000 data, above what was resident
# before it, in units of one n x n float64 array; VmHWM as in test_dataspec's
# probe.  With work the search may use the data's own buffer, as learning_curve
# does.
_SEARCH_MEMORY_PROBE = """
import os, sys
import numpy as np
from krr_regimes import simulator
n = 1024
rng = np.random.default_rng(0)
features, labels = rng.standard_normal((n, 3000)), rng.standard_normal(n)
with open("/proc/self/statm") as f:
    before = int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
work = features if sys.argv[1] == "work" else None
simulator.grid_search_lambda(features, labels, work=work)
with open("/proc/self/status") as f:
    peak = next(int(line.split()[1]) * 1024 for line in f if line.startswith("VmHWM:"))
print((peak - before) / (n * n * 8))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self")
def test_grid_search_peak_memory():
    if _openblas._lapack("dsyevd") is None:
        pytest.skip("numpy's LAPACK has no scipy_dsyevd_64_; eigh needs more memory")
    env = {**os.environ, "PYTHONPATH": str(Path(simulator.__file__).resolve().parents[1])}
    peak = {}
    for mode in ("work", "none"):
        proc = subprocess.run([sys.executable, "-c", _SEARCH_MEMORY_PROBE, mode], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        peak[mode] = float(proc.stdout)
    # Measured on x86-64: 1.8 with work (the Gram matrix, 1, and OpenBLAS's
    # buffers), 5.8 without, where each fold allocates its arrays.
    assert peak["work"] <= 2.2, peak
    assert peak["none"] <= 6.2, peak


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


@pytest.mark.parametrize("x, y, cause", [
    ([10, 20, 40], [1.0, math.nan, 0.5], "y holds nan"),
    ([10, 20, 40], [1.0, math.inf, 0.5], "y holds inf"),
    ([10, math.nan, 40], [1.0, 0.7, 0.5], "x holds nan"),
    ([10, 20, math.inf], [1.0, 0.7, 0.5], "x holds inf"),
])
def test_fit_loglog_slope_rejects_non_finite_values(x, y, cause):
    with pytest.raises(DegenerateWindowError, match=cause):
        fit_loglog_slope(x, y)


def test_curve_csv_roundtrip(tmp_path):
    cfg = _config(trials=3, sigma=0.1)
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


@pytest.mark.parametrize("n_values, sigma", [
    ((), 0.1), ((10,), math.nan), ((10,), math.inf), ((10,), -1.0)],
    ids=["no-sample-counts", "sigma-nan", "sigma-inf", "sigma-negative"])
def test_sim_config_rejects_an_empty_curve_or_a_bad_noise_level(n_values, sigma):
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 10))
    with pytest.raises(InvalidParameterError):
        SimConfig(spectrum=sp, n_values=n_values, sigma=sigma,
                  lam_schedule=LamSchedule("fixed", lam=0.0), trials=1, master_seed=0)


@pytest.mark.parametrize("kind, key, value", [
    ("fixed", "lam", math.inf), ("fixed", "lam", -1.0),
    ("power", "lambda0", math.inf), ("power", "lambda0", 0.0),
    ("power", "ell", -math.inf)])
def test_lam_schedule_rejects_a_non_finite_or_out_of_range_value(kind, key, value):
    with pytest.raises(InvalidParameterError):
        LamSchedule(kind, **{key: value})


def test_lam_schedule_keeps_ell_inf_as_zero_ridge():
    assert LamSchedule("power", ell=math.inf).lam_at(100) == 0.0


@pytest.mark.parametrize("schedule, n", [
    (LamSchedule("fixed", lam=1e308), 10),
    (LamSchedule("power", ell=-300.0), 100),  # n^-ell itself overflows
    (LamSchedule("power", lambda0=1e300, ell=-10.0), 10),  # lambda0 * n^-ell overflows
    (LamSchedule("power", lambda0=1e300, ell=-8.0), 10)],  # only n * lam overflows
    ids=["fixed", "power-overflow", "power-product", "power-times-n"])
def test_lam_schedule_rejects_a_ridge_whose_n_times_lam_is_not_finite(schedule, n):
    assert math.isfinite(schedule.lam_at(1))
    with pytest.raises(InvalidParameterError, match=rf"n={n} is not finite") as err:
        schedule.lam_at(n)
    assert repr(schedule) in str(err.value)


def test_learning_curve_refuses_a_non_finite_ridge_before_any_draw(monkeypatch):
    # Row n = 10 is fine (lam = 1e300); row n = 100 overflows, and no trial runs.
    def no_draw(*args):
        raise AssertionError("a design was drawn before every ridge was checked")

    monkeypatch.setattr(simulator, "sample_dataset", no_draw)
    with pytest.raises(InvalidParameterError, match="n=100"):
        learning_curve(_config(n_values=(10, 100), lam_schedule=LamSchedule("power",
                                                                            ell=-300.0)))
