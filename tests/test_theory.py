import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krr_regimes import theory
from krr_regimes.errors import DegenerateDenominatorError, InvalidParameterError, \
    NonConvergenceError
from krr_regimes.simulator import excess_error_empirical, ridge_fit, sample_dataset, \
    trial_seed
from krr_regimes.spectrum import PowerLawParams, Spectrum, power_law_spectrum, \
    teacher_variance
from krr_regimes.theory import (
    excess_error_closed,
    optimal_lambda,
    solve_fixed_point,
    solve_z,
)

# Frozen by the two independent oracles below (bisection and damped map
# iteration agree to < 1e-10 relative).
Z_ORACLE_A2_N100 = 0.02440920473175894


def _oracle_gap(z, n, lam, eig):
    zeta = z / n
    return z - n * lam - zeta * float(np.sum(eig / (zeta + eig)))


def _oracle_bisect(n, lam, eig, lo, hi, iters=200):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if _oracle_gap(mid, n, lam, eig) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _oracle_map_iteration(n, lam, eig, z0, iters=20000, rtol=1e-13):
    z = z0
    for _ in range(iters):
        zeta = z / n
        z_new = n * lam + zeta * float(np.sum(eig / (zeta + eig)))
        if abs(z_new - z) <= rtol * z_new:
            return z_new
        z = z_new
    return z


def test_solve_z_regularization_dominated():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 10_000))
    sol = solve_z(100, 1.0, sp)
    assert sol.z == pytest.approx(100.0, rel=0.05)
    assert sol.branch == "regularization"
    assert sol.residual <= 1e-10 * max(1.0, sol.z)


def test_solve_z_against_independent_oracles():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 100_000))
    eig = sp.eigenvalues
    n = 100
    z_bisect = _oracle_bisect(n, 0.0, eig, 1e-12, 1.0)
    z_map = _oracle_map_iteration(n, 0.0, eig, z0=float(n) ** (1.0 - 2.0))
    assert z_bisect == pytest.approx(z_map, rel=1e-8)
    assert z_bisect == pytest.approx(Z_ORACLE_A2_N100, rel=1e-8)
    sol = solve_z(n, 0.0, sp)
    assert sol.z == pytest.approx(z_bisect, rel=1e-8)
    assert sol.branch == "spectral"


def test_solve_z_scaling_exponent():
    # log z vs log n slope approaches 1 - alpha in the ridgeless regime.
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 100_000))
    ns = [100, 316, 1000, 3162, 10_000]
    zs = [solve_z(n, 0.0, sp).z for n in ns]
    slope = np.polyfit(np.log(ns), np.log(zs), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.02)


def test_solve_z_monotone_in_lambda():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 5000))
    zs = [solve_z(200, lam, sp).z for lam in [0.0, 1e-6, 1e-4, 1e-2, 1.0, 100.0]]
    assert all(b >= a for a, b in zip(zs, zs[1:]))


def test_solve_z_interpolation_degenerate():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 50))
    sol = solve_z(100, 0.0, sp)
    assert sol.z == 0.0
    assert sol.branch == "interpolation"


def test_newton_root_matches_bisection():
    for p in (2000, 100_000):
        for alpha in (1.5, 2.0, 3.0):
            sp = power_law_spectrum(PowerLawParams(alpha, 0.5, p))
            eig = sp.eigenvalues
            for n in (10, 300, 1000):
                for lam in (0.0, 1e-9, 1e-4, 1.0):
                    sol = solve_z(n, lam, sp)
                    want = _oracle_bisect(n, lam, eig, max(n * lam, 1e-300),
                                          n * lam + eig.sum() + 1.0)
                    assert sol.z == pytest.approx(want, rel=1e-13), (p, alpha, n, lam)
                    assert sol.residual <= 1e-10 * max(1.0, sol.z)
                    ratio = eig / (sol.z / n + eig)
                    assert sol.df2 == pytest.approx(ratio[::-1] @ ratio[::-1], rel=1e-12)


def test_newton_iteration_that_keeps_moving_or_stalls_raises(monkeypatch):
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 1000))
    n, lam = 100, 1e-3

    def creeping(zeta, spectrum, kernels):
        # Every step lowers z by only 0.1%: the step bound must end it.
        z = n * zeta
        return [(z - n * lam - 1e-3 * z) / zeta, 0.0]

    def stalled(zeta, spectrum, kernels):
        # A gap of z / 2 with a negative slope: the first step goes up.
        z = n * zeta
        return [(z / 2 - n * lam) / zeta, 2.0 * n]

    def not_a_number(zeta, spectrum, kernels):
        # A NaN gap, whose residual fails every comparison with the tolerance.
        return [math.nan, math.nan]

    for sums in (creeping, stalled, not_a_number):
        monkeypatch.setattr(theory, "_spectral_sums", sums)
        with pytest.raises(NonConvergenceError):
            solve_z(n, lam, sp)


@pytest.mark.parametrize("p", [100, 1_000_000])
def test_a_ridge_whose_n_times_lam_overflows_is_rejected(p):
    # With n * lam = inf the cold start would be inf: a NaN root at small p,
    # and a math domain error in the head size at large p.
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, p))
    assert math.isfinite(solve_z(1, 1e308, sp).z)
    with pytest.raises(InvalidParameterError, match="n=10"):
        solve_z(10, 1e308, sp)
    with pytest.raises(InvalidParameterError):
        excess_error_closed(10, 1e308, 0.0, sp)
    # A grid point that overflows is an error, not a point skipped.
    with pytest.raises(InvalidParameterError):
        optimal_lambda(10, 0.0, sp, [1e300, 1e304, 1e308])


def test_optimal_lambda_solves_through_the_public_names(monkeypatch):
    # The one path the benchmark's tracer wraps: one solve_z and one
    # excess_error_closed per grid point, plus the winner's cold solve.
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 20_000))
    grid = np.concatenate([[0.0], np.geomspace(1e-6, 1.0, 13)])
    want = optimal_lambda(300, 0.5, sp, grid)
    calls = {"solve_z": 0, "excess_error_closed": 0}
    for name in calls:
        def counting(*args, name=name, original=getattr(theory, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(theory, name, counting)
    assert optimal_lambda(300, 0.5, sp, grid) == want
    assert calls == {"solve_z": grid.size + 1, "excess_error_closed": grid.size + 1}


def test_optimal_lambda_warm_sweep_matches_cold_sweep():
    grid = np.concatenate([[0.0], np.geomspace(1e-9, 10.0, 60)])
    for alpha, r, p in ((1.5, 0.25, 20_000), (2.0, 0.5, 100_000), (3.0, 1.5, 100_000)):
        sp = power_law_spectrum(PowerLawParams(alpha, r, p))
        for n, sigma in ((100, 0.0), (300, 0.5), (3000, 0.1)):
            cold = [(excess_error_closed(n, float(lam), sigma, sp).total, -lam)
                    for lam in grid]
            excess_star, neg_lam = min(cold)  # ties go to the larger lam
            assert optimal_lambda(n, sigma, sp, grid) == (-neg_lam, excess_star)
    # With fewer modes than samples a negligible ridge ties lam = 0 exactly.
    short = power_law_spectrum(PowerLawParams(2.0, 0.5, 50))
    assert optimal_lambda(100, 0.5, short, [0.0, 1e-300]) == (1e-300, 0.25)


def test_theory_import_loads_neither_optimize_nor_integrate():
    # No scipy module at all: not on import, and not after the first
    # spectral sum, whose power-law tail is summed by numpy alone.
    code = ("import sys; from krr_regimes import spectrum, theory; "
            "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
            "print(scipy()); "
            "theory.solve_z(100, 0.0, spectrum.power_law_spectrum("
            "spectrum.PowerLawParams(2.0, 0.5, 100_000))); "
            "print(scipy())")
    before, after = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                   text=True, check=True).stdout.splitlines()
    assert before == "[]"
    assert after == "[]"


def test_series_coefficients_match_binomials_bit_for_bit():
    from scipy.special import binom

    j = np.arange(64)
    for q in (1, 2):
        expected = (-1.0) ** j * binom(j + q - 1, j)
        assert theory._SERIES[q].dtype == expected.dtype
        assert theory._SERIES[q].tobytes() == expected.tobytes(), q


def _dropped_tail_bounds(alpha, p1, p2):
    # sum_{k=p1+1..p2} k^-alpha lies between the integrals of x^-alpha over
    # [p1 + 1, p2 + 1] and over [p1, p2].
    integral = lambda lo, hi: (lo ** (1 - alpha) - hi ** (1 - alpha)) / (alpha - 1)
    return integral(p1 + 1.0, p2 + 1.0), integral(float(p1), float(p2))


def test_z_root_converges_at_the_rate_of_the_dropped_tail():
    # Modes p1+1..p2 lower the z-equation's gap at z1 = z(p1) by
    # d = zeta1 sum_k eig_k / (zeta1 + eig_k).  The gap is convex with slope
    # 1 - S2 <= 1, so d <= z(p2) - z1 <= d / (1 - S2), with S2 taken at z1
    # over all p2 modes: at most z1's df2 / n plus sum_k eig_k^2 / (n zeta1^2).
    # Deep in the tail eig_k << zeta1, so d is the dropped eigenvalue tail.
    for alpha in (1.5, 2.0, 3.0):
        for n, lam in ((100, 0.0), (1000, 0.0), (300, 1e-3), (10_000, 1e-6)):
            sols = [solve_z(n, lam, power_law_spectrum(PowerLawParams(alpha, 0.5, p)))
                    for p in (100_000, 1_000_000, 10_000_000)]
            for (p1, z1), (p2, z2) in zip(zip((1e5, 1e6), sols), zip((1e6, 1e7), sols[1:])):
                lo, hi = _dropped_tail_bounds(alpha, p1, p2)
                zeta = z1.z / n
                d_lo = lo * zeta / (zeta + (p1 + 1) ** -alpha)
                squares = p1 ** (1 - 2 * alpha) / (2 * alpha - 1) / zeta ** 2
                slope = 1 - (z1.df2 + squares) / n
                # Each root is accurate to a few units in the last place.
                ulps = 1e-14 * z2.z
                assert d_lo - ulps <= z2.z - z1.z <= hi / slope + ulps, (alpha, n, lam, p1)


_HEADS = (1, 2, 10, 76, 300, 20_317)


def _series_exponents(alpha, r):
    # Every exponent the 64-term series can request: alpha m for the powers
    # m = 1..65 of 1/x, and alpha m + 1 + 2 r alpha for m = 0..64.
    plain = theory._class_exponents(alpha, 0.0)[0][1:]
    weighted = theory._class_exponents(alpha, 1.0 + 2.0 * r * alpha)[0][:-1]
    return plain, weighted


def _fsum_power_sums(s, a, p):
    # Exactly rounded sums of the float terms k^-s, k = a..p; the terms past
    # the point where the rest is below 1e-18 of the sum are left out.
    sums = []
    for x in s:
        stop = p if x < 1.5 else min(p, int(a * 10.0 ** (18.0 / (x - 1.0))) + 1)
        k = np.arange(a, stop + 1, dtype=float)
        sums.append(math.fsum((k ** -x).tolist()))
    return np.array(sums)


def _check_against(want, got, rtol):
    normal = want >= theory._FLOAT_TINY
    # The tail series stops at its first sum out of the normal range.
    assert np.array_equal(got >= theory._FLOAT_TINY, normal)
    # Below about 1e-280 both references lose digits: scipy's zeta (up to
    # 5e-13 relative), and the exact sum once its terms are subnormal.
    kept = want >= 1e-280
    rel = np.abs(got[kept] - want[kept]) / want[kept]
    assert rel.max(initial=0.0) <= rtol, rel.max()


@pytest.mark.parametrize("p,alpha,r,heads", [
    *((20_000, alpha, r, _HEADS[:-1]) for alpha in (1.05, 1.5, 2.0, 3.7, 6.0) for r in (0.0, 0.5)),
    (100_000, 1.05, 0.0, _HEADS), (100_000, 2.0, 0.5, _HEADS), (100_000, 6.0, 1.5, _HEADS),
    (1_000_000, 1.05, 0.0, (1, 76)), (1_000_000, 6.0, 1.5, (1, 76)),
])
def test_power_sums_match_exact_sums(p, alpha, r, heads):
    for s in _series_exponents(alpha, r):
        for a in heads:
            _check_against(_fsum_power_sums(s, a, p), theory._power_sums(s, a, p), 1e-15)


def _zeta_power_sums(s, a, p):
    from scipy.special import digamma, zeta

    ends = zeta(s[:, None], np.array([a, p + 1.0]))
    with np.errstate(invalid="ignore"):  # inf - inf at s = 1
        sums = ends[:, 0] - ends[:, 1]
    if s[0] == 1.0:
        sums[0] = digamma(p + 1) - digamma(a)
    return sums


def test_power_sums_match_hurwitz_zeta_differences():
    for alpha in np.linspace(1.05, 6.0, 12):
        for r in (0.0, 0.25, 0.5, 1.5):
            for s in _series_exponents(alpha, r):
                for p in (20_000, 100_000, 1_000_000):
                    for a in (a for a in _HEADS if a <= p):
                        _check_against(_zeta_power_sums(s, a, p), theory._power_sums(s, a, p),
                                       2e-15)
    # r = 0: the first weighted exponent is exactly 1, the sum a harmonic one.
    assert _series_exponents(2.0, 0.0)[1][0] == 1.0


@pytest.mark.parametrize("alpha,r,a", [(6.0, 0.0, 76), (6.0, 1.5, 76), (3.7, 0.5, 300),
                                       (6.0, 0.25, 300)])
def test_power_sum_series_cut_matches_zeta_near_underflow(alpha, r, a):
    # The sums cross out of the normal float range inside the series, and the
    # series cut lands on the same index as with the Hurwitz zeta values.
    for s in _series_exponents(alpha, r):
        want = _zeta_power_sums(s, a, 100_000) >= theory._FLOAT_TINY
        got = theory._power_sums(s, a, 100_000) >= theory._FLOAT_TINY
        cut = int(np.argmin(want))
        assert 0 < cut and not want[cut:].any()
        assert got[:cut].all() and not got[cut:].any()


def test_power_sums_short_and_empty_ranges():
    s = np.array([1.0, 1.5, 2.0, 40.0])
    for a, p in ((1, 1), (1, 3), (5, 4), (7, 30), (25, 60)):
        k = np.arange(a, p + 1, dtype=float)
        want = np.array([math.fsum((k ** -x).tolist()) for x in s])
        got = theory._power_sums(s, a, p)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


def test_excess_null_predictor_limit():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 10_000))
    dec = excess_error_closed(10, 1e6, 0.0, sp)
    assert dec.total == pytest.approx(teacher_variance(sp), rel=0.01)


def test_noise_variance_exactly_zero_without_noise():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 1000))
    dec = excess_error_closed(100, 1e-3, 0.0, sp)
    assert dec.noise_variance == 0.0
    assert dec.total == dec.sample_variance + dec.noise_variance


def test_decomposition_terms_nonnegative_and_sum():
    sp = power_law_spectrum(PowerLawParams(1.5, 0.25, 5000))
    for sigma, lam in [(0.0, 0.0), (0.5, 0.0), (0.1, 1e-3), (1.0, 1.0)]:
        dec = excess_error_closed(300, lam, sigma, sp)
        assert dec.sample_variance >= 0
        assert dec.noise_variance >= 0
        assert dec.total == dec.sample_variance + dec.noise_variance


def test_closed_form_matches_monte_carlo():
    # Monte-Carlo oracle at alpha=2, r=0.5, sigma=0.1, lam=1e-3, n=200.
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 10_000))
    n, lam, sigma, trials = 200, 1e-3, 0.1, 200
    vals = np.empty(trials)
    for t in range(trials):
        X, y = sample_dataset(sp, n, sigma, trial_seed(20240, n, t))
        w = ridge_fit(X, y, lam)
        vals[t] = excess_error_empirical(w, sp)
    theory = excess_error_closed(n, lam, sigma, sp).total
    stderr = vals.std(ddof=1) / np.sqrt(trials)
    assert abs(vals.mean() - theory) <= 2 * stderr


def test_fixed_point_null_predictor_limit():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 10_000))
    state = solve_fixed_point(10, 1e6, 0.0, sp)
    assert state.converged
    assert abs(state.m) < 1e-4
    assert abs(state.q) < 1e-4
    assert state.excess == pytest.approx(state.rho, rel=0.01)


def test_route_equivalence_single_point():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 10_000))
    closed = excess_error_closed(200, 1e-3, 0.1, sp).total
    fixed = solve_fixed_point(200, 1e-3, 0.1, sp)
    assert fixed.converged
    assert fixed.excess == pytest.approx(closed, rel=1e-6)
    # reported parts stay consistent with the stabilized excess
    assert fixed.excess == pytest.approx(fixed.rho - 2 * fixed.m + fixed.q, abs=1e-12)


def test_fixed_point_one_dimensional_exact():
    # Single mode, lam = 0, no noise: ridge recovers the teacher exactly, and
    # the 1-d analytic formula gives zero excess.
    sp = Spectrum(np.array([1.0]), np.array([1.0]))
    state = solve_fixed_point(1000, 0.0, 0.0, sp)
    assert state.converged
    assert abs(state.excess) < 1e-8
    X, y = sample_dataset(sp, 50, 0.0, 3)
    w_exact = float(X[:, 0] @ y / (X[:, 0] @ X[:, 0]))
    assert w_exact == pytest.approx(1.0, abs=1e-12)


def test_fixed_point_truncation_parameter():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 10_000))
    full = solve_fixed_point(100, 1e-2, 0.1, sp)
    short = power_law_spectrum(PowerLawParams(2.0, 0.5, 100))
    cut = solve_fixed_point(100, 1e-2, 0.1, short)
    assert full.excess != cut.excess
    ref = excess_error_closed(100, 1e-2, 0.1, short).total
    assert cut.excess == pytest.approx(ref, rel=1e-6)


def test_solvers_reject_non_finite_ridge_and_noise():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 100))
    for bad in (np.nan, np.inf):
        for call in (lambda: solve_z(10, bad, sp),
                     lambda: excess_error_closed(10, bad, 0.1, sp),
                     lambda: excess_error_closed(10, 1e-3, bad, sp),
                     lambda: solve_fixed_point(10, bad, 0.1, sp),
                     lambda: solve_fixed_point(10, 1e-3, bad, sp)):
            with pytest.raises(InvalidParameterError):
                call()


def _exact_sums(zeta, sp):
    # Term-by-term reference: df1, df2, the sample sum and the overlap sum.
    eig = sp.eigenvalues
    weight = sp.teacher_sq * eig
    ratio = eig / (zeta + eig)
    comp = zeta / (zeta + eig)
    return np.array([terms[::-1].sum() for terms in
                     (ratio, ratio ** 2, weight * comp ** 2, weight * ratio)])


def test_power_law_tail_matches_exact_sums():
    kernels = (theory._DF1, theory._DF2, theory._SAMPLE, theory._OVERLAP)
    for p in (4000, 100_000, 1_000_000):
        for alpha in (1.5, 2.0, 3.0):
            for r in (0.0, 0.25, 0.5, 1.5):
                sp = power_law_spectrum(PowerLawParams(alpha, r, p))
                # A decade grid, plus zeta putting the first tail mode at
                # K + 1 = p - 2 and p - 3, where the two zeta values cancel.
                zetas = [*np.geomspace(1e-14, 1e2, 17),
                         *(theory._TAIL_X / (p - 2) ** alpha * (1 + 1e-9),
                           theory._TAIL_X / (p - 3) ** alpha * (1 + 1e-9))]
                for zeta in zetas:
                    want = _exact_sums(zeta, sp)
                    got = np.array(theory._spectral_sums(zeta, sp, kernels))
                    assert np.all(np.abs(got - want) <= 1e-12 * want), (p, alpha, r, zeta)
                    # The closed-form tail itself wherever it has two or more
                    # modes, also where _spectral_sums sums a short tail term
                    # by term.
                    head = theory._head_size(zeta, alpha, p)
                    if head < p - 1:
                        heads = theory._head_sums(zeta, sp, head, kernels)
                        tails = theory._power_law_tails(zeta, sp.law, head, p, kernels, heads)
                        assert tails is not None, (p, alpha, r, zeta)
                        split = np.add(heads, tails)
                        assert np.all(np.abs(split - want) <= 1e-12 * want), \
                            (p, alpha, r, zeta)

    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 100_000))
    assert sp.law == (2.0, 0.5)
    arrays = Spectrum(sp.eigenvalues, sp.teacher_sq)
    assert arrays.law is None
    for n, lam, sigma in ((300, 0.0, 0.5), (1000, 1e-3, 0.1)):
        want = excess_error_closed(n, lam, sigma, arrays).total
        assert excess_error_closed(n, lam, sigma, sp).total == pytest.approx(want, rel=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(1.5, 3.0), r=st.floats(0.0, 1.5), n=st.integers(100, 1000),
       lam=st.one_of(st.just(0.0), st.floats(1e-4, 1.0)), sigma=st.floats(0.0, 1.0))
def test_routes_agree_property(alpha, r, n, lam, sigma):
    # Criterion 1's tolerance, at random points of the acceptance domain.
    sp = power_law_spectrum(PowerLawParams(alpha, r, 100_000))
    closed = excess_error_closed(n, lam, sigma, sp).total
    state = solve_fixed_point(n, lam, sigma, sp)
    assert state.converged
    assert state.excess == pytest.approx(closed, rel=1e-6)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(1.5, 3.0), r=st.floats(0.0, 1.5), n=st.integers(100, 1000),
       dn=st.integers(1, 1000), lam=st.floats(1e-4, 1.0), sigma=st.floats(0.0, 1.0))
def test_closed_form_property(alpha, r, n, dn, lam, sigma):
    # The parts are nonnegative and sum exactly to the total, at lam = 0 too;
    # at a fixed ridge in criterion 1's domain more samples never hurt.  (At
    # smaller ridges noise overfitting can make the excess grow with n.)
    sp = power_law_spectrum(PowerLawParams(alpha, r, 100_000))
    for ridge in (0.0, lam):
        dec = excess_error_closed(n, ridge, sigma, sp)
        assert dec.sample_variance >= 0.0 and dec.noise_variance >= 0.0
        assert dec.total == dec.sample_variance + dec.noise_variance
    more = excess_error_closed(n + dn, lam, sigma, sp).total
    assert more <= dec.total * (1 + 1e-12)


def test_excess_monotone_in_n():
    # Holds whenever the sample variance dominates or the ridge is fixed
    # positive; the ridgeless noisy plateau is excluded (see below).
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 20_000))
    for sigma, lam_of_n in [(0.0, lambda n: 0.0), (0.0, lambda n: 1.0 / n),
                            (0.5, lambda n: 1e-2), (0.1, lambda n: 1.0 / n)]:
        ns = np.unique(np.geomspace(10, 3000, 12).astype(int))
        tot = [excess_error_closed(int(n), lam_of_n(int(n)), sigma, sp).total for n in ns]
        diffs = np.diff(tot)
        assert np.all(diffs <= 1e-12 * np.abs(tot[:-1]))


def test_excess_not_monotone_in_ridgeless_plateau():
    # With zero ridge and noise the plateau creeps upward toward its
    # asymptote as n grows (noise overfitting), so blanket monotonicity in
    # n genuinely fails there.
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 20_000))
    ns = np.unique(np.geomspace(30, 3000, 10).astype(int))
    tot = [excess_error_closed(int(n), 0.0, 0.5, sp).total for n in ns]
    assert np.any(np.diff(tot) > 0)


def test_degenerate_denominator_square_interpolation():
    # At p = n and lam = 0, 1 - S2 = 0: the noise term diverges, while without
    # noise both routes interpolate the teacher exactly.
    for n in (1, 10, 100):
        sp = power_law_spectrum(PowerLawParams(2.0, 0.5, n))
        with pytest.raises(DegenerateDenominatorError):
            excess_error_closed(n, 0.0, 0.1, sp)
        with pytest.raises(DegenerateDenominatorError):
            optimal_lambda(n, 0.1, sp, [0.0, 0.0])  # a repeated point is solved once
        with pytest.raises(DegenerateDenominatorError):
            solve_fixed_point(n, 0.0, 0.1, sp)  # the excess would grow every step
        assert excess_error_closed(n, 0.0, 0.0, sp).total == 0.0
        assert optimal_lambda(n, 0.0, sp, [0.0, 0.0, 1.0]) == (0.0, 0.0)
        state = solve_fixed_point(n, 0.0, 0.0, sp)
        assert state.converged and state.excess == 0.0


def test_optimal_lambda_noiseless_plateau_at_zero():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 20_000))
    grid = np.concatenate([[0.0], np.geomspace(1e-10, 10.0, 25)])
    at_zero = excess_error_closed(500, 0.0, 0.0, sp).total
    for lam in grid:
        assert at_zero <= excess_error_closed(500, float(lam), 0.0, sp).total * (1 + 1e-9)
    lam_star, excess_star = optimal_lambda(500, 0.0, sp, grid)
    assert excess_star == pytest.approx(at_zero, rel=1e-9)


def test_optimal_lambda_positive_under_noise():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 20_000))
    grid = np.concatenate([[0.0], np.geomspace(1e-8, 10.0, 50)])
    lam_star, _ = optimal_lambda(300, 1.0, sp, grid)
    assert lam_star > 0.0


def test_optimal_lambda_decay_rate():
    # log lam*(n) slope approaches -alpha / (1 + 2 alpha min(r,1)) = -2/3.
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 100_000))
    grid = np.geomspace(1e-6, 1.0, 121)
    ns = np.geomspace(1e3, 1e5, 5)
    lams = [optimal_lambda(int(n), 0.5, sp, grid)[0] for n in ns]
    slope = np.polyfit(np.log(ns), np.log(lams), 1)[0]
    assert slope == pytest.approx(-2.0 / 3.0, rel=0.10)


def test_optimal_lambda_validation():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 100))
    with pytest.raises(InvalidParameterError):
        optimal_lambda(100, 0.1, sp, [])
    with pytest.raises(InvalidParameterError):
        optimal_lambda(100, 0.1, sp, [-1.0, 0.5])
