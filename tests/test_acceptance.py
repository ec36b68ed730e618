"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
on the console (they are emitted to the real stdout so they also survive
pytest's capture).  Every tolerance is pinned here; nothing is calibrated at
run time.
"""

import itertools
import sys
import time

import numpy as np
import pytest

from krr_regimes.cli import main as cli_main
from krr_regimes.dataspec import (
    KernelSpec,
    cumulative_tails,
    estimate_alpha_r,
    feature_decomposition,
    gram_matrix,
)
from krr_regimes.regimes import noise_crossover_n, regularization_crossover_n
from krr_regimes.simulator import (
    LamSchedule,
    SimConfig,
    fit_loglog_slope,
    learning_curve,
    sample_dataset,
)
from krr_regimes.spectrum import PowerLawParams, power_law_spectrum
from krr_regimes.theory import excess_error_closed, optimal_lambda, solve_fixed_point


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, file=sys.__stdout__, flush=True)


def _theory_curve(spectrum, ns, sigma, lam_of_n):
    return np.array([excess_error_closed(int(round(n)), lam_of_n(float(n)), sigma,
                                         spectrum).total for n in ns])


@pytest.fixture(scope="module")
def big_spectra():
    # shared by criteria 3, 4, 5, 7; truncation far above every n window used
    return {
        (2.0, 0.5): power_law_spectrum(PowerLawParams(2.0, 0.5, 1_000_000)),
        (2.0, 1.5): power_law_spectrum(PowerLawParams(2.0, 1.5, 1_000_000)),
        (1.5, 0.25): power_law_spectrum(PowerLawParams(1.5, 0.25, 1_000_000)),
        (2.5, 0.5): power_law_spectrum(PowerLawParams(2.5, 0.5, 1_000_000)),
    }


def test_criterion_01_route_equivalence():
    t0 = time.time()
    worst = 0.0
    for alpha, r in itertools.product([1.5, 2.0, 3.0], [0.25, 0.5, 1.5]):
        sp = power_law_spectrum(PowerLawParams(alpha, r, 10_000))
        for sigma, lam in itertools.product([0.0, 0.1, 1.0], [0.0, 1e-3, 1.0]):
            closed = excess_error_closed(200, lam, sigma, sp).total
            fixed = solve_fixed_point(200, lam, sigma, sp)
            assert fixed.converged
            worst = max(worst, abs(closed - fixed.excess) / max(closed, 1e-300))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 60
    _report(1, ok, f"route equivalence over 81 combos, worst rel diff "
                   f"{worst:.2e} (<= 1e-6), {elapsed:.1f}s (< 60s)")
    assert worst <= 1e-6
    assert elapsed < 60


def test_criterion_02_theory_simulation_agreement():
    t0 = time.time()
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 4000))
    ns = (32, 64, 128, 256, 512, 1024)
    worst_rel = 0.0
    failures = []
    for sigma in (0.0, 0.5):
        for sched in (LamSchedule("fixed", lam=0.0),
                      LamSchedule("power", lambda0=1.0, ell=1.0)):
            cfg = SimConfig(spectrum=sp, n_values=ns, sigma=sigma,
                            lam_schedule=sched, trials=100, master_seed=2024)
            for row in learning_curve(cfg).rows:
                se = row.std_excess / np.sqrt(row.trials)
                tolerance = max(3 * se, 0.1 * row.theory_excess)
                dev = abs(row.mean_excess - row.theory_excess)
                worst_rel = max(worst_rel, dev / row.theory_excess)
                if dev > tolerance:
                    failures.append((sigma, sched.kind, row.n, dev, tolerance))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 600
    _report(2, ok, f"theory vs simulation (24 curve points, 100 trials), worst "
                   f"rel dev {worst_rel:.3f} within max(3 se, 10%), "
                   f"{elapsed:.0f}s (< 600s); failures: {failures}")
    assert not failures
    assert elapsed < 600


def test_criterion_03_green_slopes(big_spectra):
    ns = np.unique(np.geomspace(1e2, 1e3, 10).astype(int))
    results = {}
    for (alpha, r) in [(2.0, 0.5), (2.0, 1.5), (1.5, 0.25)]:
        expected = -2.0 * alpha * min(r, 1.0)
        tot = _theory_curve(big_spectra[(alpha, r)], ns, 0.0, lambda n: 0.0)
        slope, _ = fit_loglog_slope(ns, tot)
        results[(alpha, r)] = (slope, expected)
    ok = all(abs(s - e) <= 0.1 for s, e in results.values())
    detail = ", ".join(f"(a={a},r={r}): {s:+.3f} vs {e:+.2f}"
                       for (a, r), (s, e) in results.items())
    _report(3, ok, f"noiseless ridgeless slopes within ±0.1: {detail}")
    for slope, expected in results.values():
        assert slope == pytest.approx(expected, abs=0.1)


def test_criterion_04_red_plateau(big_spectra):
    sigma = 0.5
    last_decade = np.unique(np.geomspace(1e3, 1e4, 8).astype(int))
    results = {}
    for (alpha, r) in [(2.0, 0.5), (2.0, 1.5), (1.5, 0.25)]:
        tot = _theory_curve(big_spectra[(alpha, r)], last_decade, sigma, lambda n: 0.0)
        slope, _ = fit_loglog_slope(last_decade, tot)
        height = tot[-1]
        results[(alpha, r)] = (slope, height)
    ok = all(-0.1 < s < 0.02 and sigma ** 2 / 10 <= h <= sigma ** 2 * 10
             for s, h in results.values())
    detail = ", ".join(f"(a={a},r={r}): slope {s:+.4f}, height/sigma^2 {h/sigma**2:.2f}"
                       for (a, r), (s, h) in results.items())
    _report(4, ok, f"noisy ridgeless plateau over the last decade: {detail}")
    for slope, height in results.values():
        assert -0.1 < slope < 0.02
        assert sigma ** 2 / 10 <= height <= sigma ** 2 * 10


def test_criterion_05_regularized_slopes_and_crossover(big_spectra):
    sp = big_spectra[(2.0, 0.5)]
    sigma = 1e-2

    # ell = 1 > 2/3: fast decay before, slow decay after the noise crossover
    predicted = noise_crossover_n(2.0, 0.5, sigma, 1.0, 1.0)
    pre_ns = np.geomspace(1e4, 1e6, 7)
    pre, _ = fit_loglog_slope(pre_ns, _theory_curve(sp, pre_ns, sigma, lambda n: 1.0 / n))
    post_ns = np.geomspace(1e9, 1e10, 5)
    post, _ = fit_loglog_slope(post_ns, _theory_curve(sp, post_ns, sigma, lambda n: 1.0 / n))

    dense = np.geomspace(1e6, 1e9, 22)
    tot = _theory_curve(sp, dense, sigma, lambda n: 1.0 / n)
    loc = np.diff(np.log(tot)) / np.diff(np.log(dense))
    mids = np.sqrt(dense[:-1] * dense[1:])
    detected = None
    for i in range(len(loc) - 1):
        if loc[i] <= -0.75 < loc[i + 1]:
            t = (-0.75 - loc[i]) / (loc[i + 1] - loc[i])
            detected = float(np.exp(np.log(mids[i]) + t * np.log(mids[i + 1] / mids[i])))
            break
    factor = detected / predicted if detected else np.inf

    # ell = 0.5 < 2/3: no crossover, constant slope
    flat_ns = np.geomspace(1e4, 1e8, 9)
    flat, _ = fit_loglog_slope(flat_ns, _theory_curve(sp, flat_ns, sigma,
                                                      lambda n: n ** -0.5))

    ok = (abs(pre + 1.0) <= 0.1 and abs(post + 0.5) <= 0.1
          and detected is not None and 1 / 3 <= factor <= 3
          and abs(flat + 0.5) <= 0.1)
    _report(5, ok, f"ell=1: slopes {pre:+.3f} (pre, target -1), {post:+.3f} "
                   f"(post, target -0.5), crossover {detected:.2e} vs predicted "
                   f"{predicted:.2e} (factor {factor:.2f}); ell=0.5: slope "
                   f"{flat:+.3f} (target -0.5 throughout)")
    assert pre == pytest.approx(-1.0, abs=0.1)
    assert post == pytest.approx(-0.5, abs=0.1)
    assert detected is not None and 1 / 3 <= factor <= 3
    assert flat == pytest.approx(-0.5, abs=0.1)


def test_criterion_06_optimal_rates():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 100_000))

    noiseless_ns = np.unique(np.geomspace(1e2, 1e3, 7).astype(int))
    grid0 = np.concatenate([[0.0], np.geomspace(1e-10, 1e2, 13)])
    noiseless = [optimal_lambda(int(n), 0.0, sp, grid0)[1] for n in noiseless_ns]
    slope_noiseless, _ = fit_loglog_slope(noiseless_ns, noiseless)

    noisy_ns = np.geomspace(1e4, 1e6, 9)
    grid = np.geomspace(1e-6, 1e-1, 126)  # 0.04-decade steps
    pairs = [optimal_lambda(int(n), 0.5, sp, grid) for n in noisy_ns]
    slope_excess, _ = fit_loglog_slope(noisy_ns, [e for _, e in pairs])
    slope_lam, _ = fit_loglog_slope(noisy_ns, [l for l, _ in pairs])

    ok = (abs(slope_noiseless + 2.0) <= 0.1 and abs(slope_excess + 2 / 3) <= 0.05
          and abs(slope_lam + 2 / 3) <= 0.07)
    _report(6, ok, f"optimized rates: noiseless excess {slope_noiseless:+.3f} "
                   f"(target -2 ±0.1), noisy excess {slope_excess:+.3f} "
                   f"(target -0.667 ±0.05), optimal lambda {slope_lam:+.3f} "
                   f"(target -0.667 ±0.07)")
    assert slope_noiseless == pytest.approx(-2.0, abs=0.1)
    assert slope_excess == pytest.approx(-2.0 / 3.0, abs=0.05)
    assert slope_lam == pytest.approx(-2.0 / 3.0, abs=0.07)


def test_criterion_07_prefactor_double_crossover(big_spectra):
    # Fig.-8 parameters.  The two unit-constant crossover scales overlap here
    # (the noise crossing lands before the regularization one), so the two
    # detected slope-change points are compared against the two predicted
    # scales as sorted pairs; see the segment analysis in the project notes.
    alpha, r, lam0, ell, sigma = 2.5, 0.5, 1e-4, 1.0, 1e-3
    sp = big_spectra[(2.5, 0.5)]
    ns = np.geomspace(10, 1e8, 16 * 7 + 1)
    tot = _theory_curve(sp, ns, sigma, lambda n: lam0 * n ** -ell)
    ln, ly = np.log(ns), np.log(tot)

    half = 4  # sliding OLS slope over ±quarter decade smooths lattice wobble
    centers = ns[half:len(ns) - half]
    slopes = np.array([np.polyfit(ln[i - half:i + half + 1],
                                  ly[i - half:i + half + 1], 1)[0]
                       for i in range(half, len(ns) - half)])

    def upward_crossing(thresh):
        for i in range(len(slopes) - 1):
            if slopes[i] <= thresh < slopes[i + 1]:
                t = (thresh - slopes[i]) / (slopes[i + 1] - slopes[i])
                return float(np.exp(np.log(centers[i])
                                    + t * np.log(centers[i + 1] / centers[i])))
        return None

    green, blue, orange = -2.5, -1.0, -0.6
    b1 = upward_crossing(0.5 * (green + blue))
    b2 = upward_crossing(0.5 * (blue + orange))
    predicted = sorted([noise_crossover_n(alpha, r, sigma, ell, lam0),
                        regularization_crossover_n(alpha, ell, lam0)])

    guard = np.sqrt(3.0)
    fits = {}
    for name, lo, hi, target in [("green", ns[0], b1 / guard, green),
                                 ("blue", b1 * guard, b2 / guard, blue),
                                 ("orange", b2 * guard, ns[-1], orange)]:
        mask = (ns >= lo) & (ns <= hi)
        slope, _ = fit_loglog_slope(ns[mask], tot[mask])
        fits[name] = (slope, target)

    ratio1 = b1 / predicted[0]
    ratio2 = b2 / predicted[1]
    ok = (all(abs(s - t) <= 0.15 for s, t in fits.values())
          and 1 / 3 <= ratio1 <= 3 and 1 / 3 <= ratio2 <= 3)
    detail = ", ".join(f"{k}: {s:+.3f} vs {t:+.1f}" for k, (s, t) in fits.items())
    _report(7, ok, f"prefactor double crossover: {detail}; boundaries "
                   f"({b1:.0f}, {b2:.0f}) vs predicted ({predicted[0]:.0f}, "
                   f"{predicted[1]:.0f}), factors ({ratio1:.2f}, {ratio2:.2f})")
    for slope, target in fits.values():
        assert slope == pytest.approx(target, abs=0.15)
    assert 1 / 3 <= ratio1 <= 3
    assert 1 / 3 <= ratio2 <= 3


def test_criterion_08_estimation_pipeline():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 3000))
    X, y = sample_dataset(sp, 4000, 0.0, 11)
    gram = gram_matrix(X, KernelSpec("linear", gamma=1.0))
    dec = feature_decomposition(gram, y)
    cap_tail, src_tail = cumulative_tails(dec.eigenvalues, dec.theta_star ** 2)
    est = estimate_alpha_r(cap_tail, src_tail)
    a_err = abs(est.alpha_hat - 2.0) / 2.0
    r_err = abs(est.r_hat - 0.5) / 0.5
    ok = a_err <= 0.10 and r_err <= 0.15
    _report(8, ok, f"planted (2, 0.5) at n_tot=4000: alpha_hat {est.alpha_hat:.3f} "
                   f"({a_err:.1%}, <=10%), r_hat {est.r_hat:.3f} ({r_err:.1%}, <=15%)")
    assert a_err <= 0.10
    assert r_err <= 0.15


def test_criterion_09_decomposition_invariants():
    # The eigenvalues carry eigh's bits, and the teacher reproduces the label
    # moments: sum_k lambda_k^(j+1) theta_k^2 = y^T (K/n)^j y / n.
    worst = {"eig_bits": 0, "moment": 0.0}
    for n in (100, 400, 1000):
        rng = np.random.default_rng(n)
        X = rng.standard_normal((n, 2 * n))
        gram = X @ X.T
        y = rng.standard_normal(n)
        dec = feature_decomposition(gram.copy(), y)
        want = np.linalg.eigh(gram / n)[0][::-1]
        worst["eig_bits"] += int(np.sum(dec.eigenvalues != want))
        power = y.copy()
        for j in range(3):
            moment = float(dec.eigenvalues ** (j + 1) @ dec.theta_star ** 2)
            direct = float(y @ power) / n
            worst["moment"] = max(worst["moment"], abs(moment - direct) / abs(direct))
            power = gram @ power / n
    ok = worst["eig_bits"] == 0 and worst["moment"] <= 1e-8
    _report(9, ok, f"decomposition invariants up to n_tot=1000: eigenvalues differing from "
                   f"eigh's {worst['eig_bits']} (0 allowed), label moments j = 0, 1, 2 "
                   f"{worst['moment']:.2e} relative (<=1e-8)")
    assert worst["eig_bits"] == 0
    assert worst["moment"] <= 1e-8


def test_criterion_10_determinism(tmp_path):
    sim_args = ["simulate", "--alpha", "2", "--r", "0.5", "--sigma", "0.3",
                "--lam", "0", "--p", "1000", "--n", "32,64,128", "--trials", "16",
                "--seed", "7"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert cli_main(sim_args + ["--out", str(paths[0])]) == 0
    assert cli_main(sim_args + ["--out", str(paths[1])]) == 0
    assert cli_main(sim_args + ["--out", str(paths[2])]) == 0
    sim_ok = (paths[0].read_bytes() == paths[1].read_bytes()
              == paths[2].read_bytes())

    th_args = ["theory", "--alpha", "2", "--r", "0.5", "--sigma", "0.1",
               "--ell", "1", "--p", "20000", "--n", "100,1000"]
    ta, tb = tmp_path / "ta.csv", tmp_path / "tb.csv"
    assert cli_main(th_args + ["--out", str(ta)]) == 0
    assert cli_main(th_args + ["--out", str(tb)]) == 0
    theory_ok = ta.read_bytes() == tb.read_bytes()

    ok = sim_ok and theory_ok
    _report(10, ok, f"byte-identical reruns: simulate (three runs) {sim_ok}, "
                    f"theory {theory_ok}")
    assert sim_ok
    assert theory_ok
