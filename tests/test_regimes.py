import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krr_regimes.errors import InvalidParameterError
from krr_regimes.regimes import (
    Region,
    RegimeQuery,
    classify,
    noise_crossover_n,
    noisy_optimum,
    optimal_decay,
    phase_diagram,
    region_exponent,
    regularization_crossover_n,
    write_crossover_lines_csv,
    write_phase_diagram_csv,
)
from krr_regimes.simulator import fit_loglog_slope
from krr_regimes.spectrum import PowerLawParams, power_law_spectrum
from krr_regimes.theory import excess_error_closed


def _q(**kw):
    base = dict(alpha=2.0, r=0.5, sigma=0.1, ell=math.inf, n=10.0, lambda0=1.0)
    base.update(kw)
    return RegimeQuery(**base)


def test_classify_green_before_noise_crossover():
    label = classify(_q(n=5))
    assert label.region is Region.GREEN_NOISELESS_UNREG
    assert label.exponent == 2.0
    assert noise_crossover_n(2.0, 0.5, 0.1, math.inf) == pytest.approx(10.0)


def test_classify_red_after_noise_crossover():
    label = classify(_q(n=100))
    assert label.region is Region.RED_NOISY_UNREG
    assert label.exponent == 0.0


def test_classify_blue_slow_decay():
    # ell = 0.5 < alpha/(1+2 alpha min(r,1)) = 2/3: regularization always
    # mitigates the noise, the crossover disappears.
    for sigma in (0.01, 0.5, 0.9):
        label = classify(_q(sigma=sigma, ell=0.5, n=10 ** 9))
        assert label.region is Region.BLUE_NOISELESS_REG
        assert label.exponent == pytest.approx(0.5)


def test_classify_orange():
    label = classify(_q(sigma=0.5, ell=1.0, n=10 ** 8))
    assert label.region is Region.ORANGE_NOISY_REG
    assert label.exponent == pytest.approx(0.5)


def test_classify_over_regularized():
    label = classify(_q(ell=-0.5, n=100))
    assert label.exponent == 0.0
    assert label.sublabel == "over-regularized"


def test_classify_rejects_bad_query():
    with pytest.raises(InvalidParameterError):
        RegimeQuery(alpha=1.0, r=0.5, sigma=0.1, ell=1.0, n=10)
    with pytest.raises(InvalidParameterError):
        RegimeQuery(alpha=2.0, r=0.5, sigma=0.1, ell=1.0, n=10, lambda0=0.0)
    # NaN in any coordinate and inf in any but ell is rejected at both entry
    # points; +-inf ell is legal
    point = dict(alpha=2.0, r=0.5, sigma=0.1, ell=1.0, n=10.0, lambda0=1.0)
    for key in point:
        for bad in (math.nan,) if key == "ell" else (math.nan, math.inf):
            with pytest.raises(InvalidParameterError):
                RegimeQuery(**{**point, key: bad})
    decay_args = dict(alpha=2.0, r=0.5, sigma=0.1, n=10.0)
    for key in decay_args:
        for bad in (math.nan, math.inf):
            with pytest.raises(InvalidParameterError):
                optimal_decay(**{**decay_args, key: bad})
    for ell in (math.inf, -math.inf):
        assert math.isfinite(classify(RegimeQuery(**{**point, "ell": ell})).exponent)


_REGIONS = {
    Region.GREEN_NOISELESS_UNREG, Region.RED_NOISY_UNREG,
    Region.BLUE_NOISELESS_REG, Region.ORANGE_NOISY_REG,
}


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(alpha=st.floats(1.0, 1e300, exclude_min=True),
       r=st.floats(0.0, 1e300),
       sigma=st.floats(0.0, 1e300),
       ell=st.floats(allow_nan=False),  # every real, and +-inf
       n=st.floats(1.0, 1e300),
       lambda0=st.floats(0.0, 1e300, exclude_min=True))
def test_rate_formulas_property(alpha, r, sigma, ell, n, lambda0):
    label = classify(RegimeQuery(alpha=alpha, r=r, sigma=sigma, ell=ell, n=n, lambda0=lambda0))
    assert label.region in _REGIONS and math.isfinite(label.exponent)
    if label.sublabel == "over-regularized":
        assert ell < 0 and label.exponent == 0.0
    else:
        assert label.exponent == region_exponent(label.region, alpha, r, ell)
    # The paper's balance condition: at ell* the noiseless and the noisy
    # regularized rates both equal the optimal noisy rate.
    ell_star, rate = noisy_optimum(alpha, r)
    for region in (Region.BLUE_NOISELESS_REG, Region.ORANGE_NOISY_REG):
        assert region_exponent(region, alpha, r, ell_star) == pytest.approx(
            rate, rel=1e-12, abs=1e-12)
    # At ell = alpha the regularized noiseless rate meets the ridgeless one.
    assert region_exponent(Region.BLUE_NOISELESS_REG, alpha, r, alpha) \
        == region_exponent(Region.GREEN_NOISELESS_UNREG, alpha, r)


def test_noise_crossover_unregularized():
    assert noise_crossover_n(2.0, 0.5, 0.01, math.inf) == pytest.approx(100.0)


def test_noise_crossover_none_for_slow_decay():
    for sigma in (0.05, 0.5, 0.99):
        assert noise_crossover_n(2.0, 0.5, sigma, 0.5, 1.0) is None


def test_noise_crossover_matches_curve_slope_change():
    # Theory-curve oracle at alpha=2.5, r=0.5, ell=1, lambda0=1e-4,
    # sigma=1e-3: the first slope change of the closed-form curve sits
    # within a factor 3 of the predicted crossover scale.
    predicted = noise_crossover_n(2.5, 0.5, 1e-3, 1.0, 1e-4)
    assert predicted is not None
    sp = power_law_spectrum(PowerLawParams(2.5, 0.5, 200_000))
    ns = np.geomspace(10, 1e5, 33)
    tot = np.array([excess_error_closed(int(n), 1e-4 / n, 1e-3, sp).total for n in ns])
    loc = np.diff(np.log(tot)) / np.diff(np.log(ns))
    mids = np.sqrt(ns[:-1] * ns[1:])
    green = -2.5
    # first point where the local slope has moved half-way off the green decay
    changed = np.nonzero(loc > 0.5 * (green + -1.0))[0]
    assert changed.size
    detected = mids[changed[0]]
    assert predicted / 3 <= detected <= predicted * 3


def test_regularization_crossover_values():
    assert regularization_crossover_n(2.5, 1.0, 1e-4) == pytest.approx(464.158883, rel=1e-6)
    assert regularization_crossover_n(2.0, 3.0, 0.5) is None
    assert regularization_crossover_n(2.0, 1.0, 1.0) == pytest.approx(1.0)
    assert regularization_crossover_n(2.0, 1.0, 2.0) is None


def test_optimal_decay_noiseless():
    dec = optimal_decay(2.0, 0.5, 0.0, 10 ** 12)
    assert dec.zone == "noiseless"
    assert dec.exponent == pytest.approx(2.0)
    assert dec.ell_range == (2.0, math.inf)


def test_optimal_decay_noisy():
    dec = optimal_decay(2.0, 0.5, 0.5, 10 ** 6)
    assert dec.zone == "noisy"
    assert dec.ell_range[0] == pytest.approx(2.0 / 3.0)
    assert dec.exponent == pytest.approx(2.0 / 3.0)


def test_optimal_decay_mnist_rbf_noisy_exponent():
    dec = optimal_decay(1.65, 0.097, 1.0, 10 ** 6)
    assert dec.exponent == pytest.approx(0.2425, abs=2e-4)


def test_optimal_decay_transition_zone():
    dec = optimal_decay(2.0, 0.5, 0.1, 50)  # n1 = 10, n2 = 100
    assert dec.zone == "transition"
    ell_lo = 2.0 / 3.0
    assert dec.ell_range[0] > ell_lo
    assert dec.exponent == pytest.approx(2.0 * 0.5 * dec.ell_range[0])


def test_exponent_continuity_at_branch_boundary():
    # Blue exponent at ell -> alpha equals the green exponent, and orange
    # at ell -> alpha equals red (plateau) with the noisy condition aligned.
    for alpha, r in [(2.0, 0.5), (1.5, 0.25), (3.0, 1.5)]:
        m = min(r, 1.0)
        at = classify(RegimeQuery(alpha=alpha, r=r, sigma=1e-9, ell=alpha, n=100))
        below = classify(RegimeQuery(alpha=alpha, r=r, sigma=1e-9,
                                     ell=alpha * (1 - 1e-12), n=100))
        assert at.exponent == pytest.approx(2 * alpha * m)
        assert below.exponent == pytest.approx(at.exponent)
        # noisy side: exponent (alpha-ell)/alpha -> 0 continuously
        orange = classify(RegimeQuery(alpha=alpha, r=r, sigma=0.9,
                                      ell=alpha * (1 - 1e-12), n=10 ** 9))
        assert orange.exponent == pytest.approx(0.0, abs=1e-10)


def test_saturation_above_r_equals_one():
    for region_kw in [dict(sigma=0.0, ell=math.inf, n=100),
                      dict(sigma=0.0, ell=1.0, n=1000),
                      dict(sigma=0.9, ell=1.0, n=10 ** 9)]:
        a = classify(RegimeQuery(alpha=2.0, r=1.0, **region_kw))
        b = classify(RegimeQuery(alpha=2.0, r=1.5, **region_kw))
        assert a.region == b.region
        assert a.exponent == b.exponent


def test_classify_piecewise_constant():
    rng = np.random.default_rng(42)
    for _ in range(200):
        alpha = rng.uniform(1.1, 3.5)
        r = rng.uniform(0.0, 2.0)
        sigma = rng.uniform(0.0, 1.0)
        ell = rng.choice([math.inf, rng.uniform(0.0, 4.0)])
        n = float(rng.integers(1, 10 ** 6))
        q = RegimeQuery(alpha=alpha, r=r, sigma=sigma, ell=float(ell), n=n)
        crossings = [noise_crossover_n(alpha, r, sigma, q.ell) if sigma > 0 else None,
                     regularization_crossover_n(alpha, q.ell, 1.0)]
        if any(c is not None and abs(n - c) < 1e-8 * c for c in crossings):
            continue
        bumped = RegimeQuery(alpha=alpha, r=r, sigma=sigma, ell=q.ell, n=n * (1 + 1e-9))
        assert classify(q) == classify(bumped)


@pytest.mark.parametrize("region,alpha,r,sigma,ell,window,expected", [
    ("green", 2.0, 0.5, 1e-4, math.inf, (1e2, 1e3), -2.0),
    ("red", 2.0, 0.5, 0.5, math.inf, (1e3, 1e4), 0.0),
    ("blue", 2.0, 0.5, 0.1, 0.5, (1e3, 1e4), -0.5),
    ("orange", 2.0, 0.5, 1.0, 1.0, (1e3, 1e4), -0.5),
])
def test_predicted_exponent_matches_theory_slope(region, alpha, r, sigma, ell, window, expected):
    sp = power_law_spectrum(PowerLawParams(alpha, r, 100_000))
    ns = np.unique(np.geomspace(*window, 8).astype(int))
    lam = (lambda n: 0.0) if math.isinf(ell) else (lambda n: float(n) ** -ell)
    tot = [excess_error_closed(int(n), lam(n), sigma, sp).total for n in ns]
    slope, _ = fit_loglog_slope(ns, tot)
    assert slope == pytest.approx(expected, abs=0.1)
    label = classify(RegimeQuery(alpha=alpha, r=r, sigma=sigma, ell=ell,
                                 n=float(np.sqrt(window[0] * window[1]))))
    assert -label.exponent == pytest.approx(expected, abs=1e-12)


def test_phase_diagram_four_regions_and_lines():
    diagram = phase_diagram(2.0, 0.5, 0.1, 1.0,
                            np.geomspace(1, 1e6, 25), np.linspace(0.0, 4.0, 33))
    regions = {lab.region for row in diagram.labels for lab in row}
    assert regions == set(Region)
    # unit prefactor: the regularization boundary is the horizontal ell = alpha
    assert all(ell == 2.0 for _, ell in diagram.lines.reg_line)
    # vertical part of the noise line at sigma^(-1/(alpha min(r,1)))
    vert = [n for n, ell in diagram.lines.noise_line if ell >= 2.0]
    assert vert and all(n == pytest.approx(10.0) for n in vert)
    assert diagram.lines.optimal_point == (pytest.approx(2.0 / 3.0), pytest.approx(2.0 / 3.0))


def test_phase_diagram_double_crossover_scan():
    # small prefactor, noise below the prefactor scale: green -> blue -> orange
    seq = []
    for n in np.geomspace(1, 1e12, 400):
        lab = classify(RegimeQuery(alpha=2.0, r=0.5, sigma=1e-5, ell=1.0,
                                   n=float(n), lambda0=1e-4))
        if not seq or seq[-1] != lab.region:
            seq.append(lab.region)
    assert seq == [Region.GREEN_NOISELESS_UNREG, Region.BLUE_NOISELESS_REG,
                   Region.ORANGE_NOISY_REG]


def test_phase_diagram_triple_crossover_scan():
    # noise above the prefactor scale, slow decay: green -> red -> orange -> blue
    seq = []
    for n in np.geomspace(1, 1e30, 600):
        lab = classify(RegimeQuery(alpha=2.0, r=0.5, sigma=0.1, ell=0.4,
                                   n=float(n), lambda0=1e-4))
        if not seq or seq[-1] != lab.region:
            seq.append(lab.region)
    assert seq == [Region.GREEN_NOISELESS_UNREG, Region.RED_NOISY_UNREG,
                   Region.ORANGE_NOISY_REG, Region.BLUE_NOISELESS_REG]


def test_phase_diagram_csv_export(tmp_path):
    diagram = phase_diagram(2.0, 0.5, 0.1, 1.0, np.array([10.0, 100.0]),
                            np.array([0.5, 3.0]))
    grid_path = tmp_path / "grid.csv"
    lines_path = tmp_path / "lines.csv"
    write_phase_diagram_csv(diagram, grid_path)
    write_crossover_lines_csv(diagram.lines, lines_path)
    grid_lines = grid_path.read_text().strip().splitlines()
    assert grid_lines[0] == "n,ell,region,exponent"
    assert len(grid_lines) == 1 + 4
    lines_lines = lines_path.read_text().strip().splitlines()
    assert lines_lines[0] == "line_id,n,ell"
    assert any(line.startswith("noise,") for line in lines_lines[1:])
    assert any(line.startswith("regularization,") for line in lines_lines[1:])
