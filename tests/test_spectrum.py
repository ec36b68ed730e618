import math
import tracemalloc

import numpy as np
import pytest

from krr_regimes import theory
from krr_regimes.errors import InvalidParameterError
from krr_regimes.spectrum import (
    PowerLawParams,
    Spectrum,
    power_law_spectrum,
    teacher_variance,
)

ZETA3 = 1.2020569031595942854


def test_power_law_values_alpha2_r05():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 3))
    np.testing.assert_allclose(sp.eigenvalues, [1.0, 0.25, 1.0 / 9.0], rtol=1e-15)
    np.testing.assert_allclose(sp.eigenvalues * sp.teacher_sq,
                               [1.0, 1.0 / 8.0, 1.0 / 27.0], rtol=1e-15)


def test_power_law_single_mode():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 1))
    assert sp.eigenvalues.tolist() == [1.0]
    assert sp.teacher_sq.tolist() == [1.0]


def test_power_law_mnist_rbf_exponents():
    # alpha=1.65, r=0.097 measured for MNIST with an RBF kernel.
    sp = power_law_spectrum(PowerLawParams(1.65, 0.097, 2))
    assert sp.eigenvalues[1] == pytest.approx(2.0 ** -1.65, rel=1e-15)
    assert sp.eigenvalues[1] == pytest.approx(0.3186, abs=5e-5)


@pytest.mark.parametrize("alpha,r,p", [(2.0, 0.5, 1000), (1.65, 0.097, 500),
                                       (3.0, 1.5, 200), (1.2, 0.15, 100)])
def test_product_invariant(alpha, r, p):
    sp = power_law_spectrum(PowerLawParams(alpha, r, p))
    k = np.arange(1, p + 1, dtype=float)
    expected = k ** (-1.0 - 2.0 * r * alpha)
    np.testing.assert_allclose(sp.eigenvalues * sp.teacher_sq, expected, rtol=1e-12)


@pytest.mark.parametrize("alpha,r,p", [(1.0, 0.5, 10), (0.5, 0.5, 10),
                                       (2.0, -0.1, 10), (2.0, 0.5, 0),
                                       (math.nan, 0.5, 10), (math.inf, 0.5, 10),
                                       (2.0, math.nan, 10), (2.0, math.inf, 10),
                                       (2.0, 0.5, 1.5), (2.0, 0.5, math.nan),
                                       (2.0, 0.5, 10 ** 400), (400.0, 0.0, 10)])
def test_invalid_params(alpha, r, p):
    with pytest.raises(InvalidParameterError):
        PowerLawParams(alpha, r, p)


def test_spectrum_validation():
    with pytest.raises(InvalidParameterError):
        Spectrum(np.array([1.0, 2.0]), np.array([1.0, 1.0]))  # increasing
    with pytest.raises(InvalidParameterError):
        Spectrum(np.array([1.0, 0.0]), np.array([1.0, 1.0]))  # zero eigenvalue
    with pytest.raises(InvalidParameterError):
        Spectrum(np.array([1.0]), np.array([1.0, 1.0]))  # length mismatch
    with pytest.raises(InvalidParameterError):
        Spectrum(np.array([1.0]), np.array([-1.0]))  # negative teacher_sq


def test_teacher_variance_zeta3():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 100_000))
    assert teacher_variance(sp) == pytest.approx(ZETA3, abs=1e-8)


def test_teacher_variance_single_and_finite():
    assert teacher_variance(Spectrum(np.array([2.0]), np.array([3.0]))) == 6.0
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 2))
    assert teacher_variance(sp) == pytest.approx(1.125, rel=1e-15)


def test_teacher_variance_monotone_in_p_and_bounded():
    prev = 0.0
    for p in [10, 100, 1000, 10000]:
        val = teacher_variance(power_law_spectrum(PowerLawParams(2.0, 0.5, p)))
        assert val > prev
        prev = val
    assert prev < ZETA3  # zeta(1 + 2 r alpha) bound for r > 0


def _todays_arrays(alpha, r, p):
    k = np.arange(1, p + 1, dtype=float)
    return k ** (-alpha), k ** (alpha - 1.0 - 2.0 * r * alpha)


@pytest.mark.parametrize("alpha,r,p", [(2.0, 0.5, 4000), (1.65, 0.097, 100_000),
                                       (3.0, 0.0, 1), (1.05, 1.5, 20_001)])
def test_law_spectrum_arrays_and_head_prefixes_are_bit_for_bit(monkeypatch, alpha, r, p):
    eig, tsq = _todays_arrays(alpha, r, p)
    sp = power_law_spectrum(PowerLawParams(alpha, r, p))
    assert sp.eigenvalues.tobytes() == eig.tobytes()
    assert sp.teacher_sq.tobytes() == tsq.tobytes()
    # Every prefix the spectral sums read, on a spectrum whose prefix grows.
    reads = []
    head = Spectrum._head
    monkeypatch.setattr(Spectrum, "_head", lambda self, k: reads.append(head(self, k)) or reads[-1])
    fresh = power_law_spectrum(PowerLawParams(alpha, r, p))
    for n in (10, 100, 1000):
        for lam in (0.0, 1e-6, 1e-2):
            theory.excess_error_closed(n, lam, 0.5, fresh)
    theory.solve_fixed_point(100, 1e-3, 0.1, fresh)
    assert len(reads) > 10
    for got_eig, got_tsq in reads:
        assert got_eig.tobytes() == eig[:got_eig.size].tobytes()
        assert got_tsq.tobytes() == tsq[:got_tsq.size].tobytes()


def test_law_spectrum_closed_forms_match_its_arrays():
    for alpha, r, p in ((2.0, 0.5, 100_000), (1.5, 0.0, 20_000), (3.0, 1.5, 7), (1.1, 0.25, 50)):
        sp = power_law_spectrum(PowerLawParams(alpha, r, p))
        arrays = Spectrum(sp.eigenvalues, sp.teacher_sq)
        assert arrays.law is None
        assert sp.trace() == pytest.approx(arrays.trace(), rel=1e-14)
        assert teacher_variance(sp) == pytest.approx(teacher_variance(arrays), rel=1e-14)


def test_law_spectrum_theory_at_p_1e8_builds_no_arrays():
    # The arrays would take 1.6 GB; the theory route reads only the head.
    tracemalloc.start()
    try:
        sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 100_000_000))
        for n in (100, 1000, 10_000):
            for lam in (0.0, 1e-3):
                assert theory.excess_error_closed(n, lam, 0.5, sp).total > 0
        assert theory.solve_fixed_point(1000, 1e-3, 0.5, sp).converged
        assert teacher_variance(sp) == pytest.approx(ZETA3, rel=1e-15)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64e6
