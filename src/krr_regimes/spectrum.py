"""Covariance spectra and teacher coefficient sequences.

A spectrum couples a non-increasing sequence of positive covariance
eigenvalues with the squared teacher coefficients expressed in the same
eigenbasis.  Spectra are either synthetic (capacity/source power laws with
unit prefactor) or empirical (given as arrays, such as the modes of a
dataset's feature decomposition).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

# Truncation defaults: simulation-facing callers keep the feature space small
# enough to sample, theory-facing callers push the truncation one decade further.
DEFAULT_P_SIMULATION = 10_000
DEFAULT_P_THEORY = 100_000


@dataclass(frozen=True)
class PowerLawParams:
    """Capacity/source power-law parameters.

    alpha : capacity exponent of the eigenvalue decay, finite and above 1.
    r     : source exponent measuring teacher alignment, finite and non-negative.
    p     : truncation dimension of the feature space, an integer in [1, 2^53]
            (mode indices are exact floats) whose eigenvalue p^-alpha does not
            underflow to zero.

    These checks cover every mode of the spectrum, which therefore needs no
    check of its own.
    """

    alpha: float
    r: float
    p: int

    def __post_init__(self):
        if not 1 < self.alpha < math.inf:
            raise InvalidParameterError(
                f"capacity exponent must be finite and > 1, got {self.alpha}")
        if not 0 <= self.r < math.inf:
            raise InvalidParameterError(
                f"source exponent must be finite and >= 0, got {self.r}")
        if not (1 <= self.p <= 2 ** 53 and float(self.p).is_integer()):
            raise InvalidParameterError(
                f"truncation dimension must be an integer >= 1, got {self.p}")
        if not float(self.p) ** -self.alpha > 0:
            raise InvalidParameterError(
                f"eigenvalue p^-alpha underflows to zero at p={self.p}, alpha={self.alpha}")


class Spectrum:
    """Eigenvalues and squared teacher coefficients, sorted by decreasing eigenvalue.

    Teacher coefficients are stored squared: no operation in this package
    needs their sign, and the simulator fixes the sign positive when an
    explicit vector is required.

    law is the (alpha, r) of a spectrum built by ``power_law_spectrum``, whose
    every mode k has eigenvalue k^-alpha and eigenvalue * teacher_sq =
    k^-(1 + 2 r alpha); the theory route sums such spectra beyond the first
    modes in closed form.  It is None for spectra given as arrays.  A law
    spectrum computes mode values only as far as they are read: its full
    arrays are built on the first read of ``eigenvalues`` or ``teacher_sq``.
    """

    def __init__(self, eigenvalues, teacher_sq):
        eig = np.asarray(eigenvalues, dtype=float)
        tsq = np.asarray(teacher_sq, dtype=float)
        if eig.ndim != 1 or tsq.ndim != 1:
            raise InvalidParameterError("spectrum arrays must be one-dimensional")
        if eig.size == 0:
            raise InvalidParameterError("spectrum must be non-empty")
        if eig.size != tsq.size:
            raise InvalidParameterError(
                f"eigenvalues (len {eig.size}) and teacher_sq (len {tsq.size}) must have equal length"
            )
        if not np.all(eig > 0):
            raise InvalidParameterError("eigenvalues must be strictly positive")
        if np.any(np.diff(eig) > 0):
            raise InvalidParameterError("eigenvalues must be sorted non-increasing")
        if not np.all(tsq >= 0):
            raise InvalidParameterError("squared teacher coefficients must be non-negative")
        self._p = int(eig.size)
        self._law = None
        self._modes = (eig, tsq)

    @classmethod
    def _of_law(cls, law: tuple[float, float], p: int) -> "Spectrum":
        """The power-law spectrum of law = (alpha, r) on modes 1..p, with no mode built."""
        spectrum = cls.__new__(cls)
        spectrum._p = int(p)
        spectrum._law = law
        spectrum._modes = (np.empty(0), np.empty(0))
        return spectrum

    @property
    def p(self) -> int:
        return self._p

    @property
    def law(self) -> tuple[float, float] | None:
        return self._law

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._head(self._p)[0]

    @property
    def teacher_sq(self) -> np.ndarray:
        return self._head(self._p)[1]

    def _head(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues, teacher_sq) of modes 1..k.

        A law spectrum keeps a computed prefix and at least doubles it when a
        read goes past its end, so repeated reads cost O(k) in total.  Two
        threads growing it at once both compute the same values; either
        result may stay.
        """
        eig, tsq = self._modes
        if eig.size < k:
            eig, tsq = self._modes = _law_modes(self._law, min(self._p, max(k, 2 * eig.size)))
        return eig[:k], tsq[:k]

    def trace(self) -> float:
        """Sum of the eigenvalues, in closed form for a law spectrum."""
        if self._law is None:
            return float(self.eigenvalues.sum())
        return float(_power_sums(np.array([self._law[0]]), 1, self._p)[0])

    def __repr__(self) -> str:
        return f"Spectrum(p={self._p}, law={self._law})"


def power_law_spectrum(params: PowerLawParams) -> Spectrum:
    """Spectrum with eigenvalues k^-alpha and teacher satisfying
    eigenvalue * teacher_sq = k^-(1 + 2 r alpha) for k = 1..p."""
    return Spectrum._of_law((params.alpha, params.r), params.p)


def _law_modes(law: tuple[float, float], count: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and teacher_sq of modes 1..count of the power law law = (alpha, r)."""
    alpha, r = law
    k = np.arange(1, count + 1, dtype=float)
    # teacher_sq * eigenvalue = k^-(1 + 2 r alpha) exactly, so
    # teacher_sq = k^(alpha - 1 - 2 r alpha)
    return k ** (-alpha), k ** (alpha - 1.0 - 2.0 * r * alpha)


def teacher_variance(spectrum: Spectrum) -> float:
    """Second moment of the noiseless target: sum of eigenvalue * teacher_sq.

    A law spectrum sums k^-(1 + 2 r alpha) in closed form.  Other spectra
    are summed in ascending term order (largest mode index first) to limit
    floating-point cancellation on long spectra.
    """
    if spectrum.law is not None:
        alpha, r = spectrum.law
        return float(_power_sums(np.array([1.0 + 2.0 * r * alpha]), 1, spectrum.p)[0])
    terms = spectrum.eigenvalues * spectrum.teacher_sq
    return float(terms[::-1].sum())


# Euler-Maclaurin power sums.  c_i = B_2i / (2i)!, i = 1..12, from the
# Bernoulli numbers B_2i given as numerator and denominator.
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
              (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
              (-236364091, 2730))
_EM_C = np.array([num / (den * math.factorial(2 * i))
                  for i, (num, den) in enumerate(_BERNOULLI, start=1)])
# An end x of the sum contributes x^(1-s) times its bracket: f(x)/2 = x^-1 / 2
# and, for i = 1..12, c_i (s)_{2i-1} x^-2i, added at the start b and
# subtracted at the end p.
_EM_POWERS = -np.array([1.0, *range(2, 2 * _EM_C.size + 1, 2)])
_EM_SIGNS = np.array([[0.5] + [1.0] * _EM_C.size, [0.5] + [-1.0] * _EM_C.size])


def _em_table(s: np.ndarray) -> np.ndarray:
    """Per-exponent constants of _power_sums, one row per exponent s:
    1 - s, -1/(s - 1) (0 at s = 1), then 1 and c_i (s)_{2i-1}, i = 1..12,
    with (s)_m the rising factorial."""
    rising = np.cumprod(s[:, None] + np.arange(2 * _EM_C.size - 1), axis=1)
    neg_inv = np.divide(-1.0, s - 1.0, out=np.zeros(s.size), where=s != 1.0)
    return np.column_stack([1.0 - s, neg_inv, np.ones(s.size), rising[:, ::2] * _EM_C])


def _power_sums(s: np.ndarray, a: int, p: int, table: np.ndarray | None = None) -> np.ndarray:
    """sum_{k=a..p} k^-s for each of the increasing exponents s >= 1.

    The terms k = a..b-1 are summed directly, smallest first; the rest,
    k = b..p, is the Euler-Maclaurin sum: the integral, both end corrections
    and 12 Bernoulli terms (Johansson 2015, arXiv 1309.2877).  Term i of the
    series shrinks by about ((s + 2i) / (2 pi b))^2 per step, so with
    b >= 0.82 (s + 24) the remainder after term 12 is below 2e-17 of the
    sum for every exponent.  Each end's x^(1-s) is factored out of its
    bracket: the sum is at most about b^(1-s) once s >= 2, so it keeps full
    precision wherever it is a normal float.  table is _em_table(s), passed
    by callers that reuse their exponents.
    """
    b = max(a, math.ceil(0.82 * (s[-1] + 24.0)))
    sums = np.zeros(s.size)
    if b > a:
        k = np.arange(min(b, p + 1) - 1, a - 1, -1, dtype=float)
        sums += (k ** -s[:, None]).sum(axis=1)
    if b > p:
        return sums
    if table is None:
        table = _em_table(s)
    log_ratio = math.log(p / b)
    # (b^(1-s) - p^(1-s)) / (s - 1) = b^(1-s) * integral, log(p/b) at s = 1
    integral = np.expm1(table[:, 0] * log_ratio) * table[:, 1]
    if s[0] == 1.0:
        integral[0] = log_ratio
    ends = np.array([[b], [p]], dtype=float)
    scale = ends ** table[:, 0]
    brackets = (ends ** _EM_POWERS * _EM_SIGNS) @ table[:, 2:].T
    sums += scale[0] * (integral + brackets[0]) + scale[1] * brackets[1]
    return sums
