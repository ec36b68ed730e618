"""Covariance spectra and teacher coefficient sequences.

A spectrum couples a non-increasing sequence of positive covariance
eigenvalues with the squared teacher coefficients expressed in the same
eigenbasis.  Spectra are either synthetic (capacity/source power laws with
unit prefactor) or empirical (measured from data and loaded from CSV).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .table import read_table, write_table

# Truncation defaults: simulation-facing callers keep the feature space small
# enough to sample, theory-facing callers push the truncation one decade further.
DEFAULT_P_SIMULATION = 10_000
DEFAULT_P_THEORY = 100_000

_HEADER = ("k", "eigenvalue", "teacher_sq")


@dataclass(frozen=True)
class PowerLawParams:
    """Capacity/source power-law parameters.

    alpha : capacity exponent of the eigenvalue decay, must exceed 1.
    r     : source exponent measuring teacher alignment, non-negative.
    p     : truncation dimension of the feature space.
    """

    alpha: float
    r: float
    p: int

    def __post_init__(self):
        if not self.alpha > 1:
            raise InvalidParameterError(f"capacity exponent must be > 1, got {self.alpha}")
        if self.r < 0:
            raise InvalidParameterError(f"source exponent must be >= 0, got {self.r}")
        if self.p < 1:
            raise InvalidParameterError(f"truncation dimension must be >= 1, got {self.p}")


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues and squared teacher coefficients, sorted by decreasing eigenvalue.

    Teacher coefficients are stored squared: no operation in this package
    needs their sign, and the simulator fixes the sign positive when an
    explicit vector is required.

    law is the (alpha, r) of a spectrum built by ``power_law_spectrum``, whose
    every mode k has eigenvalue k^-alpha and eigenvalue * teacher_sq =
    k^-(1 + 2 r alpha); the theory route sums such spectra beyond the first
    modes in closed form.  It is None for spectra given as arrays.
    """

    eigenvalues: np.ndarray
    teacher_sq: np.ndarray
    law: tuple[float, float] | None = field(default=None, init=False, repr=False,
                                            compare=False)

    def __post_init__(self):
        eig = np.asarray(self.eigenvalues, dtype=float)
        tsq = np.asarray(self.teacher_sq, dtype=float)
        object.__setattr__(self, "eigenvalues", eig)
        object.__setattr__(self, "teacher_sq", tsq)
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

    @property
    def p(self) -> int:
        return int(self.eigenvalues.size)

    def truncate(self, p: int) -> "Spectrum":
        """Return the spectrum restricted to its first p modes."""
        if p < 1:
            raise InvalidParameterError(f"truncation dimension must be >= 1, got {p}")
        if p >= self.p:
            return self
        return _with_law(Spectrum(self.eigenvalues[:p], self.teacher_sq[:p]), self.law)

    def to_csv(self, path) -> None:
        """Write columns (k, eigenvalue, teacher_sq) with a header row."""
        write_table(path, _HEADER,
                    zip(range(1, self.p + 1), self.eigenvalues, self.teacher_sq))

    @staticmethod
    def from_csv(path) -> "Spectrum":
        rows = read_table(path, _HEADER)
        return Spectrum(np.array([float(row[1]) for row in rows]),
                        np.array([float(row[2]) for row in rows]))


def power_law_spectrum(params: PowerLawParams) -> Spectrum:
    """Spectrum with eigenvalues k^-alpha and teacher satisfying
    eigenvalue * teacher_sq = k^-(1 + 2 r alpha) for k = 1..p."""
    k = np.arange(1, params.p + 1, dtype=float)
    eigenvalues = k ** (-params.alpha)
    # teacher_sq * eigenvalue = k^-(1 + 2 r alpha) exactly, so
    # teacher_sq = k^(alpha - 1 - 2 r alpha)
    teacher_sq = k ** (params.alpha - 1.0 - 2.0 * params.r * params.alpha)
    return _with_law(Spectrum(eigenvalues, teacher_sq), (params.alpha, params.r))


def _with_law(spectrum: Spectrum, law) -> Spectrum:
    object.__setattr__(spectrum, "law", law)
    return spectrum


def teacher_variance(spectrum: Spectrum) -> float:
    """Second moment of the noiseless target: sum of eigenvalue * teacher_sq.

    Summed in ascending term order (largest mode index first) to limit
    floating-point cancellation on long spectra.
    """
    terms = spectrum.eigenvalues * spectrum.teacher_sq
    return float(terms[::-1].sum())
