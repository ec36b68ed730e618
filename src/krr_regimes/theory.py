"""Closed-form learning-curve theory for ridge regression under Gaussian design.

Two independent computational routes are implemented and cross-checked:

* a scalar root-finding route: solve for the effective regularization scale
  (``solve_z``), then evaluate the closed-form excess-error decomposition
  (``excess_error_closed``);
* a damped fixed-point iteration of the coupled order-parameter equations
  (``solve_fixed_point``), whose converged state reproduces the same excess
  error through ``rho - 2 m + q``.

The first route is cheaper and is the one used by sweeps; the second serves
as a mutual numerical oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import (
    DegenerateDenominatorError,
    InvalidParameterError,
    NegativeExcessError,
    NoBracketError,
    NonConvergenceError,
)
from .spectrum import Spectrum, teacher_variance

_TINY = 1e-300
# Effective-regularization values below this are treated as the exact
# interpolation-degenerate limit (only reachable when lam == 0).
_ZETA_FLOOR = 1e-280


def _rsum(terms: np.ndarray) -> float:
    # Smallest terms first (descending mode index) to limit cancellation.
    return float(terms[::-1].sum())


def _df1(zeta: float, eig: np.ndarray) -> float:
    """Sum of eig / (zeta + eig)."""
    return _rsum(eig / (zeta + eig))


def _df2(zeta: float, eig: np.ndarray) -> float:
    """Sum of (eig / (zeta + eig))^2."""
    return _rsum((eig / (zeta + eig)) ** 2)


def _sample_sum(zeta: float, eig: np.ndarray, tsq: np.ndarray) -> float:
    """Sum of teacher_sq * eig * (zeta / (zeta + eig))^2."""
    if zeta == 0.0:
        return 0.0
    return _rsum(tsq * eig * (zeta / (zeta + eig)) ** 2)


@dataclass(frozen=True)
class ZSolution:
    """Root of the self-consistent equation for the effective regularization scale.

    branch records which term dominates at the solution: 'regularization'
    when the explicit ridge term does, 'spectral' when the spectral sum does,
    'interpolation' for the degenerate zero root (lam = 0 with at most as
    many modes as samples).
    """

    z: float
    residual: float
    branch: str


def _z_equation_gap(z: float, n: int, lam: float, eig: np.ndarray) -> float:
    zeta = z / n
    return z - n * lam - zeta * _df1(zeta, eig)


def solve_z(n: int, lam: float, spectrum: Spectrum, tol: float = 1e-10,
            max_expansions: int = 200) -> ZSolution:
    """Solve z = n*lam + (z/n) * sum_k eig_k / (z/n + eig_k) by bracketing.

    The lower bracket is max(n*lam, tiny positive); the upper bracket starts
    at the provable bound n*lam + tr(Sigma) and is expanded geometrically if
    floating-point effects ever spoil the sign there.
    """
    if n < 1:
        raise InvalidParameterError(f"sample count must be >= 1, got {n}")
    if not 0 <= lam < math.inf:
        raise InvalidParameterError(f"regularization must be finite and >= 0, got {lam}")
    eig = spectrum.eigenvalues

    def g(z):
        return _z_equation_gap(z, n, lam, eig)

    lo = max(n * lam, _TINY)
    g_lo = g(lo)
    if g_lo >= 0.0:
        if lam == 0.0:
            # No positive root: the spectral sum never catches up with z,
            # which happens when the spectrum has at most n modes.  The
            # exact solution of the equation is then z = 0.
            return ZSolution(z=0.0, residual=0.0, branch="interpolation")
        if g_lo == 0.0:
            return ZSolution(z=lo, residual=0.0, branch="regularization")
        raise NoBracketError("equation gap is positive at the lower bracket")

    hi = n * lam + float(eig.sum()) + 1.0
    expansions = 0
    while g(hi) <= 0.0:
        hi *= 2.0
        expansions += 1
        if expansions > max_expansions:
            raise NoBracketError("no sign change found within the expansion limit")

    z = brentq(g, lo, hi, xtol=_TINY, rtol=4 * np.finfo(float).eps, maxiter=300)
    residual = abs(g(z))
    if residual > tol * max(1.0, z):
        raise NonConvergenceError(
            f"root residual {residual:.3e} exceeds tolerance at z={z:.6e}"
        )
    reg_term = n * lam
    spectral_term = z - reg_term
    branch = "regularization" if reg_term >= spectral_term else "spectral"
    return ZSolution(z=float(z), residual=float(residual), branch=branch)


def continuous_z_gap(z: float, n: int, lam: float, alpha: float) -> float:
    """Residual of the integral form of the z-equation for a unit power-law spectrum.

    Diagnostic only: the discrete sum is exact at finite truncation and is
    what ``solve_z`` uses; the integral form replaces the spectral sum by
    (z/n)^(1-1/alpha) * integral_{(z/n)^(1/alpha)}^inf dx / (1 + x^alpha).
    """
    zeta = z / n
    a = zeta ** (1.0 / alpha)
    integral, _ = quad(lambda x: 1.0 / (1.0 + x ** alpha), a, np.inf)
    rhs = n * lam + zeta ** (1.0 - 1.0 / alpha) * integral
    return z - rhs


@dataclass(frozen=True)
class ErrorDecomposition:
    """Excess prediction error split into sampling and noise contributions.

    total is the excess above the irreducible noise floor (generalization
    error minus noise variance); it equals sample_variance + noise_variance
    exactly by construction.
    """

    sample_variance: float
    noise_variance: float
    total: float


def excess_error_closed(n: int, lam: float, sigma: float, spectrum: Spectrum,
                        tol: float = 1e-10) -> ErrorDecomposition:
    """Closed-form excess error on the truncated spectrum.

    With zeta the per-sample effective regularization from ``solve_z`` and
    S2 = (1/n) * sum_k (eig_k / (zeta + eig_k))^2, the two contributions are

        sample_variance = sum_k teacher_sq_k eig_k (zeta/(zeta+eig_k))^2 / (1 - S2)
        noise_variance  = sigma^2 S2 / (1 - S2)

    Raises DegenerateDenominatorError when 1 - S2 <= 0 (truncation or
    parameters outside the formula's validity).
    """
    if not 0 <= sigma < math.inf:
        raise InvalidParameterError(f"noise std must be finite and >= 0, got {sigma}")
    zsol = solve_z(n, lam, spectrum, tol=tol)
    zeta = zsol.z / n
    eig = spectrum.eigenvalues
    s2 = _df2(zeta, eig) / n
    denom = 1.0 - s2
    if denom <= 0.0:
        raise DegenerateDenominatorError(
            f"denominator 1 - S2 = {denom:.3e} is not positive (n={n}, lam={lam})"
        )
    sample = _sample_sum(zeta, eig, spectrum.teacher_sq) / denom
    noise = sigma ** 2 * s2 / denom
    return ErrorDecomposition(sample_variance=sample, noise_variance=noise,
                              total=sample + noise)


@dataclass(frozen=True)
class FixedPointState:
    """Converged order parameters of the coupled self-consistent equations.

    V, q, m are the order parameters (mean resolvent trace, student
    self-overlap, teacher-student overlap); rho is the teacher variance.
    The excess error equals rho - 2 m + q; the stored ``excess`` field
    carries that combination accumulated per-mode during the iteration,
    which stays accurate when the excess sits many orders of magnitude
    below rho and the naive three-term difference would cancel
    catastrophically.  In the interpolation limit (lam = 0 with more modes
    than samples) V diverges and is reported as inf.
    """

    V: float
    q: float
    m: float
    rho: float
    excess: float
    converged: bool
    iterations: int
    residual: float


def solve_fixed_point(n: int, lam: float, sigma: float, spectrum: Spectrum,
                      p: int | None = None, damping: float = 0.5,
                      tol: float = 1e-10, max_iter: int = 100_000) -> FixedPointState:
    """Damped fixed-point iteration of the coupled order-parameter updates.

    The iteration state is kept in the combination zeta = lam * (1 + V)
    (affine in V, so relaxation in zeta is identical to relaxation in V),
    which stays finite in the lam -> 0 interpolation limit where V itself
    diverges.  The excess error rho - 2 m + q is iterated as a single
    quantity whose update combines the three contributions per spectrum
    mode: the combination under the update maps is exactly
    sum_k teacher_sq_k eig_k (zeta/(zeta+eig_k))^2 plus the propagated
    (excess + sigma^2) * df2 / n term, which avoids the catastrophic
    cancellation of forming rho - 2 m + q from its converged parts.  The
    overlap m is iterated alongside for reporting and q is recovered from
    the identity q = excess + 2 m - rho.  All states relax as
    x_new = (1 - damping) * x_old + damping * update.

    Non-convergence after max_iter returns a state flagged unconverged.
    A meaningfully negative excess error raises NegativeExcessError.
    """
    if n < 1:
        raise InvalidParameterError(f"sample count must be >= 1, got {n}")
    if not (0 <= lam < math.inf and 0 <= sigma < math.inf):
        raise InvalidParameterError("regularization and noise std must be finite and >= 0")
    if not 0.0 < damping <= 1.0:
        raise InvalidParameterError(f"damping must be in (0, 1], got {damping}")
    if p is not None:
        spectrum = spectrum.truncate(p)
    p = spectrum.p
    eig = spectrum.eigenvalues
    tsq = spectrum.teacher_sq
    rho = teacher_variance(spectrum)

    sig2 = sigma ** 2
    # V = excess = m = 0 start; zeta = lam * (1 + V) = lam.  The
    # interpolation limit needs a positive seed (and has an exact zero root
    # when the spectrum is no longer than the sample count).
    if lam > 0.0:
        zeta = lam
    elif p <= n:
        zeta = 0.0
    else:
        zeta = float(eig.sum()) / n
    excess = 0.0
    m = 0.0

    converged = False
    residual = math.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        zeta_upd = lam + (zeta / n) * _df1(zeta, eig) if zeta > 0.0 else lam
        m_upd = _rsum(tsq * eig ** 2 / (zeta + eig))
        excess_upd = _sample_sum(zeta, eig, tsq) \
            + (excess + sig2) * _df2(zeta, eig) / n

        zeta_new = (1.0 - damping) * zeta + damping * zeta_upd
        if 0.0 < zeta_new < _ZETA_FLOOR:
            zeta_new = 0.0
        excess_new = (1.0 - damping) * excess + damping * excess_upd
        m_new = (1.0 - damping) * m + damping * m_upd

        residual = max(
            abs(zeta_new - zeta) / max(abs(zeta_new), 1e-30),
            abs(excess_new - excess) / max(abs(excess_new), 1e-30),
            abs(m_new - m) / max(abs(m_new), 1e-30),
        )
        zeta, excess, m = zeta_new, excess_new, m_new
        if residual <= tol:
            converged = True
            break

    if excess < -tol * max(1.0, rho):
        raise NegativeExcessError(f"excess error {excess:.3e} is negative at convergence")
    q = excess + 2.0 * m - rho
    V = zeta / lam - 1.0 if lam > 0.0 else math.inf
    return FixedPointState(V=V, q=q, m=m, rho=rho, excess=excess, converged=converged,
                           iterations=iterations, residual=residual)


def optimal_lambda(n: int, sigma: float, spectrum: Spectrum,
                   lam_grid) -> tuple[float, float]:
    """Grid minimizer of the closed-form excess error over lam_grid.

    Ties are broken toward larger regularization.  Grid points where the
    closed form degenerates are skipped; if every point degenerates the
    degenerate-denominator error is re-raised.
    """
    lam_grid = np.asarray(lam_grid, dtype=float)
    if lam_grid.size == 0:
        raise InvalidParameterError("lam_grid must be non-empty")
    if np.any(lam_grid < 0):
        raise InvalidParameterError("lam_grid entries must be >= 0")

    best_lam = None
    best_total = math.inf
    last_error = None
    for lam in np.sort(lam_grid):
        try:
            total = excess_error_closed(n, float(lam), sigma, spectrum).total
        except DegenerateDenominatorError as err:
            last_error = err
            continue
        if total <= best_total:
            best_total = total
            best_lam = float(lam)
    if best_lam is None:
        raise DegenerateDenominatorError(
            f"all {lam_grid.size} grid points degenerate; last error: {last_error}"
        )
    return best_lam, best_total
