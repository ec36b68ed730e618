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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominatorError, InvalidParameterError, NegativeExcessError, \
    NonConvergenceError
from .spectrum import Spectrum, _em_table, _power_sums, teacher_variance

# Effective-regularization values below this are treated as the exact
# interpolation-degenerate limit (only reachable when lam == 0).
_ZETA_FLOOR = 1e-280
# Newton steps allowed per z root (cold starts have taken up to 24, warm ones ~3).
_NEWTON_MAX_STEPS = 100
# Largest root residual accepted, relative to max(1, z).
_Z_TOL = 1e-10
# Fixed-point relaxation weight, relative step tolerance and step limit.
_DAMPING = 0.5
_FIXED_POINT_TOL = 1e-10
_FIXED_POINT_MAX_ITER = 100_000


# Spectral sums.  With x_k = zeta / eig_k, every sum the theory needs is
#     sum_k w_k x_k^e / (1 + x_k)^q,   e = 0 or e = q,
# with weight w_k = 1 or, teacher-weighted, w_k = teacher_sq_k * eig_k.  A
# kernel names (q, e, teacher-weighted).
_DF1 = (1, 0, False)       # sum eig / (zeta + eig)
_DF2 = (2, 0, False)       # sum (eig / (zeta + eig))^2
_SAMPLE = (2, 2, True)     # sum teacher_sq eig (zeta / (zeta + eig))^2
_OVERLAP = (1, 0, True)    # sum teacher_sq eig^2 / (zeta + eig)

# Modes of a power-law spectrum with x_k >= _TAIL_X are summed through the
# series of x^e / (1 + x)^q in powers of 1/x, each power a power sum
# sum_k k^-s over the tail; the modes below are summed term by term.  The series
# stops once the bound on its next term is below _TAIL_RTOL of its leading
# term.  It may stop earlier, at a term whose power sum has left the
# normal float range and lost digits, if the bound on that term is below
# _TAIL_RTOL of the whole sum; otherwise every mode is summed term by term.
_TAIL_X = 8.0
_TAIL_RTOL = 1e-17
# A tail shorter than this many modes is summed term by term: the series
# costs about as much as summing 20,000 modes one by one.
_TAIL_MIN_MODES = 20_000
# Series term indices j, log(j + 1), and the coefficients (-1)^j C(j+q-1, j)
# of 1/(1 + y)^q = sum_j (-1)^j C(j+q-1, j) y^j for q = 1, 2, where
# C(j, j) = 1 and C(j+1, j) = j + 1.  At x >= 8 no series needs more than 22
# terms.
_J = np.arange(64)
_LOG_J1 = np.log1p(_J)
_SERIES = {1: (-1.0) ** _J, 2: (-1.0) ** _J * (_J + 1)}
_FLOAT_TINY = np.finfo(float).tiny
# Powers m of 1/x over every series: j + q - e for j < 64 and q - e <= 2.
_M = np.arange(_J.size + 2)


def _spectral_sums(zeta: float, spectrum: Spectrum, kernels) -> list[float]:
    """The sums named by kernels at effective regularization zeta >= 0.

    The head, modes 1..K with x_k < _TAIL_X, is summed term by term.  The
    tail, modes K+1..p, is summed in closed form when the spectrum carries
    its power law; it is empty for other spectra and when it would hold
    fewer than _TAIL_MIN_MODES modes.
    """
    p = spectrum.p
    head = p
    if spectrum.law is not None and zeta > 0.0:
        head = _head_size(zeta, spectrum.law[0], p)
        if p - head < _TAIL_MIN_MODES:
            head = p
    sums = _head_sums(zeta, spectrum, head, kernels)
    if head < p:
        tails = _power_law_tails(zeta, spectrum.law, head, p, kernels, sums)
        if tails is None:
            return _head_sums(zeta, spectrum, p, kernels)
        sums = [h + t for h, t in zip(sums, tails)]
    return sums


def _head_sums(zeta: float, spectrum: Spectrum, head: int, kernels) -> list[float]:
    """The sums over modes 1..head, smallest terms first to limit cancellation."""
    eig, tsq = spectrum._head(head)
    denom = zeta + eig
    weight = tsq * eig if any(k[2] for k in kernels) else None
    sums = []
    for q, e, weighted in kernels:
        # x/(1+x) = zeta/(zeta+eig) or 1/(1+x) = eig/(zeta+eig), to the power q
        terms = (zeta if e else eig) / denom
        if q == 2:
            terms = terms * terms
        if weighted:
            terms = weight * terms
        sums.append(float(terms[::-1].sum()))
    return sums


def _head_size(zeta: float, alpha: float, p: int) -> int:
    """Number of modes with x_k = zeta k^alpha below _TAIL_X, at most p."""
    bound = (_TAIL_X / zeta) ** (1.0 / alpha)
    return p if bound > p else math.ceil(bound) - 1


def _power_law_tails(zeta: float, law, head: int, p: int, kernels, head_sums):
    """Sums over modes head+1..p of a power-law spectrum, one per kernel.

    Returns None when a series would have to stop, because of underflow,
    at a term not negligible next to its head sum.  The kernels of one weight
    class share their exponents s, so each class takes one power-sum call.
    """
    alpha, r = law
    a = head + 1
    # Term j of each series is at most (j + 1) x_a^-j times its leading term,
    # and x_a = zeta a^alpha >= _TAIL_X.
    bound = np.exp(_LOG_J1 - _J * (math.log(zeta) + alpha * math.log(a)))
    n_terms = int(np.argmax(bound < _TAIL_RTOL))
    # zeta^-m is formed as mant^-m 2^(-expo m): it overflows by itself at
    # small zeta, while the terms stay in range.
    mant, expo = math.frexp(zeta)
    # Per weight class, over the powers m of 1/x its kernels need from the
    # lowest one on: the power sums, and zeta^-m times them.
    classes = {}
    for weighted in {kernel[2] for kernel in kernels}:
        shifts = [q - e for q, e, w in kernels if w == weighted]
        s, table = _class_exponents(alpha, 1.0 + 2.0 * r * alpha if weighted else 0.0)
        span = slice(min(shifts), max(shifts) + n_terms)
        m = _M[span]
        powers = _power_sums(s[span], a, p, table[span])
        classes[weighted] = m[0], powers, np.ldexp(mant ** -m * powers, -expo * m)
    tails = []
    for (q, e, weighted), head_sum in zip(kernels, head_sums):
        low, powers, scaled = classes[weighted]
        first = q - e - low
        powers = powers[first:first + n_terms]
        terms = _SERIES[q][:n_terms] * scaled[first:first + n_terms]
        normal = powers >= _FLOAT_TINY
        cut = n_terms if normal.all() else int(np.argmin(normal))
        tail = float(terms[:cut][::-1].sum())
        if cut < n_terms and (cut == 0 or bound[cut] * abs(terms[0])
                              >= _TAIL_RTOL * abs(head_sum + tail)):
            return None
        tails.append(tail)
    return tails


@functools.lru_cache(maxsize=16)
def _class_exponents(alpha: float, shift: float) -> tuple[np.ndarray, np.ndarray]:
    """Exponents s = alpha m + shift for the powers _M of 1/x, and their
    Euler-Maclaurin table, which depends on s alone."""
    s = alpha * _M + shift
    return s, _em_table(s)


@dataclass(frozen=True)
class ZSolution:
    """Root of the self-consistent equation for the effective regularization scale.

    branch records which term dominates at the solution: 'regularization'
    when the explicit ridge term does, 'spectral' when the spectral sum does,
    'interpolation' for the degenerate zero root (lam = 0 with at most as
    many modes as samples).  1 - df2/n, df2 = sum_k (eig_k / (z/n + eig_k))^2, is
    the slope of the equation's gap at z and the closed form's denominator.
    """

    z: float
    residual: float
    branch: str
    df2: float


def solve_z(n: int, lam: float, spectrum: Spectrum, z: float | None = None) -> ZSolution:
    """Solve z = n*lam + (z/n) * sum_k eig_k / (z/n + eig_k) by Newton's method.

    With zeta = z/n the gap g(z) = z - n*lam - zeta * df1(zeta) is convex with
    slope 1 - df2(zeta)/n, so Newton's method started above the largest root,
    by default at n*lam + tr(Sigma) + 1 >= root + 1, descends to it without a
    bracket; it stops at the first step that no longer lowers z.  A given
    start z must not lie below the root; None, or a z that is not positive
    and finite, starts cold.  At lam = 0 the root is positive exactly when
    the spectrum has more modes than n.  n*lam must be finite.
    """
    if n < 1:
        raise InvalidParameterError(f"sample count must be >= 1, got {n}")
    if not (0 <= lam and n * lam < math.inf):
        raise InvalidParameterError(
            f"regularization must be >= 0 with n*lam finite, got lam={lam} at n={n}")
    if lam == 0.0 and spectrum.p <= n:
        # The spectral sum never catches up with z; at z = 0 each mode adds 1 to df2.
        return ZSolution(z=0.0, residual=0.0, branch="interpolation", df2=float(spectrum.p))
    if z is None or not 0.0 < z < math.inf:
        z = n * lam + spectrum.trace() + 1.0
    for _ in range(_NEWTON_MAX_STEPS):
        zeta = z / n
        df1, df2 = _spectral_sums(zeta, spectrum, (_DF1, _DF2))
        gap = z - n * lam - zeta * df1
        z_next = z - gap / (1.0 - df2 / n)
        if not 0.0 < z_next < z:
            break
        z = z_next
    else:
        raise NonConvergenceError(
            f"Newton iteration still moving after {_NEWTON_MAX_STEPS} steps at z={z:.6e}")
    residual = abs(gap)
    if not residual <= _Z_TOL * max(1.0, z):
        raise NonConvergenceError(f"root residual {residual:.3e} exceeds tolerance at z={z:.6e}")
    branch = "regularization" if n * lam >= z - n * lam else "spectral"
    return ZSolution(z=float(z), residual=float(residual), branch=branch, df2=df2)


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
                        zsol: ZSolution | None = None) -> ErrorDecomposition:
    """Closed-form excess error on the truncated spectrum.

    With zeta the per-sample effective regularization from ``solve_z`` and
    S2 = (1/n) * sum_k (eig_k / (zeta + eig_k))^2, the two contributions are

        sample_variance = sum_k teacher_sq_k eig_k (zeta/(zeta+eig_k))^2 / (1 - S2)
        noise_variance  = sigma^2 S2 / (1 - S2)

    zsol is the ``solve_z`` root at (n, lam), solved here when not given.
    Raises DegenerateDenominatorError when 1 - S2 <= 0 (truncation or
    parameters outside the formula's validity), except at a noiseless zero root.
    """
    if zsol is None:
        zsol = solve_z(n, lam, spectrum)
    if not 0 <= sigma < math.inf:
        raise InvalidParameterError(f"noise std must be finite and >= 0, got {sigma}")
    if zsol.z == 0.0 and sigma == 0.0:
        # Every sample-variance term carries zeta = 0: exactly 0, even at p = n.
        return ErrorDecomposition(sample_variance=0.0, noise_variance=0.0, total=0.0)
    (sample_sum,) = _spectral_sums(zsol.z / n, spectrum, (_SAMPLE,))
    s2 = zsol.df2 / n
    denom = 1.0 - s2
    if denom <= 0.0:
        raise DegenerateDenominatorError(
            f"denominator 1 - S2 = {denom:.3e} is not positive (n={n}, lam={lam})"
        )
    sample = sample_sum / denom
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


def solve_fixed_point(n: int, lam: float, sigma: float, spectrum: Spectrum) -> FixedPointState:
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
    x_new = (1 - _DAMPING) * x_old + _DAMPING * update.

    Non-convergence after _FIXED_POINT_MAX_ITER steps returns a state flagged unconverged.
    A meaningfully negative excess error raises NegativeExcessError.  At lam = 0
    and p = n with noise the excess grows without bound, as the closed form's
    noise term diverges: DegenerateDenominatorError is raised before any step.
    """
    if n < 1:
        raise InvalidParameterError(f"sample count must be >= 1, got {n}")
    if not (0 <= lam < math.inf and 0 <= sigma < math.inf):
        raise InvalidParameterError("regularization and noise std must be finite and >= 0")
    p = spectrum.p
    rho = teacher_variance(spectrum)

    sig2 = sigma ** 2
    # V = excess = m = 0 start; zeta = lam * (1 + V) = lam.  The
    # interpolation limit needs a positive seed (and has an exact zero root
    # when the spectrum is no longer than the sample count).
    if lam > 0.0:
        zeta = lam
    elif p <= n:
        zeta = 0.0
        # At zeta = 0 every mode adds 1 to df2, so at p = n the noise adds
        # sigma^2 * _DAMPING to the excess each step: no fixed point.
        if p == n and sigma > 0.0:
            raise DegenerateDenominatorError(f"no fixed point at lam = 0, p = n = {n}, sigma > 0")
    else:
        zeta = spectrum.trace() / n
    excess = 0.0
    m = 0.0

    converged = False
    residual = math.inf
    iterations = 0
    for iterations in range(1, _FIXED_POINT_MAX_ITER + 1):
        df1, df2, sample_sum, m_upd = _spectral_sums(
            zeta, spectrum, (_DF1, _DF2, _SAMPLE, _OVERLAP))
        zeta_upd = lam + (zeta / n) * df1 if zeta > 0.0 else lam
        excess_upd = sample_sum + (excess + sig2) * df2 / n

        zeta_new = (1.0 - _DAMPING) * zeta + _DAMPING * zeta_upd
        if 0.0 < zeta_new < _ZETA_FLOOR:
            zeta_new = 0.0
        excess_new = (1.0 - _DAMPING) * excess + _DAMPING * excess_upd
        m_new = (1.0 - _DAMPING) * m + _DAMPING * m_upd

        residual = max(
            abs(zeta_new - zeta) / max(abs(zeta_new), 1e-30),
            abs(excess_new - excess) / max(abs(excess_new), 1e-30),
            abs(m_new - m) / max(abs(m_new), 1e-30),
        )
        zeta, excess, m = zeta_new, excess_new, m_new
        if residual <= _FIXED_POINT_TOL:
            converged = True
            break

    if excess < -_FIXED_POINT_TOL * max(1.0, rho):
        raise NegativeExcessError(f"excess error {excess:.3e} is negative at convergence")
    q = excess + 2.0 * m - rho
    V = zeta / lam - 1.0 if lam > 0.0 else math.inf
    return FixedPointState(V=V, q=q, m=m, rho=rho, excess=excess, converged=converged,
                           iterations=iterations, residual=residual)


def optimal_lambda(n: int, sigma: float, spectrum: Spectrum,
                   lam_grid) -> tuple[float, float]:
    """Grid minimizer of the closed-form excess error over lam_grid.

    Ties are broken toward larger regularization; a repeated grid point is
    solved once.  Grid points where the closed form degenerates are skipped;
    if every point degenerates the degenerate-denominator error is re-raised.
    The grid is swept downward, each z solve starting at Newton's first step
    off the previous, larger root; the winner's excess is solved again cold,
    so it is sweep-independent.
    """
    lam_grid = np.asarray(lam_grid, dtype=float)
    if lam_grid.size == 0:
        raise InvalidParameterError("lam_grid must be non-empty")
    if np.any(lam_grid < 0):
        raise InvalidParameterError("lam_grid entries must be >= 0")

    best_lam, best_total, last_error, zsol = None, math.inf, None, None
    for lam in sorted(set(lam_grid.tolist()), reverse=True):
        # At the previous root the gap at lam is n * (lam_prev - lam).
        z = None if zsol is None else zsol.z - n * (lam_prev - lam) / (1.0 - zsol.df2 / n)
        zsol, lam_prev = solve_z(n, lam, spectrum, z), lam
        try:
            total = excess_error_closed(n, lam, sigma, spectrum, zsol).total
        except DegenerateDenominatorError as err:
            last_error = err
            continue
        if total < best_total:  # strict: ties stay with the larger lam
            best_total = total
            best_lam = lam
    if best_lam is None:
        raise DegenerateDenominatorError(
            f"all {lam_grid.size} grid points degenerate; last error: {last_error}"
        )
    return best_lam, excess_error_closed(n, best_lam, sigma, spectrum).total
