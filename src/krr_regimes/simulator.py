"""Finite-dimensional Gaussian-design ridge regression Monte Carlo.

Data are drawn from the teacher model implied by a spectrum (independent
Gaussian features with the spectrum's variances, labels from the positive
square root of the squared teacher coefficients plus additive noise), ridge
regression is solved exactly, and the excess error is measured in population
form against the known teacher, which removes test-set sampling noise.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field

import numpy as np

from . import _openblas
from .dataspec import fit_loglog_slope
from .errors import (
    DegenerateWindowError,
    InvalidParameterError,
    SingularSystemError,
    SolverError,
)
from .regimes import RegimeLabel, RegimeQuery, classify
from .spectrum import Spectrum
from .table import read_table, write_table
from .theory import excess_error_closed

_JITTER_REL = 1e-12


@dataclass(frozen=True)
class LamSchedule:
    """Regularization schedule: 'fixed' lam, 'power' lambda0 * n^-ell, or 'cv'
    (5-fold grid search over the default grid)."""

    kind: str
    lam: float = 0.0
    lambda0: float = 1.0
    ell: float = 0.0

    def __post_init__(self):
        if self.kind not in ("fixed", "power", "cv"):
            raise InvalidParameterError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "fixed" and not 0 <= self.lam < math.inf:
            raise InvalidParameterError(f"fixed lam must be finite and >= 0, got {self.lam}")
        if self.kind == "power" and not 0 < self.lambda0 < math.inf:
            raise InvalidParameterError(f"lambda0 must be finite and > 0, got {self.lambda0}")
        if self.kind == "power" and not -math.inf < self.ell <= math.inf:
            raise InvalidParameterError(f"ell must be a number or inf, got {self.ell}")
        if any(math.isnan(v) for v in (self.lam, self.lambda0, self.ell)):
            raise InvalidParameterError("schedule values must not be NaN")

    def lam_at(self, n: int) -> float | None:
        """Schedule value at sample count n; None for cv (chosen per dataset).

        A value, or n times it, that is not finite is rejected.
        """
        if self.kind == "cv":
            return None
        lam = self.lam
        if self.kind == "power":
            try:
                lam = 0.0 if math.isinf(self.ell) else self.lambda0 * float(n) ** (-self.ell)
            except OverflowError:
                lam = math.inf
        if not n * lam < math.inf:
            raise InvalidParameterError(f"n*lam of {self} at n={n} is not finite")
        return lam

    def label(self, alpha: float, r: float, sigma: float, n: int, lam: float) -> RegimeLabel:
        """Regime of the row at n whose ridge this schedule resolved to lam.

        A power schedule is its own phase-diagram point.  Otherwise lam = 0 is
        ell = inf, and a positive lam at n matches ell = 0 with prefactor lam.
        """
        if self.kind == "power":
            ell, lambda0 = self.ell, self.lambda0
        else:
            ell, lambda0 = (math.inf, 1.0) if lam == 0.0 else (0.0, lam)
        return classify(RegimeQuery(alpha, r, sigma, ell, float(n), lambda0))


@dataclass(frozen=True)
class SimConfig:
    """One Monte-Carlo learning-curve specification.

    Per-trial randomness is derived from (master_seed, n, trial_index)
    through numpy's SeedSequence, so each trial is reproducible on its own
    and independent of execution order; learning_curve says how the trials
    are threaded and why a curve's bytes do not follow the BLAS thread count.
    theory_spectrum, when given, is used for the attached closed-form column
    (the simulation spectrum may be truncated harder than the theory one).
    Rows carry a regime label where the spectrum has a power law.
    """

    spectrum: Spectrum
    n_values: tuple[int, ...]
    sigma: float
    lam_schedule: LamSchedule
    trials: int
    master_seed: int
    theory_spectrum: Spectrum | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidParameterError("trials must be >= 1")
        if not self.n_values:
            raise InvalidParameterError("n_values must hold at least one sample count")
        if any(n < 1 for n in self.n_values):
            raise InvalidParameterError("all sample counts must be >= 1")
        if not 0 <= self.sigma < math.inf:
            raise InvalidParameterError(f"noise std must be finite and >= 0, got {self.sigma}")


# Column order of the curve CSV; it is also CurveRow's field order.
_CURVE_HEADER = ("n", "lambda", "mean_excess", "std_excess", "trials", "theory_excess",
                 "regime")


@dataclass(frozen=True)
class CurveRow:
    n: int
    lam_used: float
    mean_excess: float
    std_excess: float
    trials: int
    theory_excess: float
    regime: str


@dataclass(frozen=True)
class LearningCurve:
    rows: tuple[CurveRow, ...] = field(default_factory=tuple)

    def to_csv(self, path) -> None:
        write_table(path, _CURVE_HEADER, (astuple(row) for row in self.rows))

    @staticmethod
    def from_csv(path) -> "LearningCurve":
        return LearningCurve(rows=tuple(
            CurveRow(n=int(rec[0]), lam_used=float(rec[1]), mean_excess=float(rec[2]),
                     std_excess=float(rec[3]), trials=int(rec[4]),
                     theory_excess=float(rec[5]), regime=rec[6])
            for rec in read_table(path, _CURVE_HEADER)))


def trial_seed(master_seed: int, n: int, trial_index: int) -> np.random.SeedSequence:
    """Splittable per-trial seed: hash of (master seed, sample count, trial index)."""
    return np.random.SeedSequence(entropy=(int(master_seed), int(n), int(trial_index)))


def sample_dataset(spectrum: Spectrum, n: int, sigma: float, seed, out=None):
    """Draw (features, labels) from the Gaussian teacher model.

    Row mu holds independent coordinates with variance eigenvalue_k; the
    label is the teacher response (positive-root coefficients) plus
    sigma-scaled standard normal noise.  out, when given, is a C-contiguous
    float64 n x p array that receives the features and is returned as them.
    """
    if n < 1:
        raise InvalidParameterError(f"sample count must be >= 1, got {n}")
    out = np.empty((n, spectrum.p)) if out is None else out
    if out.shape != (n, spectrum.p) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise InvalidParameterError(
            f"out must be a C-contiguous float64 array of shape ({n}, {spectrum.p})")
    rng = np.random.default_rng(seed)
    rng.standard_normal(out=out)
    out *= np.sqrt(spectrum.eigenvalues)
    labels = out @ np.sqrt(spectrum.teacher_sq)
    if sigma > 0:
        labels += sigma * rng.standard_normal(n)
    return out, labels


@_openblas._one_blas_thread()
def ridge_fit(features: np.ndarray, labels: np.ndarray, lam: float) -> np.ndarray:
    """Exact minimizer of the mean squared error plus lam * ||w||^2.

    Uses the n x n dual system when there are fewer samples than features
    (which also yields the minimum-norm solution at lam = 0), the p x p
    normal equations otherwise.  The system is exactly symmetric, so its
    Fortran view is the same matrix: it is factored in its own buffer, with
    the bits of a factorization on a copy.  Where the ridgeless system is not
    numerically positive definite, it is formed again from features, with
    _JITTER_REL * trace / size added to its diagonal, and factored; otherwise
    SingularSystemError is raised.
    """
    if not 0 <= lam < math.inf:
        raise InvalidParameterError(f"regularization must be finite and >= 0, got {lam}")
    n, p = features.shape
    half = features if n < p else features.T  # the system is half @ half.T
    mat = half @ half.T
    rhs = labels if n < p else half @ labels
    mat[np.diag_indices_from(mat)] += n * lam
    try:
        solution = _openblas._cholesky_solve(mat.T, rhs)
    except np.linalg.LinAlgError:
        if lam != 0.0:
            raise SingularSystemError("ridge system is numerically singular")
        mat = half @ half.T
        mat[np.diag_indices_from(mat)] += _JITTER_REL * np.trace(mat) / mat.shape[0]
        try:
            solution = _openblas._cholesky_solve(mat.T, rhs)
        except np.linalg.LinAlgError as err:
            raise SingularSystemError(
                "Gram matrix singular beyond the configured jitter") from err
    return half.T @ solution if n < p else solution


def excess_error_empirical(w: np.ndarray, spectrum: Spectrum) -> float:
    """Population excess error of weights w against the spectrum's teacher.

    Exact under the Gaussian feature model: sum_k eigenvalue_k * (w_k - theta_k)^2.
    """
    theta = np.sqrt(spectrum.teacher_sq)
    diff = w - theta
    return float((spectrum.eigenvalues * diff * diff)[::-1].sum())


def default_cv_grid() -> np.ndarray:
    """Zero plus a logarithmic grid over (1e-10, 1e5) with 0.026 log10 step."""
    count = int(round(15.0 / 0.026))
    return np.concatenate([[0.0], 10.0 ** (-10.0 + 0.026 * np.arange(1, count))])


@_openblas._one_blas_thread()
def grid_search_lambda(features: np.ndarray, labels: np.ndarray,
                       lam_grid=None, k_folds: int = 5, work=None) -> float:
    """k-fold cross-validated grid search over the regularization.

    Returns the grid value minimizing the mean validation MSE, ties broken
    toward larger regularization.  Each validation fold is a contiguous block
    of rows.  The per-fold eigendecomposition of the training Gram matrix,
    computed in the block's own buffer, turns every grid point into a filter
    of the eigenvalues, so one (validation x m) @ (m x grid) product per fold
    scores the whole grid.  The eigensolver projects the training labels and
    the training x validation Gram block onto the eigenvectors without
    forming them.

    work, a C-contiguous float64 array that the search may overwrite, may be
    features' own buffer: the n x n Gram matrix is formed before the first
    write.  A fold with v validation rows and m = n - v training rows needs
    m (n + 1) + n g doubles for its arrays (g grid points), most at the
    smallest fold, v = n // k_folds.  Every fold carves its arrays from work
    where work holds that many, otherwise from one block of that size
    allocated once, and puts the eigensolver's workspace, about m^2 doubles,
    after them where it fits: about 2 n^2 in all at 5 folds, the default
    grid and n = 1024.
    """
    if k_folds < 2:
        raise InvalidParameterError(f"k_folds must be >= 2, got {k_folds}")
    n = features.shape[0]
    if n < k_folds:
        raise InvalidParameterError(f"need at least {k_folds} samples, got {n}")
    lam_grid = default_cv_grid() if lam_grid is None else np.sort(np.asarray(lam_grid, dtype=float))
    if lam_grid.size == 0 or not np.all((lam_grid >= 0) & (lam_grid < np.inf)):
        raise InvalidParameterError("lam_grid must be non-empty with finite entries >= 0")
    if work is not None and not (work.dtype == np.float64 and work.flags.c_contiguous
                                 and work.flags.writeable):
        raise InvalidParameterError("work must be a writeable, C-contiguous float64 array")

    gram = features @ features.T
    g = lam_grid.size
    size = (n - n // k_folds) * (n + 1) + n * g
    work = work.reshape(-1) if work is not None and work.size >= size else np.empty(size)
    mse = np.zeros(g)
    for val_idx in np.array_split(np.arange(n), k_folds):
        lo, hi = int(val_idx[0]), int(val_idx[-1]) + 1
        v, m = hi - lo, n - (hi - lo)
        # The training block, the right-hand sides, the coefficients and the
        # scores, taken in this order from work, the eigensolver's workspace
        # after them.
        sizes = (m * m, m * (v + 1), m * g, v * g)
        end = sum(sizes)
        parts = iter(np.split(work[:end], np.cumsum(sizes)[:-1]))
        # The training block, copied in four slices, is exactly symmetric.
        tt = next(parts).reshape(m, m)
        tt[:lo, :lo], tt[:lo, lo:] = gram[:lo, :lo], gram[:lo, hi:]
        tt[lo:, :lo], tt[lo:, lo:] = gram[hi:, :lo], gram[hi:, hi:]
        # The training labels, then the training x validation block, which is
        # the validation x training block transposed: gram is exactly symmetric.
        rhs = next(parts).reshape((m, v + 1), order="F")
        rhs[:lo, 0], rhs[lo:, 0] = labels[:lo], labels[hi:]
        rhs[:lo, 1:], rhs[lo:, 1:] = gram[:lo, lo:hi], gram[hi:, lo:hi]
        evals, proj = _openblas._eigh_projections(tt, rhs, work[end:])
        evals = np.clip(evals, 0.0, None)
        uty, b = proj[:, 0], proj[:, 1:].T
        floor = max(evals.max(), 1.0) * np.finfo(float).eps * m
        # coef[:, i] is the filtered coefficient vector at lam_grid[i].
        coef = np.add(evals[:, None], m * lam_grid, out=next(parts).reshape(m, g))
        dropped = coef <= floor
        np.maximum(coef, floor, out=coef)
        np.divide(uty[:, None], coef, out=coef)
        coef[dropped] = 0.0
        scores = np.matmul(b, coef, out=next(parts).reshape(v, g))
        np.subtract(scores, labels[lo:hi, None], out=scores)
        mse += np.square(scores, out=scores).sum(axis=0)
    mse /= n
    return float(lam_grid[lam_grid.size - 1 - np.argmin(mse[::-1])])


@_openblas._one_blas_thread()
def learning_curve(config: SimConfig) -> LearningCurve:
    """Monte-Carlo learning curve with attached closed-form theory column.

    Every row's schedule value is checked (LamSchedule.lam_at) before any
    trial runs.  A two-thread executor runs whole trials, submitted in
    sorted-row, trial order: each trial borrows one of two shared n_max x p
    float64 buffers, draws its design there through sample_dataset, fits
    and scores the fit, so each worker holds one n x n (or p x p) system at
    a time.  The whole curve runs OpenBLAS on one thread
    (_openblas._one_blas_thread), so each core solves its own trial and,
    where the pin takes, the Cholesky rounding does not follow the machine's
    thread count.  The calling thread resolves each row's ridge before it
    submits the row's trials, so no worker waits on it: on a cv row it
    borrows a buffer, draws trial 0's design into it and runs the grid
    search there, handing it the whole buffer as its work (its contents are
    dead once the Gram matrix is formed), so the search allocates only that
    n x n matrix where the buffer holds its fold arrays, about 2 n^2 doubles,
    and one block of them otherwise; trial 0 then draws the same design
    again, about 140 ms of one core over a p = 4000, n = 32..1024 curve.  It
    then computes the row's theory column and regime label, so a row whose
    closed form raises runs no trial.  Once every row's trials are submitted,
    it averages the rows in sorted order, each row's trials in trial order.
    Trial failures are tolerated up to 10% per row, above which the row's
    first failure is re-raised.  Any raise cancels the queued trials before
    it leaves.
    """
    import queue
    from concurrent.futures import ThreadPoolExecutor

    spectrum, sigma, trials = config.spectrum, config.sigma, config.trials
    theory_spec = config.theory_spectrum or spectrum
    ns = sorted(config.n_values)
    lams = [config.lam_schedule.lam_at(n) for n in ns]
    buffers = queue.SimpleQueue()
    for _ in range(2):
        buffers.put(np.empty((ns[-1], spectrum.p)))

    def design(buffer, n, t):
        return sample_dataset(spectrum, n, sigma, trial_seed(config.master_seed, n, t),
                              buffer[:n])

    def trial(n, t, lam):
        buffer = buffers.get()
        try:
            return excess_error_empirical(ridge_fit(*design(buffer, n, t), lam), spectrum)
        except SolverError as err:
            return err
        finally:
            buffers.put(buffer)

    pool = ThreadPoolExecutor(2)
    submitted, rows = [], []
    try:
        for n, lam in zip(ns, lams):
            if lam is None:
                # One cross-validated regularization per row, chosen on trial 0.
                buffer = buffers.get()
                try:
                    lam = grid_search_lambda(*design(buffer, n, 0), work=buffer.reshape(-1))
                finally:
                    buffers.put(buffer)
            theory = excess_error_closed(n, lam, sigma, theory_spec).total
            regime = ("" if spectrum.law is None else
                      config.lam_schedule.label(*spectrum.law, sigma, n, lam).region.value)
            submitted.append((n, lam, theory, regime,
                              [pool.submit(trial, n, t, lam) for t in range(trials)]))
        for n, lam, theory, regime, outcomes in submitted:
            results = [outcome.result() for outcome in outcomes]
            failures = [o for o in results if isinstance(o, SolverError)]
            values = np.array([o for o in results if not isinstance(o, SolverError)], float)
            if len(failures) > 0.1 * trials or values.size == 0:
                raise failures[0]
            mean = float(values.mean())
            std = float(values.std(ddof=1)) if values.size > 1 else 0.0
            rows.append(CurveRow(n=int(n), lam_used=float(lam), mean_excess=mean,
                                 std_excess=std, trials=int(values.size),
                                 theory_excess=float(theory), regime=regime))
    finally:
        pool.shutdown(cancel_futures=True)
    return LearningCurve(rows=tuple(rows))


def fit_decay_exponent(curve: LearningCurve, window: tuple[int, int]) -> tuple[float, float]:
    """Log-log slope of mean excess versus n over rows window[0]..window[1] (inclusive)."""
    lo, hi = window
    if not 0 <= lo < hi <= len(curve.rows) - 1:
        raise DegenerateWindowError(
            f"window {lo},{hi} is not an increasing row range within 0..{len(curve.rows) - 1}")
    rows = curve.rows[lo:hi + 1]
    return fit_loglog_slope([row.n for row in rows], [row.mean_excess for row in rows])
