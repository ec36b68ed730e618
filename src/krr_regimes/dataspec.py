"""Real-dataset pipeline: kernels, Gram matrices, feature decomposition under
the empirical measure, teacher extraction and capacity/source estimation.

The feature basis is the Gram matrix's eigenbasis, orthonormal under the
empirical measure of the dataset itself, so the decomposition is exact at the
dataset scale and the extracted teacher interpolates the labels whenever the
Gram matrix is full rank.  Only the eigenvalues and the labels' projections
onto the basis are computed, never the basis itself.  Capacity and source
exponents are then read off the log-log slopes of the cumulative eigenvalue
and signal tails.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _openblas
from .errors import (
    DegenerateRangeError,
    DegenerateWindowError,
    IndefiniteMatrixError,
    InvalidParameterError,
    SchemaError,
)
from .table import write_table

DEFAULT_EIGENVALUE_FLOOR = 1e-12
LABEL_COLUMN = "y"
LOW_R2_WARNING = 0.95


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family and scale: 'rbf' exp(-gamma ||x - x'||^2 / 2),
    'polynomial' (1 + gamma <x, x'>)^degree, or 'linear' gamma <x, x'>."""

    kind: str
    gamma: float
    degree: int = 5

    def __post_init__(self):
        if self.kind not in ("rbf", "polynomial", "linear"):
            raise InvalidParameterError(f"unknown kernel kind {self.kind!r}")
        if not 0 < self.gamma < math.inf:
            raise InvalidParameterError(f"gamma must be finite and > 0, got {self.gamma}")
        if self.kind == "polynomial" and self.degree < 1:
            raise InvalidParameterError(f"degree must be >= 1, got {self.degree}")


_BLOCK = 256  # rows per block of the in-place n x n passes


def gram_matrix(data: np.ndarray, kernel: KernelSpec) -> np.ndarray:
    """Pairwise kernel evaluations, exactly symmetric by construction.

    numpy forms data @ data.T with syrk and mirrors one triangle, so the
    product is exactly symmetric, and every kernel step after it is
    elementwise or symmetric in (i, j).  The kernel runs in place, one block
    of rows at a time, so one n x n array is alive.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] == 0:
        raise InvalidParameterError("data must be a non-empty 2-d array")
    finite = np.isfinite(data)
    if not finite.all():
        i, j = divmod(int(np.argmin(finite)), data.shape[1])
        raise InvalidParameterError(f"data has non-finite value {data[i, j]} at row {i}, "
                                    f"column {j}")
    gram = data @ data.T
    # An overflow leaves an inf that feature_decomposition reports; numpy's
    # warning would only repeat it on stderr.
    with np.errstate(over="ignore"):
        if kernel.kind == "linear":
            gram *= kernel.gamma
        elif kernel.kind == "polynomial":
            gram *= kernel.gamma
            gram += 1.0
            gram **= kernel.degree
        else:
            sq = np.diag(gram).copy()
            scratch = np.empty((min(_BLOCK, sq.size), sq.size))
            for i in range(0, sq.size, _BLOCK):
                # ||x_i - x_j||^2 as (sq_i + sq_j) - 2 g_ij, clipped at 0.
                block = gram[i:i + _BLOCK]
                dist = np.add(sq[i:i + _BLOCK, None], sq, out=scratch[:len(block)])
                block *= 2.0
                dist -= block
                np.clip(dist, 0.0, None, out=dist)
                dist *= -0.5 * kernel.gamma
                np.exp(dist, out=block)
    if kernel.kind == "rbf":
        np.fill_diagonal(gram, 1.0)
    return gram


def _symmetrize(gram: np.ndarray, n_tot: int) -> float:
    """Overwrite a square gram with (gram + gram^T) * 0.5 / n_tot, one pair of
    blocks at a time; returns max |gram - gram^T| of the input, which is only
    meaningful for a finite gram."""
    asym, n = 0.0, gram.shape[0]
    for i in range(0, n, _BLOCK):
        for j in range(i, n, _BLOCK):
            upper, lower = gram[i:i + _BLOCK, j:j + _BLOCK], gram[j:j + _BLOCK, i:i + _BLOCK].T
            with np.errstate(invalid="ignore"):  # inf - inf after a kernel overflow
                diff = upper - lower
            asym = max(asym, float(np.abs(diff, out=diff).max()))
            np.add(upper, lower, out=diff)
            diff *= 0.5
            diff /= n_tot
            upper[...] = diff
            lower[...] = diff
    return asym


@dataclass(frozen=True)
class FeatureDecomposition:
    """Spectrum of the Gram matrix under the empirical measure, with the teacher.

    eigenvalues are those of gram / n_tot, descending.  theta_star holds the
    (signed) teacher coefficients in the feature basis phi, the eigenvectors
    scaled so phi^T phi / n_tot is the identity; modes whose eigenvalue fell
    below the relative floor are reported in n_floored and carry a zero
    coefficient.
    """

    eigenvalues: np.ndarray
    theta_star: np.ndarray
    n_tot: int
    n_floored: int
    floor: float

    def to_csv(self, path) -> None:
        write_table(path, ("k", "eigenvalue", "theta_star"),
                    zip(range(1, self.eigenvalues.size + 1), self.eigenvalues, self.theta_star))


def _check_eigen_floor(floor_rel: float) -> None:
    if not (math.isfinite(floor_rel) and 0.0 <= floor_rel < 1.0):
        raise InvalidParameterError(f"eigenvalue floor must be in [0, 1), got {floor_rel}")


# Symmetrizing adds an entry to its mirror, which overflows from here up.
_SUM_OVERFLOW = 2.0 ** 1023


def feature_decomposition(gram: np.ndarray, labels: np.ndarray,
                          floor_rel: float = DEFAULT_EIGENVALUE_FLOOR) -> FeatureDecomposition:
    """Eigenvalues of gram / n_tot and the teacher coefficients.

    The teacher solves labels = phi Sigma^(1/2) theta_star exactly on the
    modes above the eigenvalue floor, so theta_star is Sigma^(-1/2) phi^T
    labels / n_tot there; near-null modes are excluded because the
    extraction divides by the eigenvalues.  phi^T labels comes from the
    labels' projections onto the eigenvectors, which are not formed.  A
    writeable, C-contiguous float64 gram is decomposed in its own buffer,
    any other in a copy made first; either way, as with LAPACK's overwritten
    inputs, the caller must not read gram afterwards.  gram is symmetrized
    here, whatever built it.  The heap's free pages go back to the OS before
    the eigensolver allocates its n^2 workspace, so that workspace does not
    sit on top of dead pages that an earlier call or the CSV parse left
    resident.
    """
    _check_eigen_floor(floor_rel)
    gram = np.require(gram, float, ("C", "W"))
    labels = np.asarray(labels, dtype=float)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise InvalidParameterError("gram must be square")
    n_tot = gram.shape[0]
    if n_tot == 0:
        raise InvalidParameterError("gram must have at least one row")
    if labels.shape != (n_tot,):
        raise InvalidParameterError("labels must be one vector per data row")
    finite = np.isfinite(labels)
    if not finite.all():
        i = int(np.argmin(finite))
        raise InvalidParameterError(f"labels have non-finite value {labels[i]} at row {i}")
    hi, lo = gram.max(), gram.min()
    if not (math.isfinite(hi) and math.isfinite(lo)):
        i, j = divmod(int(np.argmin(np.isfinite(gram))), n_tot)
        raise InvalidParameterError(
            f"gram matrix has non-finite entry {gram[i, j]} at ({i}, {j}); "
            "the kernel may have overflowed (try a smaller gamma or degree)")
    if max(hi, -lo) >= _SUM_OVERFLOW:
        i, j = divmod(int(np.argmax(np.abs(gram) >= _SUM_OVERFLOW)), n_tot)
        raise InvalidParameterError(
            f"gram matrix entry {gram[i, j]} at ({i}, {j}) is 2**1023 or more in magnitude, "
            "where symmetrizing overflows (try a smaller gamma or degree)")
    asym = _symmetrize(gram, n_tot)
    if asym > 1e-8 * max(hi, -lo, 1.0):
        raise InvalidParameterError(f"gram matrix asymmetric (max |K-K^T| = {asym:.3e})")

    _openblas._trim_heap()
    evals, proj = _openblas._eigh_projections(gram, labels.copy())
    if evals.min() < -1e-8 * max(evals.max(), 0.0):
        raise IndefiniteMatrixError(
            f"gram matrix has eigenvalue {evals.min():.3e} below the PSD tolerance"
        )
    # The eigenvalues come ascending.
    evals, proj = np.clip(evals[::-1], 0.0, None), proj[::-1]

    floor = floor_rel * evals[0] if evals[0] > 0 else 0.0
    # evals descend, so the modes above the floor are a prefix.
    n_active = int(np.sum(evals > floor))
    theta = np.zeros(n_tot)
    # phi = sqrt(n_tot) * eigenvectors, so phi^T labels = sqrt(n_tot) * proj.
    theta[:n_active] = np.sqrt(n_tot) * proj[:n_active] / (np.sqrt(evals[:n_active]) * n_tot)
    return FeatureDecomposition(eigenvalues=evals, theta_star=theta, n_tot=n_tot,
                                n_floored=n_tot - n_active, floor=float(floor))


def cumulative_tails(eigenvalues: np.ndarray, teacher_sq: np.ndarray):
    """Suffix sums (capacity tail of eigenvalues, source tail of eigenvalue * teacher_sq).

    Accumulated from the smallest terms upward for numerical stability;
    entry k (0-based) holds the sum over indices >= k.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    teacher_sq = np.asarray(teacher_sq, dtype=float)
    cap = np.cumsum(eigenvalues[::-1])[::-1]
    src = np.cumsum((eigenvalues * teacher_sq)[::-1])[::-1]
    return cap, src


def tails_to_csv(cap_tail: np.ndarray, src_tail: np.ndarray, path) -> None:
    write_table(path, ("k", "cap_tail", "src_tail"),
                zip(range(1, len(cap_tail) + 1), cap_tail, src_tail))


@dataclass(frozen=True)
class CapacitySourceEstimate:
    """Fitted capacity/source exponents with their fit windows and goodness of fit."""

    alpha_hat: float
    r_hat: float
    fit_range_capacity: tuple[int, int]
    fit_range_source: tuple[int, int]
    r2_capacity: float
    r2_source: float


def default_fit_range(n_tot: int) -> tuple[int, int]:
    """Bulk index window [n^0.1, n^0.6], avoiding the head and the finite-size drop."""
    lo = max(2, int(round(n_tot ** 0.1)))
    hi = max(lo + 4, int(round(n_tot ** 0.6)))
    return lo, min(hi, n_tot)


def _range_fit(tail: np.ndarray, fit_range: tuple[int, int]):
    lo, hi = fit_range
    n = tail.size
    if not (1 <= lo < hi <= n):
        raise DegenerateRangeError(f"fit range ({lo}, {hi}) invalid for tail of length {n}")
    k = np.arange(lo, hi + 1, dtype=float)
    vals = tail[lo - 1:hi]
    keep = vals > 0
    if keep.sum() < 5:
        raise DegenerateRangeError(
            f"fit range ({lo}, {hi}) has {int(keep.sum())} positive points, need >= 5"
        )
    return _loglog_fit(k[keep], vals[keep])


def fit_loglog_slope(x, y) -> tuple[float, float]:
    """Ordinary least squares slope and standard error of log y on log x."""
    return _loglog_fit(x, y)[:2]


def _loglog_fit(x, y) -> tuple[float, float, float]:
    """Least-squares slope of log y on log x, its standard error and r^2."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.size < 3:
        raise DegenerateWindowError(f"need at least 3 points, got {x.size}")
    for name, values in (("x", x), ("y", y)):
        bad = values[~np.isfinite(values)]
        if bad.size:
            raise DegenerateWindowError(f"log-log fit needs finite values, {name} holds {bad[0]}")
    if np.any(y <= 0) or np.any(x <= 0):
        raise DegenerateWindowError("log-log fit needs strictly positive values")
    lx, ly = np.log(x), np.log(y)
    if lx.min() == lx.max():
        raise DegenerateWindowError(f"log-log fit needs two distinct x values, all are {x[0]:g}")
    slope, intercept = np.polyfit(lx, ly, 1)
    dof, sxx = x.size - 2, float(((lx - lx.mean()) ** 2).sum())
    ss_res = float(((ly - (slope * lx + intercept)) ** 2).sum())
    stderr = math.sqrt(max(ss_res / dof, 0.0) / sxx) if dof > 0 else 0.0
    # r^2 sums the residuals grouped the other way, as the tail fits always have.
    ss_res = float(((ly - slope * lx - intercept) ** 2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    return float(slope), float(stderr), 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0


def estimate_alpha_r(cap_tail: np.ndarray, src_tail: np.ndarray,
                     fit_range_capacity: tuple[int, int] | None = None,
                     fit_range_source: tuple[int, int] | None = None) -> CapacitySourceEstimate:
    """Capacity and source exponents from the cumulative tails.

    The capacity tail decays like k^(1 - alpha) and the source tail like
    k^(-2 r alpha), so alpha_hat = 1 - capacity slope and
    r_hat = -source slope / (2 alpha_hat).  Warns (does not fail) when a
    fit explains less than 95% of the variance or the capacity estimate
    sits at its summability boundary.
    """
    n = len(cap_tail)
    if fit_range_capacity is None:
        fit_range_capacity = default_fit_range(n)
    if fit_range_source is None:
        fit_range_source = default_fit_range(n)
    cap_slope, _, r2_cap = _range_fit(np.asarray(cap_tail, dtype=float), fit_range_capacity)
    src_slope, _, r2_src = _range_fit(np.asarray(src_tail, dtype=float), fit_range_source)
    alpha_hat = 1.0 - cap_slope
    r_hat = -src_slope / (2.0 * alpha_hat) if alpha_hat != 0 else float("nan")
    if r2_cap < LOW_R2_WARNING or r2_src < LOW_R2_WARNING:
        warnings.warn(
            f"tail fits explain little variance (r2 capacity {r2_cap:.3f}, "
            f"source {r2_src:.3f}); power-law form questionable", stacklevel=2)
    if alpha_hat <= 1.05:
        warnings.warn(
            f"capacity estimate {alpha_hat:.3f} at the summability boundary", stacklevel=2)
    return CapacitySourceEstimate(alpha_hat=float(alpha_hat), r_hat=float(r_hat),
                                  fit_range_capacity=tuple(fit_range_capacity),
                                  fit_range_source=tuple(fit_range_source),
                                  r2_capacity=r2_cap, r2_source=r2_src)


def load_dataset_csv(path):
    """Numeric dataset CSV with a header row; returns (features, LABEL_COLUMN or None).

    The body is parsed by numpy's C reader: comma-separated fields, optionally
    in double quotes, blank lines skipped, no comment lines.  Every value must
    be a finite float literal, and at most one column may be LABEL_COLUMN.
    With a label column, the features are a view of the parsed table, whose
    label column is moved to the end in place, and the labels a copy.
    """
    with open(path, newline="") as f:
        # readline, unlike iteration, leaves f.tell() usable.
        header = next(csv.reader(iter(f.readline, "")), None)
        if header is None:
            raise SchemaError(f"{path}: missing header row")
        header = [h.strip() for h in header]
        if header.count(LABEL_COLUMN) > 1:
            raise SchemaError(f"{path}: column {LABEL_COLUMN!r} appears more than once")
        # Finding a data line here keeps numpy from warning on an empty body.
        body = f.tell()
        if not any(line.strip("\r\n") for line in iter(f.readline, "")):
            raise SchemaError(f"{path}: no data rows")
        f.seek(body)
        try:
            values = np.loadtxt(f, delimiter=",", ndmin=2, comments=None, quotechar='"')
        except ValueError as err:
            raise SchemaError(f"{path}: non-numeric entries ({err})") from err
    if values.shape[1] != len(header):
        raise SchemaError(f"{path}: row width differs from header width")
    finite = np.isfinite(values)
    if not finite.all():
        i, j = divmod(int(np.argmin(finite)), values.shape[1])
        raise SchemaError(f"{path}: non-finite value {values[i, j]} in data row {i + 1}, "
                          f"column {header[j]!r}")
    if LABEL_COLUMN not in header:
        return values, None
    j = header.index(LABEL_COLUMN)
    labels = values[:, j].copy()
    # Shifting the later columns left one block of rows at a time bounds the
    # copy numpy makes of an overlapping source.
    for i in range(0, values.shape[0], _BLOCK):
        values[i:i + _BLOCK, j:-1] = values[i:i + _BLOCK, j + 1:]
    values[:, -1] = labels
    return values[:, :-1], labels
