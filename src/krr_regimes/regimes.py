"""Decay-regime classification, crossover scales and phase diagrams.

Four asymptotic regimes are distinguished by two binary splits: whether the
ridge schedule lam = lambda0 * n^-ell is effectively felt (regularized) or
not, and whether the label noise dominates the excess error (noisy) or not.
Crossover locations are order-of-magnitude scales with unit constants, not
sharp thresholds; tests that look for them on actual learning curves use a
factor-3 tolerance window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParameterError
from .table import write_table


class Region(str, Enum):
    GREEN_NOISELESS_UNREG = "GreenNoiselessUnreg"
    RED_NOISY_UNREG = "RedNoisyUnreg"
    BLUE_NOISELESS_REG = "BlueNoiselessReg"
    ORANGE_NOISY_REG = "OrangeNoisyReg"


@dataclass(frozen=True)
class RegimeQuery:
    """Point of the phase diagram: exponents, noise level, ridge schedule and sample count.

    ell = inf encodes exactly zero regularization.  lambda0 is the prefactor
    of the schedule lam = lambda0 * n^-ell.
    """

    alpha: float
    r: float
    sigma: float
    ell: float
    n: float
    lambda0: float = 1.0

    def __post_init__(self):
        _check_point(self.alpha, self.r, self.sigma, self.n, self.lambda0)
        if math.isnan(self.ell):
            raise InvalidParameterError("decay exponent ell must not be NaN")


@dataclass(frozen=True)
class RegimeLabel:
    """Region plus the predicted decay exponent of the excess error (0 for plateaus)."""

    region: Region
    exponent: float
    sublabel: str | None = None


def _check_point(alpha: float, r: float, sigma: float, n: float, lambda0: float) -> None:
    """Reject a phase-diagram point outside the domain; NaN fails every comparison
    and inf every upper bound."""
    if not 1 < alpha < math.inf:
        raise InvalidParameterError(f"capacity exponent must be finite and > 1, got {alpha}")
    if not (0 <= r < math.inf and 0 <= sigma < math.inf):
        raise InvalidParameterError("source exponent and noise std must be finite and >= 0")
    if not 0 < lambda0 < math.inf:
        raise InvalidParameterError(f"lambda0 must be finite and > 0, got {lambda0}")
    if not 1 <= n < math.inf:
        raise InvalidParameterError(f"sample count must be finite and >= 1, got {n}")


def _msat(r: float) -> float:
    # Source saturation: exponents depend on r only through min(r, 1).
    return min(r, 1.0)


def _pow(base: float, exponent: float) -> float:
    """base ** exponent, saturating at inf where the result leaves the float range."""
    try:
        return base ** exponent
    except (OverflowError, ZeroDivisionError):
        return math.inf


def region_exponent(region: Region, alpha: float, r: float, ell: float = math.inf) -> float:
    """Decay exponent of the excess error in region: with m = min(r, 1), 2 alpha m,
    0 (the noise plateau), 2 ell m or (alpha - ell) / alpha.

    No domain check: exponents estimated from data are reported as they come.
    """
    m = _msat(r)
    if region is Region.GREEN_NOISELESS_UNREG:
        return 2.0 * alpha * m
    if region is Region.RED_NOISY_UNREG:
        return 0.0
    if region is Region.BLUE_NOISELESS_REG:
        return 2.0 * ell * m
    return (alpha - ell) / alpha


def noisy_optimum(alpha: float, r: float) -> tuple[float, float]:
    """Optimal noisy decay ell* = alpha / (1 + 2 alpha m) and its rate 2 alpha m / (1 + 2 alpha m),
    where the two regularized rates balance.  No domain check."""
    rate = region_exponent(Region.GREEN_NOISELESS_UNREG, alpha, r)
    return alpha / (1.0 + rate), rate / (1.0 + rate)


def _ridgeless_noise_n(alpha: float, r: float, sigma: float) -> float | None:
    """Unregularized noise crossover sigma^(-1/(alpha m)); None when m = 0."""
    m = _msat(r)
    return _pow(sigma, -1.0 / (alpha * m)) if m > 0 else None


def _noise_power(alpha: float, r: float, ell: float) -> float:
    """Power 1 - (ell/alpha)(1 + 2 alpha m) of n in the regularized noise comparison."""
    return 1.0 - (ell / alpha) * (1.0 + region_exponent(Region.GREEN_NOISELESS_UNREG, alpha, r))


def _noise_scale(sigma: float, lambda0: float, alpha: float, r: float) -> float:
    """Noise level measured against the regularization prefactor.

    The regularized-branch noise comparison balances the two decay
    contributions lambda0^(2m) n^(-2 ell m) and
    sigma^2 lambda0^(-1/alpha) n^((ell-alpha)/alpha), which nets the
    prefactor exponent m + 1/(2 alpha).
    """
    scale = _pow(lambda0, _msat(r) + 1.0 / (2.0 * alpha))
    return sigma / scale if scale > 0.0 else math.inf


def _is_unregularized(query: RegimeQuery) -> bool:
    if query.ell >= query.alpha:
        return True
    n_reg = regularization_crossover_n(query.alpha, query.ell, query.lambda0)
    if n_reg is None:
        # lambda0 > 1 pushes the boundary below n = 1: regularized throughout.
        return False
    return query.n < n_reg


def classify(query: RegimeQuery) -> RegimeLabel:
    """Assign a phase-diagram point to its regime and predicted decay exponent.

    Boundary conventions are closed on the left: ell >= alpha counts as
    unregularized, n at or past a crossover counts as the later regime.
    Negative ell (regularization growing with n) stalls the error at O(1)
    and is reported with an 'over-regularized' sublabel.
    """
    a, r, sigma, ell, n = query.alpha, query.r, query.sigma, query.ell, query.n

    if ell < 0:
        return RegimeLabel(Region.BLUE_NOISELESS_REG, 0.0, sublabel="over-regularized")

    if _is_unregularized(query):
        noisy = sigma > 0 and _pow(sigma, 2) >= n ** -region_exponent(
            Region.GREEN_NOISELESS_UNREG, a, r)
        region = Region.RED_NOISY_UNREG if noisy else Region.GREEN_NOISELESS_UNREG
    else:
        noisy = sigma > 0 and _pow(_noise_scale(sigma, query.lambda0, a, r), 2) \
            >= n ** _noise_power(a, r, ell)
        region = Region.ORANGE_NOISY_REG if noisy else Region.BLUE_NOISELESS_REG
    return RegimeLabel(region, region_exponent(region, a, r, ell))


def regularization_crossover_n(alpha: float, ell: float, lambda0: float) -> float | None:
    """Sample-count scale where the ridge schedule starts to be felt.

    Returns lambda0^(-1/(alpha-ell)) for ell < alpha, None when the
    schedule decays too fast to ever matter (ell >= alpha) or when the
    boundary sits below one sample (lambda0 > 1).
    """
    if not lambda0 > 0:
        raise InvalidParameterError(f"lambda0 must be > 0, got {lambda0}")
    if ell >= alpha:
        return None
    if lambda0 > 1.0:
        return None
    return _pow(lambda0, -1.0 / (alpha - ell))


def noise_crossover_n(alpha: float, r: float, sigma: float, ell: float,
                      lambda0: float = 1.0) -> float | None:
    """Sample-count scale of the noise-induced crossover, None if there is none.

    On the unregularized branch (ell >= alpha, or before the regularization
    boundary) the scale is sigma^(-1/(alpha min(r,1))).  On the regularized
    branch the two variance contributions balance at
    (sigma / lambda0^(min(r,1) + 1/(2 alpha)))^(2 / (1 - (ell/alpha)(1 + 2 alpha min(r,1)))),
    provided that value exceeds both one sample and the regularization
    boundary; for slow decays with noise below the prefactor threshold the
    crossover disappears (the regularization always mitigates the noise).
    """
    if not sigma > 0:
        raise InvalidParameterError(f"noise std must be > 0, got {sigma}")
    n_unreg = _ridgeless_noise_n(alpha, r, sigma)
    if ell >= alpha:
        return n_unreg

    n_reg_boundary = regularization_crossover_n(alpha, ell, lambda0)
    boundary = n_reg_boundary if n_reg_boundary is not None else 1.0
    if n_unreg is not None and 1.0 <= n_unreg <= boundary:
        # The noise catches up while the schedule is still unfelt.
        return n_unreg

    c = _noise_power(alpha, r, ell)
    if c == 0.0 or n_unreg is None:
        return None
    n_reg = _pow(_noise_scale(sigma, lambda0, alpha, r), 2.0 / c)
    if n_reg >= max(1.0, boundary):
        return n_reg
    return None


@dataclass(frozen=True)
class OptimalDecay:
    """Asymptotically optimal ridge decay for a given noise level and sample count.

    ell_range is a closed interval; on the noiseless side any decay faster
    than the capacity exponent is optimal, so the upper end is inf.  zone is
    'noiseless', 'noisy' or 'transition'; in the transition zone the
    reported ell carries a log-correction and the excess decay is not a
    clean power law there.
    """

    ell_range: tuple[float, float]
    exponent: float
    zone: str


def optimal_decay(alpha: float, r: float, sigma: float, n: float) -> OptimalDecay:
    """Best regularization decay exponent and the resulting error decay."""
    _check_point(alpha, r, sigma, n, 1.0)
    m = _msat(r)
    if sigma == 0.0 or m == 0.0 or n < _ridgeless_noise_n(alpha, r, sigma):
        return OptimalDecay((alpha, math.inf),
                            region_exponent(Region.GREEN_NOISELESS_UNREG, alpha, r), "noiseless")
    ell_star, rate = noisy_optimum(alpha, r)
    if n > _pow(sigma, -max(2.0, 1.0 / (alpha * m))):
        return OptimalDecay((ell_star, ell_star), rate, "noisy")
    ell_c = (1.0 - 2.0 * math.log(sigma) / math.log(n)) * ell_star if n > 1 else ell_star
    return OptimalDecay((ell_c, ell_c),
                        region_exponent(Region.BLUE_NOISELESS_REG, alpha, r, ell_c), "transition")


@dataclass(frozen=True)
class CrossoverLines:
    """Crossover polylines in the (n, ell) plane plus the asymptotic optimum.

    noise_line and reg_line are lists of (n, ell) vertices; optimal_point is
    (ell_star, exponent) for the large-sample optimally-regularized decay.
    """

    noise_line: list[tuple[float, float]]
    reg_line: list[tuple[float, float]]
    optimal_point: tuple[float, float]


@dataclass(frozen=True)
class PhaseDiagram:
    n_grid: np.ndarray
    ell_grid: np.ndarray
    labels: list[list[RegimeLabel]]  # indexed [i_ell][j_n]
    lines: CrossoverLines


def _crossover_lines(alpha: float, r: float, sigma: float, lambda0: float,
                     n_grid: np.ndarray, ell_grid: np.ndarray) -> CrossoverLines:
    noise_line: list[tuple[float, float]] = []
    if sigma > 0:
        for ell in ell_grid:
            n_cross = noise_crossover_n(alpha, r, sigma, float(ell), lambda0)
            if n_cross is not None:
                noise_line.append((n_cross, float(ell)))

    reg_line: list[tuple[float, float]] = []
    if lambda0 == 1.0:
        reg_line = [(float(n), alpha) for n in n_grid]
    else:
        for ell in ell_grid:
            n_reg = regularization_crossover_n(alpha, float(ell), lambda0)
            if n_reg is not None:
                reg_line.append((n_reg, float(ell)))

    return CrossoverLines(noise_line=noise_line, reg_line=reg_line,
                          optimal_point=noisy_optimum(alpha, r))


def phase_diagram(alpha: float, r: float, sigma: float, lambda0: float,
                  n_grid, ell_grid) -> PhaseDiagram:
    """Classify every (n, ell) grid cell and compute the crossover polylines."""
    n_grid = np.asarray(n_grid, dtype=float)
    ell_grid = np.asarray(ell_grid, dtype=float)
    if n_grid.size == 0 or ell_grid.size == 0:
        raise InvalidParameterError("grids must be non-empty")
    if np.any(np.diff(n_grid) <= 0) or np.any(np.diff(ell_grid) <= 0):
        raise InvalidParameterError("grids must be strictly increasing")
    labels = [
        [
            classify(RegimeQuery(alpha=alpha, r=r, sigma=sigma, ell=float(ell),
                                 n=float(n), lambda0=lambda0))
            for n in n_grid
        ]
        for ell in ell_grid
    ]
    lines = _crossover_lines(alpha, r, sigma, lambda0, n_grid, ell_grid)
    return PhaseDiagram(n_grid=n_grid, ell_grid=ell_grid, labels=labels, lines=lines)


def write_phase_diagram_csv(diagram: PhaseDiagram, path) -> None:
    """Grid CSV with columns (n, ell, region, exponent)."""
    write_table(path, ("n", "ell", "region", "exponent"),
                ((n, ell, lab.region.value, lab.exponent)
                 for ell, row in zip(diagram.ell_grid, diagram.labels)
                 for n, lab in zip(diagram.n_grid, row)))


def write_crossover_lines_csv(lines: CrossoverLines, path) -> None:
    """Polyline CSV with columns (line_id, n, ell)."""
    write_table(path, ("line_id", "n", "ell"),
                [("noise", n, ell) for n, ell in lines.noise_line]
                + [("regularization", n, ell) for n, ell in lines.reg_line])
