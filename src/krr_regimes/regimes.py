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
        if not self.alpha > 1:
            raise InvalidParameterError(f"capacity exponent must be > 1, got {self.alpha}")
        if self.r < 0 or self.sigma < 0:
            raise InvalidParameterError("source exponent and noise std must be >= 0")
        if not self.lambda0 > 0:
            raise InvalidParameterError(f"lambda0 must be > 0, got {self.lambda0}")
        if self.n < 1:
            raise InvalidParameterError(f"sample count must be >= 1, got {self.n}")


@dataclass(frozen=True)
class RegimeLabel:
    """Region plus the predicted decay exponent of the excess error (0 for plateaus)."""

    region: Region
    exponent: float
    sublabel: str | None = None


def _msat(r: float) -> float:
    # Source saturation: exponents depend on r only through min(r, 1).
    return min(r, 1.0)


def _noise_scale(sigma: float, lambda0: float, alpha: float, r: float) -> float:
    """Noise level measured against the regularization prefactor.

    The regularized-branch noise comparison balances the two decay
    contributions lambda0^(2m) n^(-2 ell m) and
    sigma^2 lambda0^(-1/alpha) n^((ell-alpha)/alpha), which nets the
    prefactor exponent m + 1/(2 alpha).
    """
    m = _msat(r)
    return sigma / lambda0 ** (m + 1.0 / (2.0 * alpha))


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
    m = _msat(r)

    if ell < 0:
        return RegimeLabel(Region.BLUE_NOISELESS_REG, 0.0, sublabel="over-regularized")

    if _is_unregularized(query):
        noisy = sigma > 0 and sigma ** 2 >= n ** (-2.0 * a * m)
        if noisy:
            return RegimeLabel(Region.RED_NOISY_UNREG, 0.0)
        return RegimeLabel(Region.GREEN_NOISELESS_UNREG, 2.0 * a * m)

    c = 1.0 - (ell / a) * (1.0 + 2.0 * a * m)
    noisy = sigma > 0 and _noise_scale(sigma, query.lambda0, a, r) ** 2 >= n ** c
    if noisy:
        return RegimeLabel(Region.ORANGE_NOISY_REG, (a - ell) / a)
    return RegimeLabel(Region.BLUE_NOISELESS_REG, 2.0 * ell * m)


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
    return lambda0 ** (-1.0 / (alpha - ell))


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
    m = _msat(r)
    n_unreg = sigma ** (-1.0 / (alpha * m)) if m > 0 else None
    if ell >= alpha:
        return n_unreg

    n_reg_boundary = regularization_crossover_n(alpha, ell, lambda0)
    boundary = n_reg_boundary if n_reg_boundary is not None else 1.0
    if n_unreg is not None and 1.0 <= n_unreg <= boundary:
        # The noise catches up while the schedule is still unfelt.
        return n_unreg

    c = 1.0 - (ell / alpha) * (1.0 + 2.0 * alpha * m)
    if c == 0.0 or m == 0.0:
        return None
    n_reg = _noise_scale(sigma, lambda0, alpha, r) ** (2.0 / c)
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
    if not alpha > 1:
        raise InvalidParameterError(f"capacity exponent must be > 1, got {alpha}")
    if r < 0 or sigma < 0:
        raise InvalidParameterError("source exponent and noise std must be >= 0")
    if n < 1:
        raise InvalidParameterError(f"sample count must be >= 1, got {n}")
    m = _msat(r)
    ell_noisy = alpha / (1.0 + 2.0 * alpha * m)
    if sigma == 0.0 or m == 0.0:
        return OptimalDecay((alpha, math.inf), 2.0 * alpha * m, "noiseless")
    n1 = sigma ** (-1.0 / (alpha * m))
    n2 = sigma ** (-max(2.0, 1.0 / (alpha * m)))
    if n < n1:
        return OptimalDecay((alpha, math.inf), 2.0 * alpha * m, "noiseless")
    if n > n2:
        return OptimalDecay((ell_noisy, ell_noisy),
                            2.0 * alpha * m / (1.0 + 2.0 * alpha * m), "noisy")
    ell_c = (1.0 - 2.0 * math.log(sigma) / math.log(n)) * ell_noisy if n > 1 else ell_noisy
    return OptimalDecay((ell_c, ell_c), 2.0 * ell_c * m, "transition")


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
    m = _msat(r)
    noise_line: list[tuple[float, float]] = []
    if sigma > 0 and m > 0:
        n_vert = sigma ** (-1.0 / (alpha * m))
        for ell in ell_grid:
            if ell >= alpha:
                noise_line.append((n_vert, float(ell)))
            else:
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

    ell_star = alpha / (1.0 + 2.0 * alpha * m)
    optimal = (ell_star, 2.0 * alpha * m / (1.0 + 2.0 * alpha * m))
    return CrossoverLines(noise_line=noise_line, reg_line=reg_line, optimal_point=optimal)


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
