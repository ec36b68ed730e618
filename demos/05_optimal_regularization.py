"""Optimally tuned ridge: the two optimal rates and the lambda*(n) decay.

Tuning the ridge per sample count gives the fast noiseless rate while the
noise is unfelt, and the slower classical rate once the sample count passes
the noise scale; the optimal ridge itself then decays like
n^(-alpha / (1 + 2 alpha min(r,1))).
"""

import numpy as np

from krr_regimes import (
    PowerLawParams,
    fit_loglog_slope,
    noisy_optimum,
    optimal_decay,
    optimal_lambda,
    power_law_spectrum,
)

ALPHA, R, SIGMA = 2.0, 0.5, 0.5
spectrum = power_law_spectrum(PowerLawParams(ALPHA, R, 100_000))
grid = np.concatenate([[0.0], np.geomspace(1e-8, 1.0, 141)])

print(f"{'n':>8} {'lambda*':>10} {'excess*':>12} {'zone':>11}")
ns = np.unique(np.geomspace(10, 1e6, 13).astype(int))
lams, excesses = [], []
for n in ns:
    lam_star, excess_star = optimal_lambda(int(n), SIGMA, spectrum, grid)
    zone = optimal_decay(ALPHA, R, SIGMA, float(n)).zone
    lams.append(lam_star)
    excesses.append(excess_star)
    print(f"{n:>8} {lam_star:>10.2e} {excess_star:>12.4e} {zone:>11}")

big = ns >= 1e4
slope_excess, _ = fit_loglog_slope(ns[big], np.array(excesses)[big])
slope_lam, _ = fit_loglog_slope(ns[big], np.array(lams)[big])
ell_star, rate = noisy_optimum(ALPHA, R)
print(f"\nlarge-n excess slope  {slope_excess:+.3f}  (prediction {-rate:+.3f})")
print(f"large-n lambda* slope {slope_lam:+.3f}  (prediction {-ell_star:+.3f})")
