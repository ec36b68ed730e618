"""Monte-Carlo ridge regression against the closed-form prediction.

Draws Gaussian datasets from the power-law teacher model, fits ridge
regression exactly, measures the population excess error, and compares the
trial mean against the closed form at the same truncation.  Agreement is
within a few percent already at these desk-scale sizes.
"""

import time

from krr_regimes import (
    LamSchedule,
    PowerLawParams,
    SimConfig,
    learning_curve,
    power_law_spectrum,
)

spectrum = power_law_spectrum(PowerLawParams(2.0, 0.5, 4000))
t0 = time.time()
for sigma in (0.0, 0.5):
    config = SimConfig(spectrum=spectrum, n_values=(32, 64, 128, 256, 512),
                       sigma=sigma, lam_schedule=LamSchedule("fixed", lam=0.0),
                       trials=30, master_seed=1)
    curve = learning_curve(config)
    print(f"sigma = {sigma}")
    print(f"{'n':>6} {'simulation':>12} {'theory':>12} {'ratio':>7}  regime")
    for row in curve.rows:
        print(f"{row.n:>6} {row.mean_excess:>12.4e} {row.theory_excess:>12.4e} "
              f"{row.mean_excess / row.theory_excess:>7.3f}  {row.regime}")
    curve.to_csv(f"sim_vs_theory_sigma{sigma}.csv")
    print(f"wrote sim_vs_theory_sigma{sigma}.csv\n")
print(f"total {time.time() - t0:.1f}s")
