"""Capacity/source estimation pipeline on a planted dataset.

Generates Gaussian data whose covariance spectrum and teacher follow known
power laws, runs the full empirical pipeline (Gram matrix, eigenbasis under
the empirical measure, teacher extraction, cumulative tails, log-log fits),
and compares the recovered exponents with the planted ones.  The same
pipeline applies to real numeric CSV datasets through the `estimate` CLI
subcommand.
"""

import time

import numpy as np

from krr_regimes import (
    KernelSpec,
    PowerLawParams,
    Region,
    cumulative_tails,
    estimate_alpha_r,
    feature_decomposition,
    gram_matrix,
    noisy_optimum,
    power_law_spectrum,
    region_exponent,
    sample_dataset,
)

ALPHA, R = 2.0, 0.5
N_TOT = 2000

t0 = time.time()
spectrum = power_law_spectrum(PowerLawParams(ALPHA, R, 3000))
data, labels = sample_dataset(spectrum, N_TOT, 0.0, seed=11)
gram = gram_matrix(data, KernelSpec("linear", gamma=1.0))
decomposition = feature_decomposition(gram, labels)
cap_tail, src_tail = cumulative_tails(decomposition.eigenvalues,
                                      decomposition.theta_star ** 2)
estimate = estimate_alpha_r(cap_tail, src_tail)

print(f"planted:   alpha = {ALPHA}, r = {R}")
print(f"recovered: alpha = {estimate.alpha_hat:.4f} "
      f"({abs(estimate.alpha_hat - ALPHA) / ALPHA:.1%} off), "
      f"r = {estimate.r_hat:.4f} ({abs(estimate.r_hat - R) / R:.1%} off)")
print(f"fit windows: capacity k in {estimate.fit_range_capacity}, "
      f"source k in {estimate.fit_range_source}")
print(f"fit quality: r2 = {estimate.r2_capacity:.5f} / {estimate.r2_source:.5f}")
print(f"floored modes: {decomposition.n_floored} below "
      f"{decomposition.floor:.2e}")

ridgeless = region_exponent(Region.GREEN_NOISELESS_UNREG, estimate.alpha_hat, estimate.r_hat)
ell_star, rate = noisy_optimum(estimate.alpha_hat, estimate.r_hat)
print("\npredicted decays from the recovered exponents:")
print(f"  noiseless ridgeless:   n^-{ridgeless:.3f}")
print(f"  noisy ridgeless:       plateau")
print(f"  noisy optimally tuned: n^-{rate:.3f} with lambda* ~ n^-{ell_star:.3f}")
print(f"\ntotal {time.time() - t0:.1f}s")
