#!/usr/bin/env python3
"""Why inverting the mixing matrix is the wrong demixer under noise.

Compares three demixers on the same noisy model, scored by analytic
per-source SINR:

* the oracle pseudoinverse of the true mixing matrix,
* the SINR-optimal construction A^H cov(X)^+ from the true matrix,
* the same construction from an *estimated* matrix (scale and
  permutation unknown) — which matches the oracle, because the optimal
  demixer only needs the column directions and the covariance.
"""

import numpy as np

from pegica import (
    CumulantOracle,
    IterationConfig,
    analytic_cov,
    build_C,
    center,
    draw_batch,
    finite_kurtosis_panel,
    make_model,
    match_columns,
    optimal_sinr,
    pegi_full,
    pinv_demix,
    sample_cov,
    sinr_k,
    sinr_loss,
    sinr_optimal_demix,
)

model = make_model(n=6, m=6, cond=3.0, noise_power=0.67,
                   sources=finite_kurtosis_panel(6), seed=21)
opt = optimal_sinr(model)
print("optimal per-source SINR (dB):", np.round(10 * np.log10(opt), 2))


def score(B, perm=None):
    m = model.m
    perm = np.arange(m) if perm is None else perm
    achieved = np.empty(m)
    for j in range(m):
        achieved[int(perm[j])] = sinr_k(B[j], model, int(perm[j]))
    return sinr_loss(achieved, model, permutation=perm)


print("\n-- oracle demixers (true mixing matrix) --")
report = score(pinv_demix(model.A).B)
print(f"pseudoinverse:   mean SINR loss {report.mean_sinr_loss_db:.3f} dB")
report = score(sinr_optimal_demix(model.A, analytic_cov(model)).B)
print(f"SINR-optimal:    mean SINR loss {report.mean_sinr_loss_db:.3f} dB")

print("\n-- estimated mixing matrix (400k samples) --")
batch = draw_batch(model, 400_000, seed=5)
samples = center(batch.X)
emp = CumulantOracle(samples)
est = pegi_full(build_C(emp), emp, model.m, IterationConfig(epsilon=1e-6, rng_seed=3))
perm, _, angles = match_columns(est.A_hat, model.A)
print(f"column estimation error: max {angles.max():.2f} degrees")
report = score(sinr_optimal_demix(est.A_hat, sample_cov(samples)).B, perm)
print(f"estimated + SINR-optimal: mean loss {report.mean_sinr_loss_db:.3f} dB")
report = score(pinv_demix(est.A_hat).B, perm)
print(f"estimated + pseudoinverse: mean loss {report.mean_sinr_loss_db:.3f} dB")
print("\nthe estimated SINR-optimal demixer tracks the oracle; the")
print("pseudoinverse leaves several dB on the table even with the true matrix")
