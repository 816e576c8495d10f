#!/usr/bin/env python3
"""Why inverting the mixing matrix is the wrong demixer under noise.

Compares three demixers on the same noisy model, scored by analytic
per-source SINR loss against the model optimum (``sinr_loss``, after
``match_columns`` pairs estimated columns with true ones):

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
    sinr_loss,
    sinr_optimal_demix,
)

model = make_model(n=6, m=6, cond=3.0, noise_power=0.67,
                   sources=finite_kurtosis_panel(6), seed=21)
opt = optimal_sinr(model)
print("optimal per-source SINR (dB):", np.round(10 * np.log10(opt), 2))


def mean_loss(B, perm=None):
    _, loss_db = sinr_loss(B, model, perm)
    return loss_db.mean()


print("\n-- oracle demixers (true mixing matrix) --")
print(f"pseudoinverse:   mean SINR loss {mean_loss(pinv_demix(model.A).B):.3f} dB")
loss = mean_loss(sinr_optimal_demix(model.A, analytic_cov(model)).B)
print(f"SINR-optimal:    mean SINR loss {loss:.3f} dB")

print("\n-- estimated mixing matrix (400k samples) --")
batch = draw_batch(model, 400_000, seed=5)
samples = center(batch.X)
emp = CumulantOracle(samples)
est = pegi_full(build_C(emp), emp, model.m, IterationConfig(epsilon=1e-6, rng_seed=3))
perm, _, angles = match_columns(est.A_hat, model.A)
print(f"column estimation error: max {angles.max():.2f} degrees")
loss = mean_loss(sinr_optimal_demix(est.A_hat, sample_cov(samples)).B, perm)
print(f"estimated + SINR-optimal: mean loss {loss:.3f} dB")
print(f"estimated + pseudoinverse: mean loss {mean_loss(pinv_demix(est.A_hat).B, perm):.3f} dB")
print("\nthe estimated SINR-optimal demixer tracks the oracle; the")
print("pseudoinverse leaves several dB on the table even with the true matrix")
