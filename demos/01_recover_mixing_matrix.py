#!/usr/bin/env python3
"""Recover a mixing matrix from noisy mixtures, end to end.

Builds an 8-dimensional model with the standard source panel (Laplace,
two Bernoullis, two Student-t, exponential, uniform — note the mix of
positive and negative kurtosis), draws samples under malaligned Gaussian
noise, and runs the fixed-point recovery twice: once with the cumulant
oracle built from the model's exact cumulants (sanity: machine-precision
recovery) and once with the oracle built from the samples alone.
"""

import numpy as np

from pegica import (
    CumulantOracle,
    IterationConfig,
    build_C,
    center,
    draw_batch,
    finite_kurtosis_panel,
    make_model,
    match_columns,
    pegi_full,
)

model = make_model(n=8, m=8, cond=3.0, noise_power=0.1,
                   sources=finite_kurtosis_panel(8), seed=7)
print("source panel:", ", ".join(s.label for s in model.sources))
print("source kurtoses:", [round(s.kappa4_closed_form, 2) for s in model.sources])
print(f"mixing condition number: {np.linalg.cond(model.A):.3f}")

print("\n-- model-built oracle (exact cumulants of the model) --")
oracle = CumulantOracle.from_model(model)
metric = build_C(oracle)
eigs = np.sort(metric.eigvals)
print(f"metric eigenvalues span both signs: [{eigs[0]:.2f} .. {eigs[-1]:.2f}]")
est = pegi_full(metric, oracle, model.m, IterationConfig(epsilon=1e-10, rng_seed=1))
perm, phases, angles = match_columns(est.A_hat, model.A)
print(f"max column angle: {angles.max():.2e} degrees (machine precision)")

print("\n-- sample-built oracle (one million samples, noise power 0.1) --")
batch = draw_batch(model, 1_000_000, seed=42)
emp = CumulantOracle(center(batch.X))
est = pegi_full(build_C(emp), emp, model.m, IterationConfig(epsilon=1e-6, rng_seed=1))
perm, phases, angles = match_columns(est.A_hat, model.A)
print("per-column angle errors (degrees):", np.round(angles, 3))
print(f"max column angle: {angles.max():.3f} degrees")
