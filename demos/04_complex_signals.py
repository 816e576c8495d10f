#!/usr/bin/env python3
"""Complex-valued mixtures: recovery up to unit-modulus factors.

A complex model is built by rotating each real mixing column by a random
phase.  Recovery then works in C^n: the update uses the conjugated
pseudoinverse of the metric, and convergence is declared modulo a unit
modulus factor (the closed-form phase from the atan2 rule).  Matching
reports the phase each recovered column needs to line up with the truth.
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

model = make_model(n=4, m=4, cond=3.0, noise_power=0.1,
                   sources=finite_kurtosis_panel(4), seed=33,
                   complex_phases=True)
print("mixing matrix is complex:", model.is_complex)

print("\n-- model-built oracle --")
oracle = CumulantOracle.from_model(model)
est = pegi_full(build_C(oracle), oracle, 4, IterationConfig(epsilon=1e-10, rng_seed=2))
perm, phases, angles = match_columns(est.A_hat, model.A)
print(f"max column angle: {angles.max():.2e} degrees")
print("aligning phases (unit modulus):")
for j, ph in enumerate(phases):
    print(f"  column {j} -> true column {perm[j]}: phase {ph:.4f} (|.|={abs(ph):.6f})")

print("\n-- sample-built, 300k samples --")
batch = draw_batch(model, 300_000, seed=14)
emp = CumulantOracle(center(batch.X))
est = pegi_full(build_C(emp), emp, 4, IterationConfig(epsilon=1e-6, rng_seed=2))
perm, phases, angles = match_columns(est.A_hat, model.A)
print("per-column angle errors (degrees):", np.round(angles, 3))
