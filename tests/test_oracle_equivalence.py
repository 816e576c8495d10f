"""The one-pass oracle against the per-sample reference formulas.

Both compute the same plug-in statistics of the same samples, in a
different order of floating-point operations.  Every functional must agree
to ``RTOL`` relative to the reference's largest magnitude; observed
differences stay below 1e-13.
"""

import numpy as np
import pytest

from pegica import (
    EmpiricalCumulantOracle,
    IterationConfig,
    build_C,
    center,
    draw_batch,
    match_columns,
    pegi_full,
)
from pegica.cumulants import _CHUNK_BYTES
from conftest import make_test_model
from per_sample_oracle import PerSampleOracle

RTOL = 1e-10
N_DIM = 5
FUNCTIONALS = ("f", "fstar", "grad_f", "hess_fstar", "kurtosis_z_score", "source_z_score")


def _chunk_rows(complex_field):
    pairs = N_DIM * (N_DIM + 1) // 2
    return _CHUNK_BYTES // (pairs * (16 if complex_field else 8))


def _assert_close(value, reference):
    value, reference = np.asarray(value), np.asarray(reference)
    assert value.shape == reference.shape
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(value - reference)) <= RTOL * scale


def _oracles(N, complex_field):
    model = make_test_model(n=N_DIM, noise_power=0.1, seed=41, complex_phases=complex_field)
    samples = center(draw_batch(model, N, seed=42).X)
    return EmpiricalCumulantOracle(samples), PerSampleOracle(samples)


# N = 2 (the smallest sample), below one chunk, and one row past two chunks
@pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("edge", ["two", "below_chunk", "chunks_plus_one"])
def test_functionals_match_per_sample_formulas(edge, complex_field, rng):
    rows = _chunk_rows(complex_field)
    N = {"two": 2, "below_chunk": rows // 3, "chunks_plus_one": 2 * rows + 1}[edge]
    oracle, reference = _oracles(N, complex_field)
    assert oracle.is_complex == complex_field
    _assert_close(oracle.build_C_matrix(), reference.build_C_matrix())
    for _ in range(4):
        u = rng.standard_normal(N_DIM)
        if complex_field:
            u = u + 1j * rng.standard_normal(N_DIM)
        for name in FUNCTIONALS:
            _assert_close(getattr(oracle, name)(u), getattr(reference, name)(u))


@pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
def test_pegi_full_matches_reference_estimate(complex_field):
    # same starts, same gate decisions: the columns differ only by the
    # oracles' rounding, far below a microdegree
    oracle, reference = _oracles(100_000, complex_field)
    cfg = IterationConfig(epsilon=1e-9, rng_seed=3)
    est = pegi_full(build_C(oracle), oracle, N_DIM, cfg)
    ref = pegi_full(build_C(reference), reference, N_DIM, cfg)
    perm, _, angles = match_columns(est.A_hat, ref.A_hat)
    assert list(perm) == list(range(N_DIM))
    assert np.max(angles) <= 1e-6  # degrees
