"""The cumulant oracle against reference formulas that share no code with it.

A sample-built oracle and the per-sample reference compute the same plug-in
statistics of the same samples, in a different order of floating-point
operations.  A model-built oracle and the closed forms below compute the
same exact cumulants of a known mixture.  Every functional must agree to
``RTOL`` relative to the reference's largest magnitude; observed
differences stay below 1e-11 (the largest at N = 2).  Real data from n=6
on with a well-conditioned covariance takes the float32 moment pass, so
at n=8 and n=12 the bound is ``RTOL_FLOAT32`` = 1e-4; observed differences
stay below 1e-5 (the largest, 9.4e-6, in ``source_z_score``, whose
direction ``cov(X)^+ column`` cancels most of the moments), and the columns
of an estimate move by at most 1e-3 degrees (3.1e-5 observed at n=12,
1.1e-5 at n=8).  Real n=8 data is also checked with the float32 pass
switched off, at the float64 bounds.
"""

import numpy as np
import pytest

from pegica import (
    CumulantOracle,
    IterationConfig,
    build_C,
    center,
    draw_batch,
    match_columns,
    pegi_full,
)
from pegica import cumulants
from pegica.cumulants import _chunk_rows
from conftest import make_test_model
from per_sample_oracle import PerSampleOracle

RTOL = 1e-10
RTOL_FLOAT32 = 1e-4
N_DIM = 5
FUNCTIONALS = ("f", "fstar", "grad_f", "kurtosis_z_score", "source_z_score")
COMPLEX = pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
# N = 2 (the smallest sample), below one chunk, and one row past two chunks
EDGES = pytest.mark.parametrize("edge", ["two", "below_chunk", "chunks_plus_one"])


def _assert_close(value, reference, rtol=RTOL):
    value, reference = np.asarray(value), np.asarray(reference)
    assert value.shape == reference.shape
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(value - reference)) <= rtol * scale


def _oracles(n, N, complex_field):
    model = make_test_model(n=n, noise_power=0.1, seed=41, complex_phases=complex_field)
    samples = center(draw_batch(model, N, seed=42).X)
    return CumulantOracle(samples), PerSampleOracle(samples)


def _check_functionals(n, edge, complex_field, rng, float32=False):
    # the moment pass's own chunk rule, so N straddles its chunk boundaries
    itemsize = 4 if float32 else 16 if complex_field else 8
    rows = _chunk_rows(n, itemsize)
    N = {"two": 2, "below_chunk": rows // 3, "chunks_plus_one": 2 * rows + 1}[edge]
    rtol = RTOL_FLOAT32 if float32 else RTOL
    oracle, reference = _oracles(n, N, complex_field)
    assert oracle.is_complex == complex_field
    _assert_close(oracle.build_C_matrix(), reference.build_C_matrix(), rtol)
    for _ in range(4):
        u = rng.standard_normal(n)
        if complex_field:
            u = u + 1j * rng.standard_normal(n)
        for name in FUNCTIONALS:
            _assert_close(getattr(oracle, name)(u), getattr(reference, name)(u), rtol)


def _check_estimate(n, complex_field, max_degrees=1e-6):
    # same starts, same gate decisions: the columns differ only by the
    # oracles' rounding, far below a microdegree in float64
    oracle, reference = _oracles(n, 100_000, complex_field)
    cfg = IterationConfig(epsilon=1e-9, rng_seed=3)
    est = pegi_full(build_C(oracle), oracle, n, cfg)
    ref = pegi_full(build_C(reference), reference, n, cfg)
    perm, _, angles = match_columns(est.A_hat, ref.A_hat)
    assert list(perm) == list(range(n))
    assert np.max(angles) <= max_degrees


@COMPLEX
@EDGES
def test_functionals_match_per_sample_formulas(edge, complex_field, rng):
    _check_functionals(N_DIM, edge, complex_field, rng)


# n=8 is the size of the tall, sweep and cli_chain benchmarks, and the
# moment pass cuts its middle index into three groups; real data there takes
# the float32 pass, except at N = 2, whose singular covariance keeps it on
# float64
@COMPLEX
@EDGES
def test_functionals_match_per_sample_formulas_at_n8(edge, complex_field, rng):
    _check_functionals(8, edge, complex_field, rng, float32=not complex_field)


@EDGES
def test_float64_pass_matches_per_sample_formulas_at_n8(edge, rng, monkeypatch):
    monkeypatch.setattr(cumulants, "_FLOAT32_MIN_DIM", np.inf)
    _check_functionals(8, edge, False, rng)


@EDGES
def test_functionals_match_per_sample_formulas_at_n12(edge, rng):
    _check_functionals(12, edge, False, rng, float32=True)


@COMPLEX
def test_pegi_full_matches_reference_estimate(complex_field):
    _check_estimate(N_DIM, complex_field)


@COMPLEX
def test_pegi_full_matches_reference_estimate_at_n8(complex_field):
    _check_estimate(8, complex_field, max_degrees=1e-6 if complex_field else 1e-3)


def test_float64_pass_matches_reference_estimate_at_n8(monkeypatch):
    monkeypatch.setattr(cumulants, "_FLOAT32_MIN_DIM", np.inf)
    _check_estimate(8, False)


def test_pegi_full_matches_reference_estimate_at_n12():
    _check_estimate(12, False, max_degrees=1e-3)


class ClosedFormOracle:
    """Exact functionals of ``X = A S + noise``, written per source.

    With ``z = A^T conj(u)``: ``f = sum k4 z^4``, ``fstar = sum k4* |z|^4``,
    ``grad_f = 4 A (z^3 k4)`` and ``C = A diag(||a||^2 k4) A^T`` (a conjugate on the left factor for
    complex data).  Real sources have ``k4* = k4``.
    """

    def __init__(self, A, k4):
        self.A, self.k4 = A, k4
        self.is_complex = np.iscomplexobj(A)

    def _coords(self, u):
        return self.A.T @ np.conj(u)

    def f(self, u):
        value = np.sum(self._coords(u) ** 4 * self.k4)
        return complex(value) if self.is_complex else float(value.real)

    def fstar(self, u):
        return float(np.sum(np.abs(self._coords(u)) ** 4 * self.k4))

    def grad_f(self, u):
        z = self._coords(u)
        g = 4.0 * (self.A @ (z**3 * self.k4))
        return g if self.is_complex else g.real

    def build_C_matrix(self):
        col_norm2 = np.einsum("ij,ij->j", self.A.conj(), self.A).real
        return (self.A.conj() * (col_norm2 * self.k4)) @ self.A.T


@pytest.mark.parametrize("case", ["real", "complex"])
def test_model_built_functionals_match_closed_forms(case, rng):
    model = make_test_model(n=N_DIM, seed=43, complex_phases=case != "real")
    k4 = np.array([s.kappa4_closed_form for s in model.sources])
    oracle = CumulantOracle.from_mixing(model.A, k4)
    reference = ClosedFormOracle(model.A, k4)
    assert oracle.is_complex == reference.is_complex == (case != "real")
    _assert_close(oracle.build_C_matrix(), reference.build_C_matrix())
    for _ in range(4):
        u = rng.standard_normal(N_DIM)
        if oracle.is_complex:
            u = u + 1j * rng.standard_normal(N_DIM)
        for name in ("f", "fstar", "grad_f"):
            _assert_close(getattr(oracle, name)(u), getattr(reference, name)(u))
        assert oracle.kurtosis_z_score(u) is None
        assert oracle.source_z_score(u) is None


def test_model_built_oracle_refuses_complex_cumulants():
    # casting to float would drop the imaginary parts with only a warning
    model = make_test_model(n=N_DIM, seed=43)
    k4 = np.array([s.kappa4_closed_form for s in model.sources], dtype=complex)
    with pytest.raises(ValueError, match="must be real"):
        CumulantOracle.from_mixing(model.A, k4)
    with pytest.raises(ValueError, match="must be real"):
        CumulantOracle.from_mixing(model.A, k4 * np.exp(0.3j))
