"""Shared helpers: independent numerical oracles used to check the library.

These deliberately avoid the library's own code paths: finite differences
for gradients, explicit pseudoinverses, exhaustive assignment for column
matching, and plain eigendecompositions.
"""

import itertools

import numpy as np
import pytest

from pegica import finite_kurtosis_panel, make_model, source_spec


def fd_gradient(func, u, h=1e-4):
    """Central finite differences of a real scalar function of a real or
    complex vector: ``d/d Re(u) + i d/d Im(u)`` for complex ``u`` (the
    gradient in its real coordinates, the convention of ``grad_f``)."""
    u = np.asarray(u)
    steps = (1.0, 1j) if np.iscomplexobj(u) else (1.0,)
    g = np.zeros(u.shape, dtype=complex)
    for i in range(u.shape[0]):
        for step in steps:
            e = np.zeros(u.shape, dtype=u.dtype)
            e[i] = step
            g[i] += step * (func(u + h * e) - func(u - h * e)) / (2.0 * h)
    return g if np.iscomplexobj(u) else g.real


def brute_force_assignment(score):
    """Permutation maximizing the summed score, by full enumeration."""
    m = score.shape[0]
    rows = np.arange(m)
    best, best_perm = -np.inf, None
    for p in itertools.permutations(range(m)):
        total = score[rows, list(p)].sum()
        if total > best:
            best, best_perm = total, np.array(p, dtype=int)
    return best_perm


def moderate_panel(m):
    """Finite-kurtosis sources with |kappa4| <= 6, mixed sign.  Keeps the
    Monte-Carlo error of fourth-moment statistics small enough for tight
    absolute tolerances (bernoulli(0.05)'s kurtosis of ~15 comes with
    eighth moments in the thousands)."""
    families = ("laplace", "uniform", "exponential", "bernoulli(0.5)", "student_t(5)")
    reps = -(-m // len(families))
    return tuple(source_spec(t) for t in (families * reps)[:m])


def make_test_model(n=6, m=None, cond=3.0, noise_power=0.1, seed=0,
                    complex_phases=False, moderate=False):
    """Benchmark-style model restricted to finite-kurtosis sources, so the
    analytic oracle always applies."""
    m = n if m is None else m
    sources = moderate_panel(m) if moderate else finite_kurtosis_panel(m)
    return make_model(n, m, cond, noise_power, sources, seed, complex_phases)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
