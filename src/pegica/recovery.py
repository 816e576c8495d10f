"""Mixing-matrix recovery by gradient iteration in a pseudo-Euclidean metric.

The update ``u <- grad_f(C_pinv u) / ||grad_f(C_pinv u)||`` (with a
conjugated pseudoinverse for complex signals), where ``grad_f`` is the
gradient of the oracle's ``fstar``, the contrast that also builds ``C``, is
a power iteration in the hidden source basis: expanding ``u`` over the
mixing columns, each coordinate ``a`` becomes ``|a|^2 a`` per step, so
iterates converge cubically to one column direction, up to an irrelevant
sign or unit-modulus phase.  No
whitening or orthogonalization preprocessing is needed because the
columns of the mixing matrix are already orthogonal under the indefinite
product induced by ``C_pinv``.

Full-matrix recovery finds columns one at a time, estimating the matching
row of the pseudoinverse alongside each column and projecting away
recovered components (``u <- u - A_hat B_hat u``) at every inner
iteration so that each pass converges to a fresh column.
"""

from dataclasses import dataclass

import numpy as np

from .cumulants import CumulantOracle, PseudoMetric
from .errors import (
    ConvergenceError,
    DegenerateDirectionError,
    DimensionMismatchError,
    IllConditionedRowError,
    PartialRecoveryError,
)
from .linalg import random_unit, unit

__all__ = [
    "IterationConfig",
    "MixingEstimate",
    "ConvergenceTrace",
    "pegi_update",
    "converged_up_to_phase",
    "recover_column",
    "recover_row_pinv",
    "deflate",
    "pegi_full",
]

_GRAD_FLOOR = 1e-12
_ROW_DENOM_FLOOR = 1e-10
_DEFLATE_PASSES = 4
# standard errors by which a sample-built source's kurtosis must clear zero
_MIN_KURTOSIS_Z = 5.0


@dataclass(frozen=True)
class IterationConfig:
    """Knobs for the fixed-point loop.

    ``epsilon`` is the convergence threshold on the phase-invariant
    distance between consecutive unit iterates.  1e-9 suits noise-free
    model-built oracles; something like 1e-6 is a better default under
    sampling error, where chasing tighter residuals just fits noise.
    Cubic convergence keeps iteration counts small, so ``max_iters`` is a
    safety net rather than a tuning knob.
    """

    epsilon: float = 1e-9
    max_iters: int = 100
    max_restarts: int = 10
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.max_iters < 1 or self.max_restarts < 1:
            raise ValueError("max_iters and max_restarts must be >= 1")


@dataclass
class MixingEstimate:
    """Recovered unit columns plus the running pseudoinverse-row estimates.

    ``A_hat`` is n-by-m with only the first ``columns_found`` columns
    populated (the rest stay zero); ``B_hat`` holds the paired rows.  The
    populated block satisfies ``B_hat A_hat = I`` up to estimation error.
    """

    A_hat: np.ndarray
    B_hat: np.ndarray
    columns_found: int = 0

    @classmethod
    def empty(cls, n, m, complex_field=False):
        dtype = complex if complex_field else float
        return cls(
            A_hat=np.zeros((n, m), dtype=dtype),
            B_hat=np.zeros((m, n), dtype=dtype),
            columns_found=0,
        )

    def add(self, column, row):
        j = self.columns_found
        if j >= self.A_hat.shape[1]:
            raise IndexError("estimate already holds all columns")
        self.A_hat[:, j] = column
        self.B_hat[j, :] = row
        self.columns_found = j + 1


@dataclass
class ConvergenceTrace:
    """Phase-invariant residuals of one fixed-point run."""

    residuals: list
    converged: bool = False

    def __len__(self):
        return len(self.residuals)


def pegi_update(u, metric: PseudoMetric, oracle: CumulantOracle):
    """One normalized gradient step in the pseudo-Euclidean metric.

    Returns ``grad_f(conj(C_pinv) u)``, the gradient of ``fstar``, scaled
    to unit norm; the entrywise conjugate is a no-op for real signals.  Raises
    :class:`DegenerateDirectionError` when the gradient norm falls below
    1e-12 (e.g. for purely Gaussian data, where the gradient vanishes
    identically); callers should restart from a fresh random direction.
    """
    u = np.asarray(u).ravel()
    if u.shape[0] != metric.dim:
        raise DimensionMismatchError("direction and metric dimensions differ")
    g = oracle.grad_f(np.conj(metric.C_pinv) @ u)
    norm = np.linalg.norm(g)
    if norm < _GRAD_FLOOR:
        raise DegenerateDirectionError(
            f"gradient norm {norm:.3e} below {_GRAD_FLOOR:g}"
        )
    return g / norm


def converged_up_to_phase(u_new, u_old, epsilon):
    """Distance between unit vectors modulo a sign / unit-modulus factor.

    The minimizing factor is the phase ``<u_new, u_old> / |<u_new, u_old>|``
    of the inner product (1 when it vanishes), which is its sign for real
    vectors, giving ``min(||u_new - u_old||, ||u_new + u_old||)``.
    Returns ``(residual < epsilon, residual)``.
    """
    u_new = np.asarray(u_new).ravel()
    u_old = np.asarray(u_old).ravel()
    inner = np.sum(u_new * np.conj(u_old))
    phase = inner / abs(inner) if inner != 0 else 1.0
    residual = float(np.linalg.norm(u_new - phase * u_old))
    return residual < epsilon, residual


def deflate(u, est: MixingEstimate):
    """Remove the components of ``u`` along already-recovered columns.

    Computes ``u - A_hat (B_hat u)``.  Because each stored row is the
    matching pseudoinverse row, the result is orthogonal to the recovered
    columns in the pseudo-Euclidean product while leaving the remaining
    hidden coordinates of ``u`` untouched.

    With estimated rows the projector is not exactly idempotent (the
    cross terms ``B_hat_j A_hat_k`` carry estimation error), so the pass
    is repeated until the remaining coefficients ``B_hat u`` are
    negligible; each pass shrinks them by the estimation-error factor,
    and with exact rows the extra passes are no-ops.  Without this,
    leftover leakage gets re-amplified by sources with much larger
    power-iteration coefficients and can destabilize the iteration's
    remaining fixed points.
    """
    scale = np.linalg.norm(u)
    for _ in range(_DEFLATE_PASSES):
        coeffs = est.B_hat @ u
        u = u - est.A_hat @ coeffs
        if np.linalg.norm(coeffs) <= 1e-9 * (scale + np.linalg.norm(u)):
            break
    return u


def recover_column(u0, metric: PseudoMetric, oracle: CumulantOracle,
                   cfg: IterationConfig, est: MixingEstimate = None):
    """Iterate the metric gradient update from ``u0`` until it settles.

    When ``est`` is given, deflation runs before every update so the
    iteration cannot drift back to a column it already knows.

    Returns
    -------
    (ndarray, ConvergenceTrace)
        The converged unit vector and the full residual history.

    Raises
    ------
    ConvergenceError
        If ``cfg.max_iters`` updates pass without the phase-invariant
        residual dropping below ``cfg.epsilon``; carries the trace.
    DegenerateDirectionError
        Propagated from :func:`pegi_update`.
    """
    u = unit(np.asarray(u0).ravel())
    trace = ConvergenceTrace(residuals=[])
    prev = u
    prev2 = None
    cycle_hits = 0
    for _ in range(cfg.max_iters):
        if est is not None and est.columns_found:
            u = deflate(u, est)
            norm = np.linalg.norm(u)
            if norm < _GRAD_FLOOR:
                raise DegenerateDirectionError(
                    "direction lies in the span of recovered columns"
                )
            u = u / norm
        u = pegi_update(u, metric, oracle)
        done, residual = converged_up_to_phase(u, prev, cfg.epsilon)
        trace.residuals.append(residual)
        if done:
            trace.converged = True
            return u, trace
        # under sampling error the deflated update can settle into a stable
        # period-2 orbit; once the two-step residual has converged while the
        # one-step residual has not, more iterations cannot help
        if prev2 is not None:
            settled2, _ = converged_up_to_phase(u, prev2, cfg.epsilon)
            cycle_hits = cycle_hits + 1 if settled2 else 0
            if cycle_hits >= 2:
                raise ConvergenceError(
                    f"iteration locked into a period-2 cycle "
                    f"(residual {residual:.3e})",
                    trace=trace,
                )
        prev2 = prev
        prev = u
    raise ConvergenceError(
        f"no convergence after {cfg.max_iters} iterations "
        f"(last residual {trace.residuals[-1]:.3e})",
        trace=trace,
    )


def recover_row_pinv(metric: PseudoMetric, a_col):
    """Estimate the pseudoinverse row paired with a recovered column.

    ``C_pinv conj(a)`` is parallel to the transposed row; dividing by
    ``(C_pinv conj(a))^T a`` fixes the unknown scale so that
    ``row @ a_col == 1`` exactly.  A denominator below 1e-10 in magnitude
    means the column ran into a direction where the metric carries no
    usable fourth-cumulant signal, and is reported instead of divided by.
    """
    a = np.asarray(a_col).ravel()
    if a.shape[0] != metric.dim:
        raise DimensionMismatchError("column and metric dimensions differ")
    w = metric.C_pinv @ np.conj(a)
    denom = w @ a
    if abs(denom) < _ROW_DENOM_FLOOR:
        raise IllConditionedRowError(
            f"row normalization denominator {abs(denom):.3e} below {_ROW_DENOM_FLOOR:g}"
        )
    return w / denom


def pegi_full(metric: PseudoMetric, oracle: CumulantOracle, m,
              cfg: IterationConfig = None) -> MixingEstimate:
    """Recover all ``m`` mixing columns (up to scale and permutation).

    Runs the deflated fixed-point iteration from random unit starts, one
    column at a time, pairing every found column with its pseudoinverse
    row.  Each column gets up to ``cfg.max_restarts`` fresh starts; a
    start is abandoned on non-convergence, a degenerate gradient, an
    ill-conditioned row estimate, or (for sample-built oracles) a converged
    column whose source — the projection on the SINR-optimal demixing
    direction ``cov(X)^+ column`` — has a kurtosis statistically
    indistinguishable from Gaussian sampling noise (``_MIN_KURTOSIS_Z``
    standard errors).  The empirical landscape has such spurious fixed
    points when a source is Gaussian or its fourth cumulant sits below
    the noise floor.

    Raises
    ------
    PartialRecoveryError
        When some column exhausts its restart budget — e.g. when a source
        has (numerically) zero fourth cumulant, which no fourth-cumulant
        method can see.  The error carries the estimate built so far.
    """
    cfg = cfg or IterationConfig()
    n = metric.dim
    if m > n:
        raise DimensionMismatchError(f"m={m} exceeds dimension n={n}")
    if metric.rank < m:
        raise PartialRecoveryError(
            f"metric has numeric rank {metric.rank} < m={m}; "
            "some sources carry no fourth-cumulant signal",
            estimate=MixingEstimate.empty(n, m, oracle.is_complex),
        )
    rng = np.random.default_rng(np.random.SeedSequence(cfg.rng_seed))
    complex_field = oracle.is_complex or metric.is_complex
    est = MixingEstimate.empty(n, m, complex_field)
    for _ in range(m):
        found = False
        for _ in range(cfg.max_restarts):
            u0 = random_unit(n, rng, complex_field)
            try:
                column, _ = recover_column(u0, metric, oracle, cfg, est=est)
                row = recover_row_pinv(metric, column)
            except (ConvergenceError, DegenerateDirectionError, IllConditionedRowError):
                continue
            z = oracle.source_z_score(column)
            if z is not None and z < _MIN_KURTOSIS_Z:
                continue
            est.add(column, row)
            found = True
            break
        if not found:
            raise PartialRecoveryError(
                f"column {est.columns_found + 1} of {m} failed after "
                f"{cfg.max_restarts} restarts",
                estimate=est,
            )
    return est
