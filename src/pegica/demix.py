"""SINR-optimal demixing and evaluation against a known ground truth.

Demixing with the pseudoinverse of the mixing matrix is suboptimal for
source recovery in noise.  The optimal demixer in the
signal-to-interference-plus-noise sense is ``B = A^H cov(X)^+``, and —
remarkably — it only needs the *directions* of the mixing columns and the
observation covariance, both of which survive the scale, permutation and
signal/noise-split ambiguities of the noisy model.  Rescaling columns of
the estimate merely rescales rows of ``B``, and SINR is scale invariant,
so any column-direction estimate (e.g. from :mod:`pegica.recovery`)
yields the same per-source SINR as the oracle built from the true matrix.
In the noise-free case the formula collapses to the pseudoinverse.

Evaluation helpers compute per-source SINR analytically from ``(A,
Sigma)`` with unit-variance sources:

``SINR_k(b) = |b A_k|^2 / (||b A||^2 - |b A_k|^2 + b Sigma b^H)``

An exact column matcher resolves the permutation/phase ambiguity of an
estimate before its demixer is scored against the model optimum.
"""

from dataclasses import dataclass

import numpy as np

from .cumulants import SampleSet
from .errors import DimensionMismatchError
from .linalg import hermitian_pinv, to_db, vector_angle_deg

__all__ = [
    "DemixMatrix",
    "sample_cov",
    "analytic_cov",
    "sinr_optimal_demix",
    "pinv_demix",
    "optimal_sinr",
    "sinr_k",
    "match_columns",
    "sinr_loss",
]


@dataclass(frozen=True)
class DemixMatrix:
    """An m-by-n demixing matrix."""

    B: np.ndarray

    def apply(self, X):
        """Recover sources from N-by-n samples: returns ``X @ B^T``.

        Computed as ``(B @ X^T)^T``, so the N-by-m result is F-ordered.  It
        is bitwise ``X @ B^T`` for real data, C- or F-ordered, and within
        1e-13 of it, relative, for complex data.  From the F-ordered
        centered samples at n=8, N=1e6 it took 16 to 18 ms, where
        ``X @ B^T`` took 21 to 43 ms (2 vCPUs, OpenBLAS).
        """
        return (self.B @ np.asarray(X).T).T


def sample_cov(samples: SampleSet):
    """Sample covariance ``E[x x^H]`` of centered samples (1/N convention).

    Returns the read-only :attr:`SampleSet.cov`, computed once per sample
    set and shared with the oracle built from it.
    """
    if not isinstance(samples, SampleSet):
        raise DimensionMismatchError("sample_cov expects a SampleSet")
    return samples.cov


def analytic_cov(model):
    """Observation covariance ``A A^H + Sigma`` of a ground-truth model."""
    cov = model.A @ model.A.conj().T + model.Sigma
    return 0.5 * (cov + cov.conj().T)


def sinr_optimal_demix(A_hat, cov_X) -> DemixMatrix:
    """SINR-optimal demixer ``A_hat^H cov_X^+`` from column directions only.

    ``cov_X`` must be Hermitian (asymmetry beyond 1e-8 relative is
    rejected); rank deficiency is fine since the pseudoinverse is used.
    """
    A_hat = np.atleast_2d(np.asarray(A_hat))
    cov_X = np.asarray(cov_X)
    if cov_X.shape != (A_hat.shape[0],) * 2:
        raise DimensionMismatchError("covariance shape does not match A_hat")
    cov_pinv, _, _ = hermitian_pinv(cov_X)
    return DemixMatrix(B=A_hat.conj().T @ cov_pinv)


def pinv_demix(A_hat) -> DemixMatrix:
    """Plain pseudoinverse demixer (the noise-free optimum)."""
    return DemixMatrix(B=np.linalg.pinv(np.atleast_2d(np.asarray(A_hat))))


def sinr_k(b, model, k):
    """Analytic SINR of row ``b`` for source ``k`` under the model.

    Unit-variance sources are assumed.  Returns ``inf`` for perfect
    isolation with zero noise, and 0.0 when the row carries no target
    signal at all.  Exactly scale invariant in ``b``.
    """
    b = np.asarray(b).ravel()
    if not 0 <= k < model.m:
        raise IndexError(f"source index {k} out of range for m={model.m}")
    if b.shape[0] != model.n:
        raise DimensionMismatchError("row length does not match model dimension")
    bA = b @ model.A
    target = float(np.abs(bA[k]) ** 2)
    interference = float(np.sum(np.abs(bA) ** 2) - target)
    noise = float(np.real(b @ model.Sigma @ np.conj(b)))
    denom = interference + noise
    if target == 0.0:
        return 0.0
    if denom <= 0.0:
        return float("inf")
    return target / denom


def optimal_sinr(model):
    """Per-source SINR of the oracle demixer ``A^H cov(X)^+``."""
    B_opt = sinr_optimal_demix(model.A, analytic_cov(model)).B
    return np.array([sinr_k(B_opt[k], model, k) for k in range(model.m)])


def _abs_cosines(A_hat, A_true):
    num = np.abs(A_hat.conj().T @ A_true)
    norms_hat = np.linalg.norm(A_hat, axis=0)
    norms_true = np.linalg.norm(A_true, axis=0)
    return num / np.outer(norms_hat, norms_true)


def _max_assignment(score):
    """Row-to-column permutation maximizing the summed score, exactly.

    Kuhn's Hungarian method (1955) in its O(m^3) shortest-augmenting-path
    form: rows join one at a time, each along the cheapest path in the
    reduced costs ``-score - u - v``, whose potentials keep every matched
    pair tight.  Column 0 of the working arrays is a virtual column that
    roots each path.
    """
    m = score.shape[0]
    cost = -score
    u = np.zeros(m + 1)
    v = np.zeros(m + 1)
    row_of = np.zeros(m + 1, dtype=int)  # 1-based row matched to each column
    way = np.zeros(m + 1, dtype=int)
    for i in range(1, m + 1):
        row_of[0] = i
        j0 = 0
        slack = np.full(m + 1, np.inf)
        used = np.zeros(m + 1, dtype=bool)
        while row_of[j0]:
            used[j0] = True
            i0 = row_of[j0]
            reduced = cost[i0 - 1] - u[i0] - v[1:]
            better = ~used[1:] & (reduced < slack[1:])
            slack[1:][better] = reduced[better]
            way[1:][better] = j0
            j1 = int(np.argmin(np.where(used[1:], np.inf, slack[1:]))) + 1
            delta = slack[j1]
            u[row_of[used]] += delta
            v[used] -= delta
            slack[~used] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    perm = np.empty(m, dtype=int)
    perm[row_of[1:] - 1] = np.arange(m)
    return perm


def match_columns(A_hat, A_true):
    """Match estimated columns to true ones, modulo permutation and phase.

    The matching maximizes the total |cosine| over all permutations,
    exactly, at any m.

    Returns
    -------
    permutation : ndarray of int
        ``permutation[j]`` is the true column matched to ``A_hat[:, j]``.
    phases : ndarray
        Unit factors making ``phases[j] * <A_hat_j, A_true_pj>`` real
        positive (signs in the real case).
    angles_deg : ndarray
        Angle between each matched pair, in degrees.
    """
    A_hat = np.atleast_2d(np.asarray(A_hat))
    A_true = np.atleast_2d(np.asarray(A_true))
    if A_hat.shape != A_true.shape:
        raise DimensionMismatchError("column sets must have identical shapes")
    m = A_hat.shape[1]
    if np.linalg.matrix_rank(A_hat) < m or np.linalg.matrix_rank(A_true) < m:
        raise ValueError("column matching requires full column rank")
    cos = _abs_cosines(A_hat, A_true)
    perm = _max_assignment(cos)
    phases = np.empty(m, dtype=complex)
    angles = np.empty(m)
    for j in range(m):
        a_hat = A_hat[:, j]
        a = A_true[:, perm[j]]
        inner = np.sum(a_hat * np.conj(a))
        phases[j] = np.conj(inner) / abs(inner) if inner != 0 else 1.0
        angles[j] = vector_angle_deg(a_hat, a)
    if not (np.iscomplexobj(A_hat) or np.iscomplexobj(A_true)):
        phases = phases.real
    return perm, phases, angles


def sinr_loss(B, model, permutation=None):
    """Per-source SINR of a demixer and its loss against the model optimum.

    Row j of ``B`` is scored for true source ``permutation[j]`` (row k for
    source k by default).  Returns ``(sinr, loss_db)``, both indexed by
    true source; the loss is ``to_db(optimal) - to_db(sinr)``, nonnegative
    up to float noise because the optimum is a per-source maximizer, and 0
    where the two are equal (infinite SINR in a noise-free model included).
    """
    B = np.atleast_2d(np.asarray(B))
    m = model.m
    perm = np.arange(m) if permutation is None else np.asarray(permutation, dtype=int)
    if B.shape[0] != m or not np.array_equal(np.sort(perm), np.arange(m)):
        raise DimensionMismatchError("one row of B per source, matched by a permutation")
    sinr = np.empty(m)
    for j, k in enumerate(perm):
        sinr[k] = sinr_k(B[j], model, int(k))
    optimum = optimal_sinr(model)
    with np.errstate(invalid="ignore"):  # inf - inf where both are infinite
        loss_db = to_db(optimum) - to_db(sinr)
    return sinr, np.where(sinr == optimum, 0.0, loss_db)
