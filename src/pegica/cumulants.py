"""Fourth-order cumulant functionals of mixed signals.

The recovery algorithm never touches raw data directly; it works through a
:class:`CumulantOracle` exposing, at a direction ``u``,

* ``f(u) = cum(y, y, y, y)`` with ``y = <X, u>`` (plain fourth cumulant),
* ``fstar(u) = cum(y, y, conj(y), conj(y))`` (conjugation scheme),
* ``grad_f(u)`` (gradient of ``f``), and
* ``hess_fstar(u)`` (the real Hessian of ``f`` for real signals, the
  mixed-derivative complex Hessian of ``fstar`` for complex signals),

plus the aggregate matrix ``C`` built from Hessians at the coordinate
directions.  All of these are contractions of one fourth-cumulant tensor,
which the oracle stores over pair products ``x_i x_j``.  It is built either
from samples (plug-in moments of one chunked pass, Gaussian part
subtracted) or from a known mixing matrix and source cumulants.  Because
the tensor has order four, additive Gaussian noise of any covariance drops
out of the model-built values and only perturbs the sample-built ones
through sampling error.

Projections use ``<x, u> = x @ conj(u)``, which is the plain dot product
for real data.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InsufficientDataError,
    NumericalConsistencyError,
)
from .linalg import hermitian_pinv

__all__ = [
    "SampleSet",
    "center",
    "CumulantOracle",
    "PseudoMetric",
    "build_C",
]


# Bytes of pair products formed at once by the oracle's pass over the
# samples: larger chunks raise peak memory, smaller ones add per-chunk
# overhead (the P x P accumulator is updated once per chunk).
_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class SampleSet:
    """An N-by-n batch of observed signals with column means removed.

    ``data`` is never mutated after construction; build instances through
    :func:`center`.
    """

    data: np.ndarray
    is_centered: bool = True

    @classmethod
    def _trusted(cls, data):
        # for data this module has just centered: skips the checks below
        self = object.__new__(cls)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "is_centered", True)
        return self

    def __post_init__(self):
        data = np.atleast_2d(np.asarray(self.data))
        object.__setattr__(self, "data", data)
        if data.ndim != 2:
            raise DimensionMismatchError("sample data must be a 2-D matrix")
        if data.shape[0] < 2:
            raise InsufficientDataError(
                f"need at least 2 samples, got {data.shape[0]}"
            )
        if self.is_centered:
            col_std = data.std(axis=0)
            residue = np.abs(data.mean(axis=0))
            if np.any(residue > 1e-12 * (col_std + 1.0)):
                raise NumericalConsistencyError(
                    "samples marked centered but column means are not zero"
                )

    @property
    def n_samples(self):
        return self.data.shape[0]

    @property
    def dim(self):
        return self.data.shape[1]

    @property
    def is_complex(self):
        return np.iscomplexobj(self.data)


def center(raw) -> SampleSet:
    """Subtract each column's sample mean.

    Parameters
    ----------
    raw : array_like, shape (N, n)
        Observed signals, one sample per row.  N must be at least 2.

    Returns
    -------
    SampleSet
        Centered copy of the input.
    """
    raw = np.atleast_2d(np.asarray(raw, dtype=None))
    if raw.ndim != 2:
        raise DimensionMismatchError("raw data must be a 2-D matrix")
    if raw.shape[0] < 2:
        raise InsufficientDataError(f"need at least 2 samples, got {raw.shape[0]}")
    dtype = complex if np.iscomplexobj(raw) else float
    data = raw.astype(dtype, copy=True)
    data -= data.mean(axis=0, keepdims=True)
    return SampleSet._trusted(data)


class CumulantOracle:
    """Fourth-cumulant functionals as contractions of pair-space tensors.

    The oracle holds ``Q = cum(z, z^T)`` and ``Qc = cum(z, z^H)`` over the
    ``P = n(n+1)/2`` pair products ``z_(i,j) = x_i x_j`` (``i <= j``), with
    entries ``cum(x_i, x_j, x_k, x_l)`` and ``cum(x_i, x_j, conj(x_k),
    conj(x_l))``; for real data the two are one array.  Every functional is
    a contraction of them: O(P^2) per ``f``, ``fstar``, ``grad_f`` or
    z-score call, O(n P^2) per ``hess_fstar`` call.

    ``CumulantOracle(samples)`` builds the tensors from the moments of one
    chunked pass over the samples (O(N P^2) work); ``grad_f`` and
    ``hess_fstar`` are then the exact derivatives of the sample ``f``
    (respectively ``fstar``).  :meth:`from_mixing` and :meth:`from_model`
    build them exactly from a mixing matrix and the source cumulants; those
    oracles have no samples, and their z-scores are None.
    """

    def __init__(self, samples: SampleSet):
        if not isinstance(samples, SampleSet):
            samples = center(samples)
        if not samples.is_centered:
            raise NumericalConsistencyError("cumulant oracle requires centered samples")
        self.samples = samples
        self._index_pairs(samples.dim, samples.is_complex)
        M, P, G, K = _pair_moments(samples.data, self._iu, self._ju)
        S = M.conj()  # cov(X) = E[x x^H]
        self._M = M
        self._cov_pinv = hermitian_pinv(S)[0]
        # subtract the Gaussian (Isserlis) part of the fourth moments once
        self._Q = G - self._isserlis(P, P, P)
        self._Qc = K - self._isserlis(P, P.conj(), S) if self.is_complex else self._Q

    @classmethod
    def from_mixing(cls, A, k4, k4_star=None):
        """Exact cumulants of ``X = A S + noise`` for independent sources.

        ``Q = Z diag(k4) Z^T`` and ``Qc = Z diag(k4_star) Z^H`` with the
        pair rows ``Z = A[i] * A[j]``.  Gaussian noise of any covariance
        does not enter.

        Parameters
        ----------
        A : ndarray, shape (n, m)
            Mixing matrix (real or complex).
        k4 : array_like, shape (m,)
            Fourth cumulant of each source.
        k4_star : array_like, optional
            Conjugation-scheme cumulants; defaults to ``k4`` (the two
            coincide for real sources and for phase rotations of them).
        """
        A = np.atleast_2d(np.asarray(A))
        k4 = np.asarray(k4, dtype=complex).ravel()
        if k4.shape[0] != A.shape[1]:
            raise DimensionMismatchError("one kappa4 per mixing column required")
        if np.all(k4.imag == 0):
            k4 = k4.real
        if k4_star is None:
            if np.iscomplexobj(k4):
                raise ValueError(
                    "k4_star must be given explicitly when the plain source "
                    "cumulants are complex"
                )
            k4_star = k4
        k4_star = np.asarray(k4_star, dtype=float).ravel()
        self = cls.__new__(cls)
        self.samples = self._M = self._cov_pinv = None
        self._index_pairs(A.shape[0], np.iscomplexobj(A) or np.iscomplexobj(k4))
        Z = A[self._iu] * A[self._ju]
        self._Q = (Z * k4) @ Z.T
        self._Qc = (Z * k4_star) @ Z.conj().T if self.is_complex else self._Q
        return self

    @classmethod
    def from_model(cls, model):
        """Build from a ground-truth simulation model.

        Every source needs a closed-form fourth cumulant; heavy-tailed
        families without one (e.g. a t distribution with 3 degrees of
        freedom) are rejected here even though the sample-built oracle
        accepts them.
        """
        k4 = []
        for spec in model.sources:
            if spec.kappa4_closed_form is None:
                raise ValueError(
                    f"source {spec.label} has no closed-form fourth cumulant; "
                    "build the oracle from samples instead"
                )
            k4.append(spec.kappa4_closed_form)
        return cls.from_mixing(model.A, np.asarray(k4))

    def _index_pairs(self, n, is_complex):
        self.dim = n
        self.is_complex = bool(is_complex)
        iu, ju = np.triu_indices(n)
        self._iu, self._ju = iu, ju
        # pair-space coefficients of v v^T: 1 on the diagonal, 2 above it
        self._pair_weight = np.where(iu == ju, 1.0, 2.0)
        # self._pair[i, j] is the pair index of (min(i, j), max(i, j))
        self._pair = np.empty((n, n), dtype=np.intp)
        self._pair[iu, ju] = self._pair[ju, iu] = np.arange(iu.size)

    def _isserlis(self, A, B, S):
        # A_ij B_kl + S_ik S_jl + S_il S_jk over pairs (i, j) and (k, l)
        iu, ju = self._iu, self._ju
        return (
            np.outer(A[iu, ju], B[iu, ju])
            + S[iu[:, None], iu] * S[ju[:, None], ju]
            + S[iu[:, None], ju] * S[ju[:, None], iu]
        )

    def _check(self, u):
        u = np.asarray(u).ravel()
        if u.shape != (self.dim,):
            raise DimensionMismatchError(
                f"direction has shape {u.shape}, oracle dimension is {self.dim}"
            )
        return u

    # With v = conj(u) the projection is y = <x, u> = x . v, so
    # y^2 = z . w(v) and every cumulant of y is a contraction of Q or Qc.
    def _weights(self, v):
        return self._pair_weight * v[self._iu] * v[self._ju]

    def f(self, u):
        """``cum(y, y, y, y)`` of ``y = <X, u>``; complex for complex data."""
        w = self._weights(np.conj(self._check(u)))
        value = w @ self._Q @ w
        return complex(value) if self.is_complex else float(value)

    def fstar(self, u):
        """Conjugation-scheme cumulant ``cum(y, y, conj(y), conj(y))``.

        Real for any distribution; the imaginary residue left by floating
        point is checked against ``1e-10 * (1 + |Re|)`` before being
        discarded.  Equals :meth:`f` for real data.
        """
        w = self._weights(np.conj(self._check(u)))
        value = complex(w @ self._Qc @ np.conj(w))
        if abs(value.imag) > 1e-10 * (1.0 + abs(value.real)):
            raise NumericalConsistencyError(
                f"fstar produced imaginary residue {value.imag:.3e}"
            )
        return value.real

    def grad_f(self, u):
        v = np.conj(self._check(u))
        # (Q w)[pair] is the matrix cum(x, x^T, y, y)
        return 4.0 * ((self._Q @ self._weights(v))[self._pair] @ v)

    def hess_fstar(self, u):
        """The real Hessian of ``f`` for real data, the mixed-derivative
        complex Hessian of ``fstar`` for complex data."""
        v = np.conj(self._check(u))
        n = self.dim
        # R z = y x, so R Qc R^H = cum(x, y, conj(x)^T, conj(y))
        R = np.zeros((n, self._iu.size), dtype=np.result_type(v, self._Qc))
        R[np.arange(n), self._pair] = v[:, None]
        H = (R @ self._Qc @ R.conj().T).T
        H *= 4.0 if self.is_complex else 12.0
        return 0.5 * (H + H.conj().T)

    def kurtosis_z_score(self, u):
        """How many standard errors the projection's kurtosis is from zero.

        Under the null hypothesis that the projection ``<X, u>`` is
        Gaussian, the sample excess kurtosis has asymptotic standard error
        sqrt(24/N).  A small score means the direction carries no
        fourth-cumulant signal distinguishable from sampling noise, so a
        column candidate there is an artifact of estimation error.  None
        when the oracle has no samples: exact cumulants need no test.
        """
        if self.samples is None:
            return None
        v = np.conj(self._check(u))
        m2 = float((np.conj(v) @ self._M @ v).real)
        if m2 <= 0.0:
            return 0.0
        k4 = self.fstar(u) if self.is_complex else self.f(u)
        gamma = k4 / m2**2
        return float(abs(gamma) / np.sqrt(24.0 / self.samples.n_samples))

    def source_z_score(self, column):
        """Kurtosis z-score of the source that ``column`` demixes, or None.

        Scores the projection on the SINR-optimal demixing direction
        ``cov(X)^+ column``.  Along the column itself, sources of opposite
        kurtosis sign partially cancel whenever the mixing matrix is not
        orthogonal, so a correct column can look Gaussian there.
        """
        if self.samples is None:
            return None
        return self.kurtosis_z_score(self._cov_pinv @ self._check(column))

    def build_C_matrix(self):
        """Sum of Hessians at the coordinate directions, already rescaled.

        Equals ``(1/12) sum_k hess(e_k)`` for real data and
        ``(1/4) sum_k hess_fstar(e_k)`` for complex data:
        ``C_ij = sum_k Qc[(k, j), (k, i)]``, a partial trace of the tensor
        instead of n Hessian calls.
        """
        pair = self._pair
        C = self._Qc[pair[:, :, None], pair[:, None, :]].sum(axis=0).T
        return 0.5 * (C + C.conj().T)


# The benchmark harness in perfbench/ builds this class, and patches its
# methods, under its former name.
EmpiricalCumulantOracle = CumulantOracle


def _pair_moments(X, iu, ju):
    """One chunked pass over centered samples ``X``.

    Returns ``M = E[conj(x) x^T]``, ``P = E[x x^T]``, ``G = E[z z^T]`` and
    ``K = E[z z^H]`` for the pair products ``z = x[iu] * x[ju]``; for real
    data ``P`` is ``M`` and ``K`` is ``G``.
    """
    N, n = X.shape
    cplx = np.iscomplexobj(X)
    rows = max(1, _CHUNK_BYTES // (iu.size * X.itemsize))
    M = np.zeros((n, n), dtype=X.dtype)
    G = np.zeros((iu.size, iu.size), dtype=X.dtype)
    P, K = (np.zeros_like(M), np.zeros_like(G)) if cplx else (M, G)
    for start in range(0, N, rows):
        xt = X[start:start + rows].T.copy()  # contiguous rows gather fast
        z = xt[iu]
        z *= xt[ju]
        G += z @ z.T
        if cplx:
            M += xt.conj() @ xt.T
            P += xt @ xt.T
            K += z @ z.conj().T
        else:
            M += xt @ xt.T
    M, G = M / N, G / N
    return (M, P / N, G, K / N) if cplx else (M, M, G, G)


@dataclass(frozen=True)
class PseudoMetric:
    """The (possibly indefinite) matrix C and its pseudoinverse.

    ``C`` has the structure ``A diag(d) A^T`` (with a conjugate on the
    left factor for complex signals), where ``d_k = ||A_k||^2 kappa4(S_k)``.
    It is Hermitian because the diagonal is real, but typically indefinite
    when sources have mixed-sign kurtosis, so the pseudoinverse comes from
    an eigendecomposition rather than any square-root factorization.
    """

    C: np.ndarray
    C_pinv: np.ndarray
    rank: int
    eigvals: np.ndarray = field(repr=False, default=None)

    @property
    def dim(self):
        return self.C.shape[0]

    @property
    def is_complex(self):
        return np.iscomplexobj(self.C)


def build_C(oracle: CumulantOracle, rtol=None) -> PseudoMetric:
    """Assemble the pseudo-Euclidean metric from Hessian evaluations.

    Averages the Hessian over the coordinate directions —
    ``(1/12) sum_k hess(e_k)`` for real signals, ``(1/4) sum_k
    hess_fstar(e_k)`` for complex ones — which guarantees every source
    contributes ``||A_k||^2 kappa4(S_k)`` to the diagonal scaling,
    regardless of sign.

    Callers that know the number of sources should check ``metric.rank``
    against it; see :func:`pegica.recovery.pegi_full`.
    """
    C = oracle.build_C_matrix()
    C_pinv, rank, eigvals = hermitian_pinv(C, rtol=rtol)
    return PseudoMetric(C=C, C_pinv=C_pinv, rank=rank, eigvals=eigvals)
