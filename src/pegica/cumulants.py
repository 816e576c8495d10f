"""Fourth-order cumulant functionals of mixed signals.

The recovery algorithm never touches raw data directly; it works through a
cumulant oracle exposing, at a direction ``u``,

* ``f(u)   = kappa4(<X, u>)``               (plain fourth cumulant),
* ``fstar(u) = kappa4_star(<X, u>)``        (conjugation-scheme cumulant),
* ``grad_f(u)``                             (gradient of ``f``), and
* ``hess_fstar(u)``                         (Hessian: the real Hessian of
  ``f`` for real signals, the mixed-derivative complex Hessian of
  ``fstar`` for complex signals),

plus the aggregate matrix ``C`` built from Hessians at the coordinate
directions.  Two oracle flavours exist: empirical (plug-in moment
estimators over a centered sample matrix, all read off moments that one
chunked pass over the samples accumulates) and analytic (exact values from
a known mixing matrix and source cumulants).  Because all of these are
cumulants of order four, additive Gaussian noise of any covariance drops
out of the analytic values and only perturbs the empirical ones through
sampling error.

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
    "kappa4",
    "kappa4_star",
    "CumulantOracle",
    "EmpiricalCumulantOracle",
    "AnalyticCumulantOracle",
    "PseudoMetric",
    "build_C",
]


# Bytes of pair products formed at once by the empirical oracle's pass over
# the samples: larger chunks raise peak memory, smaller ones add per-chunk
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


def kappa4(samples):
    """Fourth cumulant ``E[X^4] - 3 E[X^2]^2`` of centered scalar samples.

    No conjugation is applied, so complex input yields a complex value.
    Zero for Gaussian data, additive over independent variables and
    homogeneous of degree four.
    """
    samples = np.asarray(samples).ravel()
    if samples.size < 4:
        raise InsufficientDataError("kappa4 needs at least 4 samples")
    m2 = np.mean(samples**2)
    m4 = np.mean(samples**4)
    return m4 - 3.0 * m2**2


def kappa4_star(samples):
    """Conjugation-scheme fourth cumulant of centered complex samples.

    Computes ``E[X^2 conj(X)^2] - 2 E[X conj(X)]^2 - E[X^2] E[conj(X)^2]``
    from sample moments.  The result is real for any distribution; the
    imaginary residue left by floating point is checked against
    ``1e-10 * (1 + |Re|)`` before being discarded.  For real samples the
    value coincides with :func:`kappa4`.
    """
    samples = np.asarray(samples).ravel()
    if samples.size < 4:
        raise InsufficientDataError("kappa4_star needs at least 4 samples")
    conj = np.conj(samples)
    value = (
        np.mean(samples**2 * conj**2)
        - 2.0 * np.mean(samples * conj) ** 2
        - np.mean(samples**2) * np.mean(conj**2)
    )
    value = complex(value)
    if abs(value.imag) > 1e-10 * (1.0 + abs(value.real)):
        raise NumericalConsistencyError(
            f"kappa4_star produced imaginary residue {value.imag:.3e}"
        )
    return value.real


class CumulantOracle:
    """Evaluator of the fourth-cumulant functionals at a direction.

    Subclasses provide ``f``, ``fstar``, ``grad_f`` and ``hess_fstar``;
    evaluations are pure functions of the construction-time inputs.
    """

    dim: int
    is_complex: bool

    def _check(self, u):
        u = np.asarray(u).ravel()
        if u.shape != (self.dim,):
            raise DimensionMismatchError(
                f"direction has shape {u.shape}, oracle dimension is {self.dim}"
            )
        return u

    def f(self, u):
        raise NotImplementedError

    def fstar(self, u):
        raise NotImplementedError

    def grad_f(self, u):
        raise NotImplementedError

    def hess_fstar(self, u):
        raise NotImplementedError

    def kurtosis_z_score(self, u):
        """Significance of the fourth-cumulant signal along ``u``, or None.

        None means the oracle is exact and needs no significance test.
        """
        return None

    def source_z_score(self, column):
        """Significance of the source a mixing column demixes, or None.

        None means the oracle is exact and needs no significance test.
        """
        return None


class EmpiricalCumulantOracle(CumulantOracle):
    """Plug-in moment estimators over a centered sample matrix.

    The constructor makes the one pass over the samples.  It accumulates
    the second moments and the Gram matrix ``G = E[z z^T]`` of the
    ``P = n(n+1)/2`` pair products ``z_(i,j) = x_i x_j`` (``i <= j``), plus
    ``K = E[z z^H]`` for complex data, in chunks of about ``_CHUNK_BYTES``
    of pair products.  The pass costs O(N P^2) and keeps ``P^2 * 8``
    bytes (``2 * P^2 * 16`` for complex data).  Every functional is then a
    contraction of these moments that never touches the samples again:
    O(P^2) per ``f``, ``fstar``, ``grad_f``, ``kurtosis_z_score`` or
    ``source_z_score`` call, O(n P^2) per ``hess_fstar`` call.  The full
    n^4 moment tensor is never formed.

    ``grad_f`` and ``hess_fstar`` are the exact derivatives of the sample
    version of ``f`` (respectively ``fstar``), so they remain consistent
    with finite differences of ``f`` on the same data.
    """

    def __init__(self, samples: SampleSet):
        if not isinstance(samples, SampleSet):
            samples = center(samples)
        if not samples.is_centered:
            raise NumericalConsistencyError("empirical oracle requires centered samples")
        self.samples = samples
        self.dim = n = samples.dim
        self.is_complex = samples.is_complex
        iu, ju = np.triu_indices(n)
        self._iu, self._ju = iu, ju
        # pair-space coefficients of v v^T: 1 on the diagonal, 2 above it
        self._pair_weight = np.where(iu == ju, 1.0, 2.0)
        # self._pair[i, j] is the pair index of (min(i, j), max(i, j))
        self._pair = np.empty((n, n), dtype=np.intp)
        self._pair[iu, ju] = self._pair[ju, iu] = np.arange(iu.size)
        self._M, self._P, self._G, self._K = _pair_moments(samples.data, iu, ju)
        # pseudoinverse of cov(X) = E[x x^H] = conj(M)
        self._cov_pinv = hermitian_pinv(self._M.conj())[0]

    # With v = conj(u) the projection is y = <x, u> = x . v, so
    # y^2 = z . w(v) and every moment of y is a contraction of G or K.
    def _weights(self, v):
        return self._pair_weight * v[self._iu] * v[self._ju]

    def f(self, u):
        v = np.conj(self._check(u))
        w = self._weights(v)
        value = w @ self._G @ w - 3.0 * (v @ self._P @ v) ** 2
        return complex(value) if self.is_complex else float(value)

    def fstar(self, u):
        v = np.conj(self._check(u))
        w = self._weights(v)
        value = complex(
            w @ self._K @ np.conj(w)
            - 2.0 * (np.conj(v) @ self._M @ v) ** 2
            - abs(v @ self._P @ v) ** 2
        )
        if abs(value.imag) > 1e-10 * (1.0 + abs(value.real)):
            raise NumericalConsistencyError(
                f"fstar produced imaginary residue {value.imag:.3e}"
            )
        return value.real

    def grad_f(self, u):
        v = np.conj(self._check(u))
        # V = E[y^2 x x^T], so E[y^3 x] = V v and E[y x] = P v
        V = (self._G @ self._weights(v))[self._pair]
        Pv = self._P @ v
        return 4.0 * (V @ v) - 12.0 * (v @ Pv) * Pv

    def hess_fstar(self, u):
        v = np.conj(self._check(u))
        n = self.dim
        # R z = y x for every sample, so E[|y|^2 x x^H] = R K R^H
        R = np.zeros((n, self._iu.size), dtype=np.result_type(v, self._K))
        R[np.arange(n), self._pair] = v[:, None]
        W = (R @ self._K @ R.conj().T).T  # E[|y|^2 conj(x) x^T]
        a = self._M @ v  # E[y conj(x)]
        b = np.conj(self._P @ v)  # E[conj(y) conj(x)]
        m2 = (np.conj(v) @ a).real  # E[|y|^2]
        H = W - np.outer(a, a.conj()) - m2 * self._M - np.outer(b, b.conj())
        # for real data a = b and the real Hessian carries a factor 12
        H *= 4.0 if self.is_complex else 12.0
        return 0.5 * (H + H.conj().T)

    def kurtosis_z_score(self, u):
        """How many standard errors the projection's kurtosis is from zero.

        Under the null hypothesis that the projection ``<X, u>`` is
        Gaussian, the sample excess kurtosis has asymptotic standard error
        sqrt(24/N).  A small score means the direction carries no
        fourth-cumulant signal distinguishable from sampling noise, so a
        column candidate there is an artifact of estimation error.
        """
        v = np.conj(self._check(u))
        m2 = float((np.conj(v) @ self._M @ v).real)
        if m2 <= 0.0:
            return 0.0
        k4 = self.fstar(u) if self.is_complex else self.f(u)
        gamma = k4 / m2**2
        return float(abs(gamma) / np.sqrt(24.0 / self.samples.n_samples))

    def source_z_score(self, column):
        """Kurtosis z-score of the source that ``column`` demixes.

        Scores the projection on the SINR-optimal demixing direction
        ``cov(X)^+ column``.  Along the column itself, sources of opposite
        kurtosis sign partially cancel whenever the mixing matrix is not
        orthogonal, so a correct column can look Gaussian there.
        """
        return self.kurtosis_z_score(self._cov_pinv @ self._check(column))

    def build_C_matrix(self):
        """Sum of Hessians at the coordinate directions, already rescaled.

        Equals ``(1/12) sum_k hess(e_k)`` for real data and
        ``(1/4) sum_k hess_fstar(e_k)`` for complex data, read off the
        accumulated moments instead of n Hessian calls.
        """
        M, P, pair = self._M, self._P, self._pair
        # E[|x|^2 conj(x_i) x_j] = sum_k K[pair(k, j), pair(k, i)]
        t1 = self._K[pair[:, :, None], pair[:, None, :]].sum(axis=0).T
        C = t1 - M @ M - np.trace(M) * M - P.conj() @ P
        return 0.5 * (C + C.conj().T)


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


class AnalyticCumulantOracle(CumulantOracle):
    """Exact cumulant functionals of a known noisy linear mixture.

    Values depend only on the mixing matrix and the source fourth
    cumulants; the Gaussian noise covariance does not enter.

    Parameters
    ----------
    A : ndarray, shape (n, m)
        Mixing matrix (real or complex).
    kappa4_sources : array_like, shape (m,)
        Fourth cumulant of each source.
    kappa4_star_sources : array_like, optional
        Conjugation-scheme cumulants; defaults to ``kappa4_sources`` (the
        two coincide for real sources and for phase rotations of them).
    """

    def __init__(self, A, kappa4_sources, kappa4_star_sources=None):
        A = np.atleast_2d(np.asarray(A))
        self.A = A
        self.k4 = np.asarray(kappa4_sources, dtype=complex).ravel()
        if self.k4.shape[0] != A.shape[1]:
            raise DimensionMismatchError("one kappa4 per mixing column required")
        if np.all(self.k4.imag == 0):
            self.k4 = self.k4.real
        if kappa4_star_sources is None:
            k4s = np.asarray(self.k4)
            if np.iscomplexobj(k4s):
                raise ValueError(
                    "kappa4_star_sources must be given explicitly when the "
                    "plain source cumulants are complex"
                )
            self.k4_star = k4s.astype(float)
        else:
            self.k4_star = np.asarray(kappa4_star_sources, dtype=float).ravel()
        self.dim = A.shape[0]
        self.is_complex = np.iscomplexobj(A) or np.iscomplexobj(self.k4)

    @classmethod
    def from_model(cls, model):
        """Build from a ground-truth simulation model.

        Every source needs a closed-form fourth cumulant; heavy-tailed
        families without one (e.g. a t distribution with 3 degrees of
        freedom) are rejected here even though the empirical pipeline
        accepts them.
        """
        k4 = []
        for spec in model.sources:
            if spec.kappa4_closed_form is None:
                raise ValueError(
                    f"source {spec.label} has no closed-form fourth cumulant; "
                    "use an empirical oracle instead"
                )
            k4.append(spec.kappa4_closed_form)
        return cls(model.A, np.asarray(k4))

    def _coords(self, u):
        # z_k = <A_k, u>
        return self.A.T @ np.conj(u)

    def f(self, u):
        u = self._check(u)
        z = self._coords(u)
        value = np.sum(z**4 * self.k4)
        return complex(value) if self.is_complex else float(value.real)

    def fstar(self, u):
        u = self._check(u)
        z = self._coords(u)
        return float(np.sum(np.abs(z) ** 4 * self.k4_star))

    def grad_f(self, u):
        u = self._check(u)
        z = self._coords(u)
        g = 4.0 * (self.A @ (z**3 * self.k4))
        return g if self.is_complex else g.real

    def hess_fstar(self, u):
        u = self._check(u)
        z = self._coords(u)
        if not self.is_complex:
            d = 12.0 * z.real**2 * self.k4.real
            return (self.A * d) @ self.A.T
        d = 4.0 * np.abs(z) ** 2 * self.k4_star
        return (self.A.conj() * d) @ self.A.T

    def build_C_matrix(self):
        col_norm2 = np.einsum("ij,ij->j", self.A.conj(), self.A).real
        if not self.is_complex:
            d = col_norm2 * self.k4.real
            return (self.A * d) @ self.A.T
        d = col_norm2 * self.k4_star
        return (self.A.conj() * d) @ self.A.T


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

    def inner(self, u, v):
        """Pseudo-Euclidean product ``u^T C_pinv conj(v)``.

        The columns of the true mixing matrix are orthogonal under this
        product; ``inner(A_k, A_k)`` equals ``1 / d_k`` and may be negative.
        """
        return np.asarray(u) @ self.C_pinv @ np.conj(np.asarray(v))


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
