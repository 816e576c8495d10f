"""Fourth-order cumulant functionals of mixed signals.

The recovery algorithm never touches raw data directly; it works through a
:class:`CumulantOracle` exposing, at a direction ``u``,

* ``fstar(u) = cum(y, y, conj(y), conj(y))`` with ``y = <X, u>`` (the
  conjugation-scheme cumulant, the plain fourth cumulant for real data),
* ``grad_f(u)`` (gradient of ``fstar`` in the real coordinates of ``u``),

plus the matrix ``C``, a rescaled sum of the mixed-derivative complex
Hessians of ``fstar`` at the coordinate directions (the real Hessians for
real signals).  All of these are contractions of one fourth-cumulant
tensor, which the oracle stores over pair products ``x_i x_j``.  It is
built either from samples (plug-in moments of one chunked pass, Gaussian
part subtracted) or from a known mixing matrix and source cumulants.
Because the tensor has order four, additive Gaussian noise of any
covariance drops out of the model-built values and only perturbs the
sample-built ones through sampling error.  ``fstar`` sees sources that are
circular to fourth order (``E[s^4] = 0``, such as 8-PSK), which
``cum(y, y, y, y)`` cannot.

Projections use ``<x, u> = x @ conj(u)``, which is the plain dot product
for real data.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

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


# The oracle's pass over the samples forms one chunk's pair products at a
# time, in a P x rows buffer reused across chunks (and the float32 pass
# casts each chunk into an n x rows buffer).  Every chunk costs a
# fixed number of numpy and BLAS calls and one add of its staged products
# into the accumulator, so chunks are sized in rows from P and the item
# size of the working dtype: the buffer is held to about 2 MB (873 float64
# or 1747 float32 rows at n=24, 7281 float64 rows at n=8), because it adds
# to the peak memory of the pass one for one (4 MB buffers built n=24
# about 5% faster and raised the peak by 1.4%), but never to fewer than
# 256 rows, below which the per-chunk work outgrows the products (1 MB
# chunks of 111 rows spent about a fifth of the n=48 pass on accumulator
# adds).  Float32 chunks of the grouped layouts from n=7 to 11 (see
# _group_edges) stop at _CENTER_ROWS, 4096 rows (0.59 MB of products at
# n=8, against 2 MB for the 14 563 rows of the byte budget): each chunk's
# products are read by several GEMMs there (four at n=8), and a buffer that
# stays in the 2 MiB per-core L2 built n = 8, 9, 10 and 11 in 0.65 to 0.79
# of the time at N=2e5 (won 9 of 9 at each n), n=8 at N=1e6 in 0.76 (5 of
# 5).  With the four GEMMs, 2048-row chunks built n=8 at N=1e6 24% slower
# and 8192-row chunks 120% slower (median of 5, 2 vCPUs).  One syrk reads
# its chunk once: the cap was neutral at n=6 and 7 and cost 3-16% at
# n = 12..15, which keep the byte budget.
_BUFFER_BYTES = 2 << 20
_MIN_ROWS = 256

# Centering the whole batch writes the F-ordered copy 4096 rows at a time:
# as fast as a C-ordered subtraction at n = 8, 24 and 40 on 2 vCPUs, where
# one transposing subtraction took two to three times as long.
_CENTER_ROWS = 4096

# Real data from n=6 on whose covariance is well conditioned takes the
# moment pass in float32: the pair products and block GEMMs run in single
# precision (sgemm) and each chunk's staged products are added into the
# float64 accumulator.  Build time (covariance and guard included) at
# N=2e5 on 2 vCPUs, float32 over float64, median of 7 alternating runs:
#
#   n       3     4     5     6     7     8     9     10    11    12
#   ratio   0.98  0.97  0.89  0.77  0.70  0.71  0.58  0.77  0.78  0.71
#   won     6/7   6/7   7/7   7/7   7/7   7/7   7/7   7/7   7/7   7/7
#
# (n=40 at N=1e5: 0.70 s against 1.11 s).  From n=6 float32 also won at
# N=1e4 (13 of 15 runs), 3e4 (14 of 15) and 1e6 (5 of 5); n=5 won 8 of 15
# at N=1e4 and 10 of 15 at 3e4, so it stays in float64, as does every
# smaller n.  The rounding moves each moment by at most about 1e-6 of the
# moments of |x| (3e-7 measured), far below the kurtosis sampling error
# sqrt(24/N) that the z gate tests against.  The conditioning test is
# required.  Rounding the data lifts the null-space eigenvalues of C for a
# singular covariance (noise-free data with m < n, or N < n) from about
# 1e-17 to about 1e-8 of the largest, above the n*eps rank cutoff: C then
# had full rank, n=12, m=8 data failed to recover, and at n=16, m=12,
# N=2e4 the estimate kept a column 83.5 degrees off.  So the smallest
# covariance eigenvalue must be at least 1e-6 of the largest.
_FLOAT32_MIN_DIM = 6
_FLOAT32_MIN_EIG_RATIO = 1e-6


def _chunk_rows(n, itemsize):
    """Samples per chunk of the moment pass over the pair products of ``n``."""
    rows = max(_MIN_ROWS, _BUFFER_BYTES // (n * (n + 1) // 2 * itemsize))
    if itemsize == 4 and len(_group_edges(n)) > 2:
        rows = min(rows, _CENTER_ROWS)
    return rows


class SampleSet:
    """An N-by-n batch of observed signals with column means removed.

    Building one reads the input once and writes the centered copy
    :attr:`data`, a new F-ordered float64 or complex128 array; the input is
    neither kept nor mutated, so the caller may reuse it at once.  The
    column means are bitwise ``mean(axis=0)`` of a C-ordered copy.  A
    ``nan`` or ``inf`` in the input raises ValueError naming the first
    column (counted from 1) whose mean is not finite.
    """

    def __init__(self, data):
        raw = np.atleast_2d(np.asarray(data))
        if raw.ndim != 2:
            raise DimensionMismatchError("sample data must be a 2-D matrix")
        if raw.shape[0] < 2:
            raise InsufficientDataError(f"need at least 2 samples, got {raw.shape[0]}")
        self.n_samples, self.dim = raw.shape
        self.is_complex = np.iscomplexobj(raw)
        raw = np.ascontiguousarray(raw, complex if self.is_complex else float)
        # bitwise numpy's mean: it adds a C-ordered array's rows in order (as
        # einsum does, 2.5 times as fast at 1e6 x 8), but one column pairwise
        mean = raw.mean(axis=0) if self.dim == 1 else np.einsum("ij->j", raw) / len(raw)
        # a nan or inf anywhere in a column leaves its mean non-finite
        bad = np.flatnonzero(~np.isfinite(mean))
        if bad.size:
            raise ValueError(f"the mean of sample column {bad[0] + 1} of {self.dim} is not "
                             "finite (nan, inf, or values too large to sum)")
        XT = np.empty((self.dim, self.n_samples), dtype=raw.dtype)
        for s in range(0, self.n_samples, _CENTER_ROWS):
            np.subtract(raw[s:s + _CENTER_ROWS].T, mean[:, None],
                        out=XT[:, s:s + _CENTER_ROWS])
        self.data = XT.T  # the centered samples, N-by-n and F-ordered

    @cached_property
    def cov(self):
        """Sample covariance ``E[x x^H]`` (1/N convention), read-only.

        Computed on first use and kept: the oracle built from these samples
        and :func:`pegica.demix.sample_cov` share this one array.
        """
        return _covariance(self.data)


def _covariance(X):
    cov = (X.T @ X.conj()) / X.shape[0]
    cov = 0.5 * (cov + cov.conj().T)
    cov.flags.writeable = False
    return cov


def center(raw) -> SampleSet:
    """Subtract each column's sample mean.

    Parameters
    ----------
    raw : array_like, shape (N, n)
        Observed signals, one sample per row.  N must be at least 2, and
        every value finite.  Read once, here.

    Returns
    -------
    SampleSet
        Centered copy of the input; the same as ``SampleSet(raw)``.
    """
    return SampleSet(raw)


class CumulantOracle:
    """Fourth-cumulant functionals as contractions of one pair-space tensor.

    The oracle holds ``Q = cum(z, z^H)`` over the ``P = n(n+1)/2`` pair
    products ``z_(i,j) = x_i x_j`` (``i <= j``), with entries
    ``cum(x_i, x_j, conj(x_k), conj(x_l))``.  Every functional is a
    contraction of it: O(P^2) per ``fstar``, ``grad_f`` or z-score call,
    and ``C`` is a partial trace of ``Q``.

    ``CumulantOracle(samples)`` eigendecomposes :attr:`SampleSet.cov` once,
    for its pseudoinverse and for the float32 decision (real,
    well-conditioned data from n=6 on: see ``_FLOAT32_MIN_DIM``), then
    builds the tensor from the fourth moments of one chunked pass over the
    centered :attr:`SampleSet.data` (at most ``N P(P+1)/2`` multiply-adds,
    fewer at n = 7..11 and from n=24 on: see :func:`_pair_layout`), less
    their Gaussian part, which takes the covariance and, for complex data,
    ``E[x x^T]``, one product over the same samples.  ``grad_f`` is
    then the exact gradient of the sample ``fstar`` and ``C`` the rescaled
    sum of its exact Hessians.  :meth:`from_mixing` and :meth:`from_model`
    build it exactly from a mixing matrix and the source cumulants; those
    oracles have no samples, and their z-scores are None.
    """

    def __init__(self, samples: SampleSet):
        if not isinstance(samples, SampleSet):
            samples = center(samples)
        self.samples = samples
        self._index_pairs(samples.dim, samples.is_complex)
        S = samples.cov  # E[x x^H]
        self._cov_pinv, _, eigvals = hermitian_pinv(S)
        single = (not self.is_complex and self.dim >= _FLOAT32_MIN_DIM
                  and eigvals[0] >= _FLOAT32_MIN_EIG_RATIO * eigvals[-1])
        X = samples.data
        K = _pair_moments(X.T, np.float32 if single else None)
        P = X.T @ X / X.shape[0] if self.is_complex else S  # E[x x^T]
        # subtract the Gaussian (Isserlis) part of the fourth moments once
        self._Q = K - self._isserlis(P, P.conj(), S)

    @classmethod
    def from_mixing(cls, A, k4):
        """Exact cumulants of ``X = A S + noise`` for independent sources.

        ``Q = Z diag(k4) Z^H`` with the pair rows ``Z = A[i] * A[j]``.
        Gaussian noise of any covariance does not enter.

        Parameters
        ----------
        A : ndarray, shape (n, m)
            Mixing matrix; a complex model carries its phases here.
        k4 : array_like of real, shape (m,)
            Conjugation-scheme fourth cumulant ``cum(s, s, conj(s), conj(s))``
            of each source, which for a real source is its plain fourth
            cumulant.  Complex values raise ValueError.
        """
        A = np.atleast_2d(np.asarray(A))
        k4 = np.asarray(k4)
        if np.iscomplexobj(k4):
            raise ValueError("source fourth cumulants must be real")
        k4 = k4.astype(float).ravel()
        if k4.shape[0] != A.shape[1]:
            raise DimensionMismatchError("one kappa4 per mixing column required")
        self = cls.__new__(cls)
        self.samples = self._cov_pinv = None
        self._index_pairs(A.shape[0], np.iscomplexobj(A))
        Z = A[self._iu] * A[self._ju]
        self._Q = (Z * k4) @ Z.conj().T
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
    # y^2 = z . w(v) and every cumulant of y is a contraction of Q.
    def _weights(self, v):
        return self._pair_weight * v[self._iu] * v[self._ju]

    def fstar(self, u):
        """Conjugation-scheme cumulant ``cum(y, y, conj(y), conj(y))``.

        Real for any distribution; the imaginary residue left by floating
        point is checked against ``1e-10 * (1 + |Re|)`` before being
        discarded.  For real data it is the plain ``cum(y, y, y, y)``.
        """
        w = self._weights(np.conj(self._check(u)))
        value = complex(w @ self._Q @ np.conj(w))
        if abs(value.imag) > 1e-10 * (1.0 + abs(value.real)):
            raise NumericalConsistencyError(
                f"fstar produced imaginary residue {value.imag:.3e}"
            )
        return value.real

    def grad_f(self, u):
        """Gradient of :meth:`fstar`, named for the benchmark's shims.

        ``d fstar / d Re(u) + i d fstar / d Im(u) = 4 cum(x, y, conj(y),
        conj(y))``, which is real for real data.
        """
        v = np.conj(self._check(u))
        # (Q conj(w))[pair] is the matrix cum(x, x^T, conj(y), conj(y))
        return 4.0 * ((self._Q @ np.conj(self._weights(v)))[self._pair] @ v)

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
        m2 = float((v @ self.samples.cov @ np.conj(v)).real)
        if m2 <= 0.0:
            return 0.0
        gamma = self.fstar(u) / m2**2
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

        Equals ``(1/4) sum_k H(e_k)`` with ``H`` the mixed-derivative
        complex Hessian of ``fstar``, which for real data is ``(1/12)
        sum_k H(e_k)`` with ``H`` its real Hessian:
        ``C_ij = sum_k Q[(k, j), (k, i)]``, a partial trace of the tensor.
        """
        pair = self._pair
        C = self._Q[pair[:, :, None], pair[:, None, :]].sum(axis=0).T
        return 0.5 * (C + C.conj().T)


# The benchmark harness in perfbench/ builds this class, and patches its
# methods, under its former name.
EmpiricalCumulantOracle = CumulantOracle


class _PairLayout(NamedTuple):
    groups: tuple  # (j0, j1, first buffer row) per group of middle indices
    products: tuple  # (left rows, right rows, accumulator slice) per GEMM
    size: int  # accumulator length
    order: np.ndarray  # buffer row of each pair, in np.triu_indices order
    gather: np.ndarray  # (P, P) accumulator index of each entry of E[z z^T]


def _group_edges(n):
    # cut points of the middle index: one group below n=7, ceil(n/3) groups
    # of two or three indices from n=7 to 11, one group again from n=12 to
    # 23, then groups of 12 to 23 indices.  Narrower groups repeat fewer
    # moments but make thinner GEMMs, which OpenBLAS on 2 cores runs at a
    # fraction of the syrk's rate.  Below n=12 the saved products win from
    # n=7 on: at n=8 the groups [0, 3, 5, 8] take 477 products per row
    # against the syrk's 666.  Build time of ceil(n/3) groups over one syrk
    # at N=2e5 on 2 vCPUs, median of 7 alternating runs, and runs won:
    #
    #   n       3     4     5     6     7     8     9     10    11
    #   ratio   0.97  1.02  0.93  1.08  0.88  0.67  0.88  0.76  0.85
    #   won     4/7   2/7   5/7   0/7   7/7   7/7   7/7   7/7   7/7
    #
    # n=3 is one group either way, so its column shows the run-to-run
    # spread, and n=5 won by less than its own (0.77 to 1.08).  At n=8 the
    # ratio was 0.62 to 0.65 at N = 1e4, 1e5 and 1e6 (7 of 7 runs each).
    # Timed at n = 12..48, no narrower width beat these by more than the
    # spread.  At n=24 two groups ran the `wide` benchmark about 8% faster
    # than one syrk (lower in 17 of 20 alternating runs).  With one GEMM per
    # contiguous run (_pair_layout), [0, 3, 5, 8] still built n=8 fastest of
    # seven layouts on float32 data at N=1e6; [0, 3, 6, 8] and [0, 2, 5, 8]
    # came within 2%, [0, 4, 6, 8], [0, 2, 4, 8], [0, 4, 7, 8] and one group
    # took 1.5 to 1.7 times as long (median of 5, 2 vCPUs).
    if n < 7:
        count = 1
    elif n < 12:
        count = -(-n // 3)
    else:
        count = n // 12
    return [round(k * n / count) for k in range(count + 1)]


def _quad_key(i, j, k, l, n):
    # index of the sorted quadruple of the pairs (i <= j) and (k <= l)
    inner_lo, inner_hi = np.maximum(i, k), np.minimum(j, l)
    a, d = np.minimum(i, k), np.maximum(j, l)
    b, c = np.minimum(inner_lo, inner_hi), np.maximum(inner_lo, inner_hi)
    return ((a * n + b) * n + c) * n + d


@lru_cache(maxsize=4)
def _pair_layout(n):
    """Where ``_pair_moments`` computes each distinct fourth moment.

    The middle index ``j`` of the pairs ``(i, j)``, ``i <= j``, is cut into
    groups ``[j0, j1)`` (:func:`_group_edges`).  The buffer holds group
    after group; inside a group come the pairs with ``i < j0`` (``i``-major,
    ``j1 - j0`` of them per ``i``), then those with ``j0 <= i``.  A sorted
    quadruple ``i <= j <= k <= l`` is the product of the left pair
    ``(i, j)``, in the group ``b`` of ``j``, and the right pair ``(k, l)``,
    in the group ``c >= b`` of ``l``, with ``k >= j0(b)``; in group ``c``
    the pairs whose first index is at least ``j0(b)`` form a contiguous
    tail.  So group ``b`` against that tail of each group ``c >= b`` covers
    every quadruple whose middle index ``j`` lies in group ``b``, and all
    of them together hold each of the ``C(n+3, 4)`` distinct moments.
    Group ``b`` makes one product per maximal contiguous run of its tails:
    for the first group (``j0 = 0``) every tail is its whole group, so its
    one product reads the whole buffer; a later group's tails are kept
    apart by the pairs with ``i < j0``, one product each.  So n=8 makes
    4 GEMMs, ``(6, 36), (9, 3), (9, 12), (21, 6)``, and n=24 makes
    ``(78, 300), (222, 78)``.  Fewer, wider calls pay BLAS's per-call
    packing less often, and no grouped layout multiplies a block by itself,
    which numpy would send to syrk: in float32 with 4096-row chunks the
    6-pair ``z[0:6] @ z[0:6].T`` took 8.5 ms per 1e6 rows as an ssyrk
    against 1.7 ms for an sgemm of the same shape, and the first group's
    one 6 x 36 sgemm 7.9 ms against 16.4 ms for its former three products
    (best of 7, 2 vCPUs).  Quadruples with ``j`` and ``k`` in one group
    come out more than once; ``gather`` reads every entry of ``E[z z^T]``
    (real data's ``K``) from the first product entry holding its sorted
    quadruple, so equal moments are bitwise equal; a layout whose products
    miss a moment raises RuntimeError.  With a single group the one product is ``z z^T``, which
    numpy computes as a syrk.
    """
    edges = _group_edges(n)
    pair_i, pair_j, groups = [], [], []
    for j0, j1 in zip(edges[:-1], edges[1:]):
        groups.append((j0, j1, len(pair_i)))
        for i in range(j1):
            for j in range(max(i, j0), j1):
                pair_i.append(i)
                pair_j.append(j)
    pair_i, pair_j = np.array(pair_i), np.array(pair_j)
    ends = [first for _, _, first in groups[1:]] + [pair_i.size]
    products, keys, size = [], [], 0
    for b, (j0, _, first) in enumerate(groups):
        left = slice(first, ends[b])
        runs = []  # [start, stop) of each maximal contiguous run of tails
        for (c0, c1, tail), end in zip(groups[b:], ends[b:]):
            start = tail + j0 * (c1 - c0)
            if runs and runs[-1][1] == start:
                runs[-1][1] = end
            else:
                runs.append([start, end])
        for start, stop in runs:
            right = slice(start, stop)
            keys.append(_quad_key(pair_i[left, None], pair_j[left, None],
                                  pair_i[right], pair_j[right], n).ravel())
            products.append((left, right, slice(size, size + keys[-1].size)))
            size += keys[-1].size
    distinct, first_seen = np.unique(np.concatenate(keys), return_index=True)
    iu, ju = np.triu_indices(n)
    gather = np.empty((iu.size, iu.size), dtype=np.int32 if size < 2**31 else np.intp)
    for lo in range(0, iu.size, 64):  # 64 rows at a time bounds the temporaries
        part = slice(lo, lo + 64)
        key = _quad_key(iu[part, None], ju[part, None], iu, ju, n)
        found = np.minimum(np.searchsorted(distinct, key), distinct.size - 1)
        if not np.array_equal(distinct[found], key):
            raise RuntimeError(f"the pair layout at n={n} computes no product for "
                               "some fourth moment")
        gather[part] = first_seen[found]
    row = np.empty((n, n), dtype=np.intp)
    row[pair_i, pair_j] = np.arange(pair_i.size)
    order = row[iu, ju]
    order.flags.writeable = gather.flags.writeable = False
    return _PairLayout(tuple(groups), tuple(products), size, order, gather)


def _pair_moments(XT, dtype=None):
    """One chunked pass over the columns of the centered n-by-N samples ``XT``.

    The float64 pass forms each chunk's products straight from its
    n-by-rows slice ``XT[:, s:s + rows]``.  Returns ``K = E[z z^H]`` for
    the pair products ``z = x[iu] * x[ju]``, ``iu, ju = np.triu_indices(n)``;
    :class:`CumulantOracle` forms the second moments of the Gaussian part
    apart, one product each.  Each chunk's pair products are formed once, by
    broadcasting one row index against a run of others, in the block
    layout of :func:`_pair_layout`.  For real data every product of a chunk
    is written into one staging buffer laid out like the accumulator, which
    takes one add per chunk; ``K`` is expanded from it once at the end.
    ``dtype`` is the working dtype of the chunks, their products and the
    block GEMMs (that of ``XT`` when None); the accumulator and the results
    keep ``XT``'s float64 or complex128.  :class:`CumulantOracle` passes
    float32 for real, well-conditioned data from n=6 on (see
    ``_FLOAT32_MIN_DIM``):
    each chunk, of at most 4096 rows from n=7 to 11, is then cast to
    float32, the GEMMs run as sgemm, and the staged products are added in
    float64, which leaves every moment within 1e-6 of the moments of
    ``|x|`` (5.4e-7 measured).  For complex data ``z = a + ib`` one real
    syrk of the stacked ``[a; b]`` accumulates ``a a^T``, ``a b^T`` and
    ``b b^T``, which give ``K = (a a^T + b b^T) + i (b a^T - a b^T)``.
    """
    (n, N), cplx = XT.shape, np.iscomplexobj(XT)
    exact = XT.dtype
    work = exact if dtype is None else np.dtype(dtype)
    layout = _pair_layout(n)
    n_pairs = layout.order.size
    rows = min(N, _chunk_rows(n, work.itemsize))
    xt = np.empty((n, rows), dtype=work) if work != exact else None
    z = np.empty((n_pairs, rows), dtype=work)
    if cplx:
        parts = np.empty((2 * n_pairs, rows))  # [Re z; Im z]
        W = np.zeros((2 * n_pairs, 2 * n_pairs))
    else:
        acc = np.zeros(layout.size, dtype=exact)
        stage = np.empty(layout.size, dtype=work)
    for s in range(0, N, rows):
        x = XT[:, s:s + rows]
        if xt is not None:
            np.copyto(xt[:, :x.shape[1]], x)
            x = xt[:, :x.shape[1]]
        zc = z[:, :x.shape[1]]
        for j0, j1, first in layout.groups:
            row = first + j0 * (j1 - j0)
            np.multiply(x[:j0, None], x[None, j0:j1],
                        out=zc[first:row].reshape(j0, j1 - j0, x.shape[1]))
            for i in range(j0, j1):
                np.multiply(x[i], x[i:j1], out=zc[row:row + j1 - i])
                row += j1 - i
        if cplx:
            w = parts[:, :x.shape[1]]
            np.copyto(w[:n_pairs], zc.real)
            np.copyto(w[n_pairs:], zc.imag)
            W += w @ w.T
        else:
            for left, right, part in layout.products:
                np.matmul(zc[left], zc[right].T,
                          out=stage[part].reshape(left.stop - left.start, -1))
            acc += stage
    if not cplx:
        K = acc[layout.gather]
        K /= N
        return K
    aa, ab, bb = W[:n_pairs, :n_pairs], W[:n_pairs, n_pairs:], W[n_pairs:, n_pairs:]
    K = (aa + bb) + 1j * (ab.T - ab)
    return K[np.ix_(layout.order, layout.order)] / N


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
    eigvals: np.ndarray

    @property
    def dim(self):
        return self.C.shape[0]


def build_C(oracle: CumulantOracle) -> PseudoMetric:
    """Assemble the pseudo-Euclidean metric from the oracle's ``C``.

    ``C`` sums the rescaled Hessians at the coordinate directions (see
    :meth:`CumulantOracle.build_C_matrix`), which guarantees every source
    contributes ``||A_k||^2 kappa4(S_k)`` to the diagonal scaling,
    regardless of sign.

    Callers that know the number of sources should check ``metric.rank``
    against it; see :func:`pegica.recovery.pegi_full`.
    """
    C = oracle.build_C_matrix()
    C_pinv, rank, eigvals = hermitian_pinv(C)
    return PseudoMetric(C=C, C_pinv=C_pinv, rank=rank, eigvals=eigvals)
