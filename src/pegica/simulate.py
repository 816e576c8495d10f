"""Ground-truth model generation and reproducible sampling.

Models follow the malaligned-noise benchmark protocol: a mixing matrix
built by reverse SVD with singular values in [1, cond], independent
unit-variance non-Gaussian sources drawn from a panel of seven families,
and Gaussian noise with covariance ``Sigma = p (10 I - A A^H)`` where the
noise power ``p`` is the ratio of maximum directional noise variance to
maximum directional signal variance.

Everything is a pure function of its parameters and a 64-bit seed.
Independent streams are derived with ``numpy.random.SeedSequence`` spawn
keys, one per (purpose, index), so trials can run in any order or in
parallel without changing the draws.  :func:`draw_batch` uses that: the
noise stream fills its buffer on a second thread while the sources are
drawn, and since each stream writes only its own buffer, in its own fixed
order, the batch is the same bit for bit as a serial draw.  After the
thread is joined, the sources and the noise are mixed one block of rows at
a time, back into the noise buffer; each block's products have the bits of
the whole-array products, so this too leaves the batch unchanged.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ModelConstructionError

__all__ = [
    "SourceSpec",
    "source_spec",
    "GroundTruthModel",
    "DrawBatch",
    "stream",
    "random_mixing",
    "check_noise_power",
    "noise_cov",
    "default_source_panel",
    "finite_kurtosis_panel",
    "make_model",
    "draw_batch",
]

# purpose tags -> stable stream indices
_PURPOSES = {"mixing": 0, "phases": 1, "sources": 2, "noise": 3, "starts": 4}


def stream(seed, purpose, *key):
    """A reproducible generator for one purpose within a seeded run.

    ``stream(seed, "sources", trial)`` and ``stream(seed, "noise", trial)``
    never overlap, for any trial, under the same master seed.
    """
    if purpose not in _PURPOSES:
        raise ValueError(f"unknown stream purpose {purpose!r}")
    spawn_key = (_PURPOSES[purpose],) + tuple(int(k) for k in key)
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=spawn_key))


@dataclass(frozen=True)
class SourceSpec:
    """One standardized (zero-mean, unit-variance) source distribution.

    ``kappa4_closed_form`` is the exact fourth cumulant, present only when
    the fourth moment is finite (it is None for student_t(3)).
    """

    family: str
    param: float = None

    def __post_init__(self):
        if self.family not in ("laplace", "bernoulli", "student_t", "exponential", "uniform"):
            raise ValueError(f"unknown source family {self.family!r}")
        if self.family == "bernoulli":
            if self.param is None or not 0.0 < self.param < 1.0:
                raise ValueError("bernoulli parameter must lie in (0, 1)")
        if self.family == "student_t":
            if self.param is None or self.param < 3 or self.param != int(self.param):
                raise ValueError("student_t needs an integer dof >= 3")

    @property
    def label(self):
        if self.param is None:
            return self.family
        if self.family == "student_t":
            return f"student_t({int(self.param)})"
        return f"{self.family}({self.param:g})"

    @property
    def kappa4_closed_form(self):
        if self.family == "laplace":
            return 3.0
        if self.family == "uniform":
            return -1.2
        if self.family == "exponential":
            return 6.0
        if self.family == "bernoulli":
            pq = self.param * (1.0 - self.param)
            return (1.0 - 6.0 * pq) / pq
        dof = int(self.param)  # student_t
        if dof <= 4:
            return None  # fourth moment infinite
        return 6.0 / (dof - 4.0)

    def sample(self, count, rng):
        """Draw ``count`` i.i.d. standardized values."""
        if count < 1:
            raise ValueError("count must be positive")
        if self.family == "laplace":
            return rng.laplace(0.0, 1.0 / math.sqrt(2.0), count)
        if self.family == "uniform":
            r3 = math.sqrt(3.0)
            return rng.uniform(-r3, r3, count)
        if self.family == "exponential":
            return rng.exponential(1.0, count) - 1.0
        if self.family == "bernoulli":
            p = self.param
            draws = (rng.random(count) < p).astype(float)
            return (draws - p) / math.sqrt(p * (1.0 - p))
        dof = int(self.param)  # student_t
        # population variance dof/(dof-2) is finite for dof >= 3,
        # so exact unit-variance scaling exists even when kappa4 does not
        return rng.standard_t(dof, count) * math.sqrt((dof - 2.0) / dof)


def source_spec(text) -> SourceSpec:
    """Parse a spec label such as ``"laplace"`` or ``"bernoulli(0.05)"``."""
    text = text.strip()
    if "(" in text:
        if not text.endswith(")"):
            raise ValueError(f"malformed source spec {text!r}")
        family, arg = text[:-1].split("(", 1)
        return SourceSpec(family=family.strip(), param=float(arg))
    return SourceSpec(family=text)


_PAPER_FAMILIES = (
    "laplace",
    "bernoulli(0.05)",
    "bernoulli(0.5)",
    "student_t(3)",
    "student_t(5)",
    "exponential",
    "uniform",
)

_FINITE_K4_FAMILIES = tuple(
    t for t in _PAPER_FAMILIES if source_spec(t).kappa4_closed_form is not None
)


def _cycle(families, n_dims):
    if n_dims < 1:
        raise ValueError("n_dims must be positive")
    reps = -(-n_dims // len(families))  # ceil
    labels = (families * reps)[:n_dims]
    return [source_spec(t) for t in labels]


def default_source_panel(n_dims):
    """The seven-family benchmark panel, cycled to ``n_dims`` entries.

    ``n_dims=14`` gives each family exactly twice; smaller sizes truncate
    the cycle.
    """
    return _cycle(_PAPER_FAMILIES, n_dims)


def finite_kurtosis_panel(n_dims):
    """Like :func:`default_source_panel` but skipping student_t(3), so every
    source has a closed-form fourth cumulant and
    :meth:`~pegica.cumulants.CumulantOracle.from_model` applies.  The mix
    still contains both signs of kurtosis."""
    return _cycle(_FINITE_K4_FAMILIES, n_dims)


def _haar_orthogonal(n, rng):
    # QR of a Gaussian matrix with the R diagonal sign fixed is Haar
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def random_mixing(n, m, cond, rng):
    """Mixing matrix by reverse SVD with controlled condition number.

    ``A = U diag(s) V^T`` with Haar-random orthogonal factors, minimum
    singular value 1, maximum ``cond``, and intermediate values i.i.d.
    uniform on (1, cond).
    """
    if not (n >= m >= 1):
        raise DimensionMismatchError(f"need n >= m >= 1, got n={n}, m={m}")
    if cond < 1.0:
        raise ValueError("condition number must be >= 1")
    if m == 1:
        sigma = np.array([1.0])
    else:
        sigma = np.concatenate([[1.0, cond], rng.uniform(1.0, cond, m - 2)])
    U = _haar_orthogonal(n, rng)[:, :m]
    V = _haar_orthogonal(m, rng)
    return (U * sigma) @ V.T


def check_noise_power(p):
    """Refuse a noise power that is negative, nan or infinite (ValueError)."""
    if not 0 <= p < math.inf:
        raise ValueError(f"noise power must be a nonnegative finite number, got {p}")


def noise_cov(A, p):
    """Malaligned noise covariance ``p (10 I - A A^H)``.

    ``p`` must pass :func:`check_noise_power`; the largest singular value
    of ``A`` must stay below sqrt(10) so the result is positive semidefinite.
    """
    check_noise_power(p)
    A = np.atleast_2d(np.asarray(A))
    n = A.shape[0]
    gram = A @ A.conj().T
    Sigma = p * (10.0 * np.eye(n) - gram)
    Sigma = 0.5 * (Sigma + Sigma.conj().T)
    if np.iscomplexobj(Sigma) and np.abs(Sigma.imag).max() <= 1e-12 * (1.0 + np.abs(Sigma.real).max()):
        Sigma = Sigma.real.copy()
    if p > 0:
        min_eig = float(np.linalg.eigvalsh(Sigma).min())
        if min_eig < -1e-10:
            raise ModelConstructionError(
                f"noise covariance not PSD (min eigenvalue {min_eig:.3e}); "
                "largest singular value of A must not exceed sqrt(10)"
            )
    return Sigma


@dataclass(frozen=True)
class GroundTruthModel:
    """A fully specified noisy linear mixture ``X = A S + eta``.

    Sources are independent with identity covariance; ``Sigma`` is the
    Gaussian noise covariance and ``noise_power`` the scalar ``p`` used to
    build it (kept for reporting).
    """

    A: np.ndarray
    sources: tuple
    Sigma: np.ndarray
    noise_power: float

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "sources", tuple(self.sources))
        Sigma = np.asarray(self.Sigma)
        if not np.iscomplexobj(Sigma):
            Sigma = Sigma.astype(float)
        object.__setattr__(self, "Sigma", Sigma)
        if len(self.sources) != A.shape[1]:
            raise DimensionMismatchError("one SourceSpec per mixing column required")
        if Sigma.shape != (A.shape[0], A.shape[0]):
            raise DimensionMismatchError("Sigma must be n-by-n")
        if np.linalg.norm(Sigma - Sigma.conj().T) > 1e-10 * (1 + np.linalg.norm(Sigma)):
            raise ModelConstructionError("Sigma must be Hermitian")
        if Sigma.size and float(np.linalg.eigvalsh(Sigma).min()) < -1e-10:
            raise ModelConstructionError("Sigma must be positive semidefinite")

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.A.shape[1]

    @property
    def is_complex(self):
        return np.iscomplexobj(self.A)


@dataclass(frozen=True)
class DrawBatch:
    """Observed samples X (N-by-n) with the latent sources S (N-by-m)
    retained for evaluation; the seed stays with the caller.

    ``S`` is the transposed view of an m-by-N buffer, so it is F-ordered;
    ``X`` is C-ordered.
    """

    X: np.ndarray
    S: np.ndarray


def make_model(
    n,
    m=None,
    cond=3.0,
    noise_power=0.1,
    sources=None,
    seed=0,
    complex_phases=False,
):
    """Convenience constructor for a benchmark-style model.

    ``complex_phases=True`` multiplies each mixing column by a random unit
    phase, turning the model complex without changing source cumulants or
    column directions' separability.
    """
    m = n if m is None else m
    A = random_mixing(n, m, cond, stream(seed, "mixing"))
    if complex_phases:
        phases = np.exp(2j * np.pi * stream(seed, "phases").random(m))
        A = A.astype(complex) * phases
    if sources is None:
        sources = default_source_panel(m)
    Sigma = noise_cov(A, noise_power)
    return GroundTruthModel(A=A, sources=tuple(sources), Sigma=Sigma, noise_power=noise_power)


def _noise_factor(Sigma):
    # eigenfactor L with L L^H = Sigma; works at the PSD boundary where
    # Cholesky would fail
    eigvals, eigvecs = np.linalg.eigh(Sigma)
    eigvals = np.clip(eigvals, 0.0, None)
    return eigvecs * np.sqrt(eigvals)


def _fill_normal(rng, buffers, errors):
    # thread body: fill each buffer in turn, keep any exception for the caller
    try:
        for buf in buffers:
            rng.standard_normal(out=buf)
    except BaseException as exc:
        errors.append(exc)


# Rows per block when draw_batch mixes the sources and the noise.  A block
# this small runs its products on the calling thread, so no OpenBLAS worker
# is left spinning on the second core that the next draw's noise thread
# needs.  In-process `sweep` rounds (n=8, 2 vCPUs, median of 3-7):
#
#   rows per block      whole array   1024   2048   4096   8192   16384   65536
#   round (s)           0.533-0.542   0.404  0.370  0.390  0.510  0.540   0.555
#
# (0.421 s for whole arrays with OPENBLAS_NUM_THREADS=1.)  Every block has
# at least this many rows, the remainder joining the last: a one-row block
# goes to gemv, and a two-row one at n=40 gave other bits than the whole
# product.  So laid out, each block's products have the bits of the
# whole-array products (tests/test_draw_batch.py checks the block edges).
_MIX_ROWS = 4096


def _row_blocks(N):
    edges = [k * _MIX_ROWS for k in range(max(N // _MIX_ROWS, 1))] + [N]
    return [slice(start, stop) for start, stop in zip(edges, edges[1:])]


def draw_batch(model: GroundTruthModel, N, seed) -> DrawBatch:
    """Draw N samples from the model, keeping the latent sources.

    The batch is a pure function of (model, N, seed): sources and noise
    come from separate derived streams, so identical seeds give
    bit-identical arrays.  A noisy model fills its noise on a second
    thread (numpy's generators release the GIL while filling) into
    buffers allocated here, while this thread draws the sources.  After
    the join, each block of ``_MIX_ROWS`` rows is mixed as
    ``noise = g L^T``, ``noise += S A^T`` and written back into the noise
    buffer, which becomes X (a complex batch gets one new complex X), so
    the draw holds two N-by-n arrays rather than four.
    """
    if N < 1:
        raise ValueError("N must be positive")
    rows = np.empty((model.m, N))
    noisy = model.noise_power > 0
    if noisy:
        # real and imaginary parts are drawn one after the other
        g = [np.empty((N, model.n)) for _ in range(2 if model.is_complex else 1)]
        errors = []
        filler = threading.Thread(target=_fill_normal, args=(stream(seed, "noise"), g, errors))
        filler.start()
    try:
        rng_s = stream(seed, "sources")
        for row, spec in zip(rows, model.sources):
            row[:] = spec.sample(N, rng_s)
    finally:
        if noisy:
            filler.join()
    S = rows.T
    if not noisy:
        return DrawBatch(X=S @ model.A.T, S=S)
    if errors:
        raise errors[0]
    L = _noise_factor(model.Sigma)
    dtype = np.result_type(model.A, L)
    # a real mixing matrix with a complex noise covariance gives a complex X
    X = g[0] if dtype == g[0].dtype else np.empty((N, model.n), dtype)
    for b in _row_blocks(N):
        if model.is_complex:
            noise = ((g[0][b] + 1j * g[1][b]) / math.sqrt(2.0)) @ L.T
        else:
            noise = g[0][b] @ L.T
        noise += S[b] @ model.A.T
        X[b] = noise
    return DrawBatch(X=X, S=S)
