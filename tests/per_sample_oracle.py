"""Reference cumulant oracle: the per-sample plug-in formulas.

Every evaluation makes its own vectorized pass over the samples: O(Nn) for
``fstar`` and ``grad_f``, O(Nn^2) for the Hessian.  ``CumulantOracle`` computes
the same statistics by contracting a cumulant tensor accumulated in one
pass; the equivalence tests compare the two.  Nothing here is shared with
the code it checks.
"""

import numpy as np

from pegica import SampleSet, center
from pegica.errors import DimensionMismatchError, NumericalConsistencyError
from pegica.linalg import hermitian_pinv


class PerSampleOracle:
    """Plug-in moment estimators, one pass over the samples per call."""

    def __init__(self, samples: SampleSet):
        if not isinstance(samples, SampleSet):
            samples = center(samples)
        self.samples = samples
        self.dim = samples.dim
        self.is_complex = samples.is_complex
        self._second_moments = None

    def _check(self, u):
        u = np.asarray(u).ravel()
        if u.shape != (self.dim,):
            raise DimensionMismatchError(
                f"direction has shape {u.shape}, oracle dimension is {self.dim}"
            )
        return u

    def _project(self, u):
        # <x_t, u> for every sample row
        return self.samples.data @ np.conj(u)

    def fstar(self, u):
        u = self._check(u)
        y = self._project(u)
        yc = np.conj(y)
        value = complex(
            np.mean(y**2 * yc**2)
            - 2.0 * np.mean(y * yc) ** 2
            - np.mean(y**2) * np.mean(yc**2)
        )
        if abs(value.imag) > 1e-10 * (1.0 + abs(value.real)):
            raise NumericalConsistencyError(
                f"fstar produced imaginary residue {value.imag:.3e}"
            )
        return value.real

    def grad_f(self, u):
        # d fstar / d Re(u) + i d fstar / d Im(u)
        u = self._check(u)
        X = self.samples.data
        N = self.samples.n_samples
        y = self._project(u)
        yc = np.conj(y)
        power = (y * yc).real
        # one fused pass over X for E[|y|^2 conj(y) x], E[conj(y) x] and E[y x]
        moments = (X.T @ np.column_stack((power * yc, yc, y))) / N
        return 2.0 * (2.0 * moments[:, 0] - 4.0 * np.mean(power) * moments[:, 1]
                      - 2.0 * np.conj(np.mean(y**2)) * moments[:, 2])

    def _moments(self):
        # cached second-moment matrices: M = E[conj(x) x^T], P = E[x x^T]
        if self._second_moments is None:
            X = self.samples.data
            N = self.samples.n_samples
            P = (X.T @ X) / N
            M = (X.conj().T @ X) / N if self.is_complex else P
            self._second_moments = (M, P)
        return self._second_moments

    def hess_fstar(self, u):
        u = self._check(u)
        X = self.samples.data
        N = self.samples.n_samples
        y = self._project(u)
        M, _ = self._moments()
        if not self.is_complex:
            e_y2xx = (X.T @ (y[:, None] ** 2 * X)) / N
            e_yx = (X.T @ y) / N
            H = 12.0 * (e_y2xx - np.mean(y**2) * M - 2.0 * np.outer(e_yx, e_yx))
            return 0.5 * (H + H.T)
        ymag2 = (y * y.conj()).real
        Xc = X.conj()
        e_y2xx = (Xc.T @ (ymag2[:, None] * X)) / N
        e_y_xc = (Xc.T @ y) / N  # E[y conj(x)]
        e_yc_xc = (Xc.T @ y.conj()) / N  # E[conj(y) conj(x)]
        H = 4.0 * (
            e_y2xx
            - np.outer(e_y_xc, e_y_xc.conj())
            - np.mean(ymag2) * M
            - np.outer(e_yc_xc, e_yc_xc.conj())
        )
        return 0.5 * (H + H.conj().T)

    def kurtosis_z_score(self, u):
        """How many standard errors the projection's kurtosis is from zero.

        Under the null hypothesis that the projection ``<X, u>`` is
        Gaussian, the sample excess kurtosis has asymptotic standard error
        sqrt(24/N).  A small score means the direction carries no
        fourth-cumulant signal distinguishable from sampling noise, so a
        column candidate there is an artifact of estimation error.
        """
        u = self._check(u)
        y = self._project(u)
        m2 = float(np.mean((y * np.conj(y)).real))
        if m2 == 0.0:
            return 0.0
        gamma = self.fstar(u) / m2**2
        return float(abs(gamma) / np.sqrt(24.0 / self.samples.n_samples))

    def source_z_score(self, column):
        # the SINR-optimal demixing direction cov(X)^+ column, cov = E[x x^H]
        M, _ = self._moments()
        return self.kurtosis_z_score(hermitian_pinv(M.conj())[0] @ self._check(column))

    def build_C_matrix(self):
        """Sum of Hessians at the coordinate directions, already rescaled.

        Equals ``(1/12) sum_k hess(e_k)`` for real data and
        ``(1/4) sum_k hess_fstar(e_k)`` for complex data, evaluated in a
        single pass instead of n Hessian calls.
        """
        X = self.samples.data
        N = self.samples.n_samples
        M, P = self._moments()
        if not self.is_complex:
            row_norm2 = np.einsum("ti,ti->t", X, X)
            t1 = (X.T @ (row_norm2[:, None] * X)) / N
            C = t1 - np.trace(M) * M - 2.0 * (M @ M)
            return 0.5 * (C + C.T)
        row_norm2 = np.einsum("ti,ti->t", X.conj(), X).real
        t1 = (X.conj().T @ (row_norm2[:, None] * X)) / N
        C = t1 - M @ M - np.trace(M) * M - P.conj() @ P
        return 0.5 * (C + C.conj().T)
