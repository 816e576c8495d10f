"""SINR-optimal demixing, scoring and column matching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegica import (
    DemixMatrix,
    GroundTruthModel,
    SampleSet,
    analytic_cov,
    center,
    draw_batch,
    finite_kurtosis_panel,
    match_columns,
    noise_cov,
    optimal_sinr,
    pinv_demix,
    random_mixing,
    sample_cov,
    sinr_k,
    sinr_loss,
    sinr_optimal_demix,
    stream,
)
from pegica.errors import DimensionMismatchError
from pegica.linalg import to_db, vector_angle
from conftest import brute_force_assignment, make_test_model


def _identity_model(n, sigma2):
    return GroundTruthModel(
        A=np.eye(n),
        sources=tuple(finite_kurtosis_panel(n)),
        Sigma=sigma2 * np.eye(n),
        noise_power=sigma2 / 10.0,
    )


class TestSampleCov:
    def test_zero_samples_give_zero_matrix(self):
        samples = SampleSet(np.zeros((10, 3)))
        assert np.all(sample_cov(samples) == 0.0)

    def test_gaussian_identity(self, rng):
        samples = center(rng.standard_normal((1_000_000, 3)))
        cov = sample_cov(samples)
        assert np.max(np.abs(cov - np.eye(3))) <= 0.01

    def test_model_covariance(self):
        model = make_test_model(n=4, seed=40, noise_power=0.3)
        batch = draw_batch(model, 500_000, seed=41)
        cov = sample_cov(center(batch.X))
        expected = analytic_cov(model)
        assert np.linalg.norm(cov - expected) <= 0.02 * np.linalg.norm(expected)

    def test_hermitian_output(self, rng):
        z = rng.standard_normal((5000, 3)) + 1j * rng.standard_normal((5000, 3))
        cov = sample_cov(center(z))
        np.testing.assert_allclose(cov, cov.conj().T, atol=1e-14)

    def test_uncentered_rejected(self, rng):
        # only a SampleSet is known to be centered
        with pytest.raises(DimensionMismatchError):
            sample_cov(rng.standard_normal((100, 2)) + 5.0)


class TestSinrOptimalDemix:
    def test_identity_model_closed_form(self):
        sigma2 = 0.25
        B = sinr_optimal_demix(np.eye(3), (1 + sigma2) * np.eye(3)).B
        np.testing.assert_allclose(B, np.eye(3) / (1 + sigma2), atol=1e-12)

    def test_column_rescaling_rescales_rows_and_keeps_sinr(self):
        model = make_test_model(n=4, seed=42, noise_power=0.2)
        cov = analytic_cov(model)
        B1 = sinr_optimal_demix(model.A, cov).B
        scales = np.array([2.0, -0.5, 3.0, 1.0])
        B2 = sinr_optimal_demix(model.A * scales, cov).B
        np.testing.assert_allclose(B2, scales[:, None] * B1, atol=1e-12)
        for k in range(4):
            assert sinr_k(B2[k], model, k) == pytest.approx(
                sinr_k(B1[k], model, k), rel=1e-12
            )

    def test_noise_free_rows_parallel_to_pseudoinverse(self):
        # scaled/permuted column estimates: optimal demixer collapses to
        # the plain pseudoinverse, row by row
        rng = stream(43, "mixing")
        model = make_test_model(n=5, seed=43, noise_power=0.0)
        scales = rng.uniform(0.5, 2.0, 5) * rng.choice([-1.0, 1.0], 5)
        perm = rng.permutation(5)
        A_tilde = (model.A * scales)[:, perm]
        B_opt = sinr_optimal_demix(A_tilde, model.A @ model.A.T).B
        B_pinv = pinv_demix(A_tilde).B
        for k in range(5):
            assert vector_angle(B_opt[k], B_pinv[k]) <= 1e-9

    def test_non_hermitian_covariance_rejected(self):
        cov = np.eye(3)
        cov[0, 1] = 0.5
        with pytest.raises(ValueError):
            sinr_optimal_demix(np.eye(3), cov)


class TestApply:
    """``apply`` computes ``(B X^T)^T``, the same numbers as ``X B^T``."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [8, 24])
    def test_real_data_bitwise_equal_to_x_bt(self, rng, n, order):
        B = rng.standard_normal((n - 2, n))
        X = np.asarray(rng.standard_normal((20_001, n)), order=order)
        S = DemixMatrix(B).apply(X)
        assert S.shape == (20_001, n - 2) and S.flags.f_contiguous
        assert np.array_equal(S, X @ B.T)

    @pytest.mark.parametrize("n", [8, 24])
    def test_complex_data_matches_x_bt(self, rng, n):
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        X = np.asfortranarray(rng.standard_normal((20_001, n))
                              + 1j * rng.standard_normal((20_001, n)))
        reference = X @ B.T
        S = DemixMatrix(B).apply(X)
        assert np.max(np.abs(S - reference)) <= 1e-13 * np.max(np.abs(reference))


class TestSinrK:
    def test_identity_model_unit_row(self):
        model = _identity_model(2, sigma2=0.04)
        assert sinr_k(np.array([1.0, 0.0]), model, 0) == pytest.approx(25.0)

    def test_optimal_row_same_value_by_scale_invariance(self):
        model = _identity_model(2, sigma2=0.04)
        B = sinr_optimal_demix(model.A, analytic_cov(model)).B
        assert sinr_k(B[0], model, 0) == pytest.approx(25.0, rel=1e-12)

    def test_scale_invariance(self, rng):
        model = make_test_model(n=4, seed=44, noise_power=0.3)
        b = rng.standard_normal(4)
        s1 = sinr_k(b, model, 2)
        # power-of-two scaling commutes with rounding: bit-exact equality
        assert sinr_k(-8.0 * b, model, 2) == s1
        assert sinr_k(7.3 * b, model, 2) == pytest.approx(s1, rel=1e-12)

    def test_no_target_signal_gives_zero(self):
        model = _identity_model(2, sigma2=0.1)
        assert sinr_k(np.array([0.0, 1.0]), model, 0) == 0.0

    def test_noise_free_perfect_isolation_is_infinite(self):
        model = GroundTruthModel(
            A=np.eye(2),
            sources=tuple(finite_kurtosis_panel(2)),
            Sigma=np.zeros((2, 2)),
            noise_power=0.0,
        )
        assert sinr_k(np.array([1.0, 0.0]), model, 0) == np.inf

    def test_out_of_range_source(self):
        model = _identity_model(2, sigma2=0.1)
        with pytest.raises(IndexError):
            sinr_k(np.array([1.0, 0.0]), model, 5)

    def test_optimal_rows_maximize(self, rng):
        # no random row or local perturbation beats the optimal row
        for seed in (45, 46):
            model = make_test_model(n=4, seed=seed, noise_power=0.4)
            B = sinr_optimal_demix(model.A, analytic_cov(model)).B
            for k in range(4):
                best = sinr_k(B[k], model, k)
                for _ in range(200):
                    b = rng.standard_normal(4)
                    assert sinr_k(b, model, k) <= best * (1 + 1e-9)
                for delta in (1e-3, 1e-2):
                    for _ in range(50):
                        v = rng.standard_normal(4)
                        v /= np.linalg.norm(v)
                        b = B[k] + delta * v
                        assert sinr_k(b, model, k) <= best * (1 + 1e-9)


class TestMseAndCorrelation:
    """The SINR-optimal row is the best linear estimator of its source.

    MSE and correlation are measured by Monte Carlo on paired draws.
    """

    @staticmethod
    def _mse(b, batch, k):
        return float(np.mean(np.abs(batch.S[:, k] - batch.X @ b) ** 2))

    @staticmethod
    def _corr(b, batch, k):
        s, s_hat = batch.S[:, k], batch.X @ b
        return np.mean(s * np.conj(s_hat)) / np.sqrt(
            np.mean(np.abs(s) ** 2) * np.mean(np.abs(s_hat) ** 2))

    def _noise_free_identity(self, n, N, seed):
        model = GroundTruthModel(
            A=np.eye(n),
            sources=tuple(finite_kurtosis_panel(n)),
            Sigma=np.zeros((n, n)),
            noise_power=0.0,
        )
        batch = draw_batch(model, N, seed=seed)
        return model, batch

    def test_perfect_recovery_mse_zero(self):
        _, batch = self._noise_free_identity(3, 50_000, seed=47)
        assert self._mse(np.array([1.0, 0.0, 0.0]), batch, 0) <= 1e-12

    def test_zero_row_mse_is_source_variance(self):
        _, batch = self._noise_free_identity(3, 200_000, seed=48)
        assert self._mse(np.zeros(3), batch, 1) == pytest.approx(1.0, abs=0.02)

    def test_optimal_row_minimizes_mse(self, rng):
        model = make_test_model(n=4, seed=49, noise_power=0.3)
        batch = draw_batch(model, 100_000, seed=50)
        B_opt = sinr_optimal_demix(model.A, analytic_cov(model)).B
        A_pinv = np.linalg.pinv(model.A)
        for k in range(4):
            best = self._mse(B_opt[k], batch, k)
            assert best <= self._mse(A_pinv[k], batch, k) + 1e-12
            for _ in range(250):
                b = rng.standard_normal(4)
                b /= np.linalg.norm(b)
                assert best <= self._mse(b, batch, k) + 1e-12

    def test_correlation_perfect_and_independent(self):
        _, batch = self._noise_free_identity(3, 100_000, seed=51)
        assert self._corr(np.array([1.0, 0.0, 0.0]), batch, 0) == pytest.approx(1.0, abs=1e-10)
        assert abs(self._corr(np.array([0.0, 1.0, 0.0]), batch, 0)) <= 0.02

    def test_optimal_row_maximizes_correlation(self, rng):
        model = make_test_model(n=4, seed=53, noise_power=0.3)
        batch = draw_batch(model, 100_000, seed=54)
        B_opt = sinr_optimal_demix(model.A, analytic_cov(model)).B
        for k in range(4):
            best = abs(self._corr(B_opt[k], batch, k))
            for _ in range(250):
                b = rng.standard_normal(4)
                assert abs(self._corr(b, batch, k)) <= best + 1e-6

    def test_sample_correlation_matches_analytic(self):
        # analytic correlation: |b A_k| / sqrt(b cov b^H)
        model = make_test_model(n=4, seed=55, noise_power=0.2)
        batch = draw_batch(model, 1_000_000, seed=56)
        cov = analytic_cov(model)
        rng = stream(57, "starts")
        for _ in range(5):
            b = rng.standard_normal(4)
            rho = self._corr(b, batch, 1)
            expected = (b @ model.A[:, 1]) / np.sqrt(b @ cov @ b)
            assert rho == pytest.approx(expected, abs=5e-3)

    def test_sinr_is_monotone_in_analytic_correlation(self):
        # rho^2/(1 - rho^2) == SINR: the two rankings must agree exactly
        model = make_test_model(n=4, seed=58, noise_power=0.3)
        cov = analytic_cov(model)
        rng = stream(59, "starts")
        rows = rng.standard_normal((30, 4))
        k = 2
        sinrs = np.array([sinr_k(b, model, k) for b in rows])
        rho2 = np.array([
            abs(b @ model.A[:, k]) ** 2 / (b @ cov @ b) for b in rows
        ])
        assert np.array_equal(np.argsort(sinrs), np.argsort(rho2))
        np.testing.assert_allclose(sinrs, rho2 / (1.0 - rho2), rtol=1e-9)


class TestMatchColumns:
    def test_swap_and_negation_recovered(self):
        A = random_mixing(4, 4, 3.0, stream(60, "mixing"))
        A_hat = A[:, [1, 0, 2, 3]].copy()
        A_hat[:, 0] *= -1.0
        perm, phases, angles = match_columns(A_hat, A)
        assert list(perm) == [1, 0, 2, 3]
        assert phases[0] == pytest.approx(-1.0)
        assert np.max(angles) <= 1e-10

    def test_identity_match(self):
        A = random_mixing(5, 5, 3.0, stream(61, "mixing"))
        perm, phases, angles = match_columns(A, A)
        assert list(perm) == list(range(5))
        np.testing.assert_allclose(phases, 1.0, atol=1e-12)
        assert np.max(angles) <= 1e-10

    def test_complex_phase_recovered(self):
        A = random_mixing(3, 3, 2.0, stream(62, "mixing")).astype(complex)
        phase = np.exp(0.8j)
        A_hat = A.copy()
        A_hat[:, 1] *= phase
        perm, phases, _ = match_columns(A_hat, A)
        assert list(perm) == [0, 1, 2]
        assert phases[1] == pytest.approx(np.conj(phase), abs=1e-12)

    @staticmethod
    def _abs_cos(A_hat, A):
        unit_hat = A_hat / np.linalg.norm(A_hat, axis=0)
        unit = A / np.linalg.norm(A, axis=0)
        return np.abs(unit_hat.conj().T @ unit)

    def test_matches_brute_force_on_random_columns(self):
        # no separation filter: unrelated column sets and heavily perturbed
        # permuted copies, where a greedy pick is often wrong
        rng = stream(63, "mixing")
        for m in range(1, 8):
            for case in range(12):
                A = rng.standard_normal((m, m))
                if case % 2:
                    noise = rng.uniform(0.3, 1.5)
                    A_hat = A[:, rng.permutation(m)] + noise * rng.standard_normal((m, m))
                else:
                    A_hat = rng.standard_normal((m, m))
                perm, _, _ = match_columns(A_hat, A)
                assert np.array_equal(perm, brute_force_assignment(self._abs_cos(A_hat, A)))

    def test_greedy_trap_above_eight_columns(self):
        # greedy takes the 0.70 pair (estimate 0, true 0) and is left with
        # 0.05 for estimate 1; swapping the first two scores 0.65 + 0.65
        n, m = 12, 10
        E = np.eye(n)
        A_hat = E[:, :m].copy()
        A_hat[:, 0] = 0.70 * E[:, 0] + 0.65 * E[:, 1] + np.sqrt(1 - 0.70**2 - 0.65**2) * E[:, 10]
        A_hat[:, 1] = 0.65 * E[:, 0] + 0.05 * E[:, 1] + np.sqrt(1 - 0.65**2 - 0.05**2) * E[:, 11]
        Q, _ = np.linalg.qr(stream(64, "mixing").standard_normal((n, n)))
        perm, _, _ = match_columns(Q @ A_hat, Q @ E[:, :m])
        assert list(perm) == [1, 0] + list(range(2, m))

    def test_total_cosine_equals_scipy_at_24_columns(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = stream(65, "mixing")
        for _ in range(5):
            A = rng.standard_normal((24, 24))
            A_hat = A[:, rng.permutation(24)] + rng.uniform(0.5, 2.0) * rng.standard_normal((24, 24))
            cos = self._abs_cos(A_hat, A)
            perm, _, _ = match_columns(A_hat, A)
            rows, cols = optimize.linear_sum_assignment(cos, maximize=True)
            assert cos[np.arange(24), perm].sum() == pytest.approx(cos[rows, cols].sum(), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12), complex_field=st.booleans())
    def test_rescaled_phased_permuted_columns_are_undone(self, seed, m, complex_field):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((m + 2, m))
        if complex_field:
            A = A + 1j * rng.standard_normal(A.shape)
            factors = np.exp(2j * np.pi * rng.random(m))
        else:
            factors = rng.choice([-1.0, 1.0], m)
        factors = factors * rng.uniform(0.1, 10.0, m)
        order = rng.permutation(m)
        perm, phases, angles = match_columns(A[:, order] * factors, A)
        assert np.array_equal(perm, order)
        np.testing.assert_allclose(phases, np.conj(factors) / np.abs(factors), atol=1e-9)
        assert np.max(angles) <= 1e-6

    def test_rank_deficient_rejected(self):
        A = np.ones((4, 3))
        with pytest.raises(ValueError):
            match_columns(A, A)


class TestSinrLoss:
    def test_achieving_optimum_gives_zero_loss(self):
        model = make_test_model(n=3, seed=64, noise_power=0.2)
        B_opt = sinr_optimal_demix(model.A, analytic_cov(model)).B
        sinr, loss_db = sinr_loss(B_opt, model)
        np.testing.assert_allclose(sinr, optimal_sinr(model), rtol=1e-12)
        assert np.max(np.abs(loss_db)) <= 1e-9

    def test_half_the_sinr_is_three_db(self):
        # identity mixing with noise s2 I: the row e_k + c e_j has SINR
        # 1 / (c^2 + s2 (1 + c^2)), half the optimal 1/s2 when
        # c^2 = s2 / (1 + s2)
        s2 = 0.04
        model = _identity_model(3, sigma2=s2)
        B = np.eye(3) + np.sqrt(s2 / (1 + s2)) * np.roll(np.eye(3), 1, axis=1)
        sinr, loss_db = sinr_loss(B, model)
        np.testing.assert_allclose(sinr, 0.5 / s2, rtol=1e-12)
        np.testing.assert_allclose(loss_db, 10 * np.log10(2.0), rtol=1e-9)

    def test_pseudoinverse_demixer_strictly_loses_in_noise(self):
        model = make_test_model(n=6, seed=66, noise_power=0.67)
        _, loss_db = sinr_loss(np.linalg.pinv(model.A), model)
        assert loss_db.mean() > 0.05
        _, opt_loss_db = sinr_loss(sinr_optimal_demix(model.A, analytic_cov(model)).B, model)
        assert opt_loss_db.mean() <= 1e-9

    def test_loss_never_negative(self, rng):
        model = make_test_model(n=4, seed=67, noise_power=0.3)
        for _ in range(20):
            _, loss_db = sinr_loss(rng.standard_normal((4, 4)), model)
            assert np.all(loss_db >= -1e-9)

    def test_rows_scored_for_their_matched_source(self):
        model = make_test_model(n=4, seed=68, noise_power=0.3)
        B = np.random.default_rng(0).standard_normal((4, 4))
        perm = np.array([2, 0, 3, 1])
        sinr, loss_db = sinr_loss(B, model, perm)
        for j, k in enumerate(perm):
            assert sinr[k] == sinr_k(B[j], model, k)
            assert loss_db[k] == to_db(optimal_sinr(model)[k]) - to_db(sinr[k])

    def test_noise_free_losses_are_zero_or_infinite(self):
        # pinv(A) isolates every source perfectly, as the optimum does, so
        # both SINRs are infinite; any other row set loses infinitely much
        model = make_test_model(n=4, seed=72, noise_power=0.0)
        B = np.linalg.pinv(model.A)
        sinr, loss_db = sinr_loss(B, model)
        assert np.all(sinr == np.inf) and np.all(optimal_sinr(model) == np.inf)
        assert np.array_equal(loss_db, np.zeros(4))
        B = B + 1e-3 * np.random.default_rng(0).standard_normal(B.shape)
        sinr, loss_db = sinr_loss(B, model)
        assert np.all(np.isfinite(sinr)) and np.all(loss_db == np.inf)

    def test_to_db_keeps_infinities(self):
        db = to_db(np.array([0.0, 1.0, 10.0, 1e40, np.inf]))
        assert np.array_equal(db, [-np.inf, 0.0, 10.0, 400.0, np.inf])
        assert to_db(np.inf) == np.inf and to_db(0.0) == -np.inf

    def test_bad_rows_or_permutation_rejected(self):
        model = make_test_model(n=3, seed=69, noise_power=0.1)
        with pytest.raises(DimensionMismatchError):
            sinr_loss(np.eye(3)[:2], model)
        with pytest.raises(DimensionMismatchError):
            sinr_loss(np.eye(3), model, [0, 0, 1])

    MODELS = {seed: make_test_model(n=4, seed=seed, noise_power=0.3) for seed in (70, 71)}

    @settings(max_examples=40, deadline=None)
    @given(
        model_seed=st.sampled_from((70, 71)),
        seed=st.integers(0, 2**32 - 1),
        magnitudes=st.lists(st.floats(1e-3, 1e3), min_size=4, max_size=4),
        angles=st.lists(st.floats(0.0, 2 * np.pi), min_size=4, max_size=4),
        complex_scale=st.booleans(),
    )
    def test_row_scaling_does_not_change_scores(self, model_seed, seed, magnitudes, angles,
                                                complex_scale):
        model = self.MODELS[model_seed]
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((4, 4))
        perm = rng.permutation(4)
        angles = np.array(angles)
        unit = np.exp(1j * angles) if complex_scale else np.where(angles < np.pi, 1.0, -1.0)
        scale = np.array(magnitudes) * unit
        sinr, loss_db = sinr_loss(B, model, perm)
        sinr2, loss_db2 = sinr_loss(scale[:, None] * B, model, perm)
        np.testing.assert_allclose(sinr2, sinr, rtol=1e-9)
        np.testing.assert_allclose(loss_db2, loss_db, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(model_seed=st.sampled_from((70, 71)), seed=st.integers(0, 2**32 - 1),
           order=st.permutations(range(4)))
    def test_permuting_rows_with_permutation_does_not_change_scores(self, model_seed, seed, order):
        model = self.MODELS[model_seed]
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((4, 4))
        perm = rng.permutation(4)
        sinr, loss_db = sinr_loss(B, model, perm)
        sinr2, loss_db2 = sinr_loss(B[list(order)], model, perm[list(order)])
        assert np.array_equal(sinr2, sinr)
        assert np.array_equal(loss_db2, loss_db)


class TestDecompositionInvariance:
    def test_signal_noise_split_does_not_move_rows(self):
        # moving an axis-aligned Gaussian component between "signal" and
        # "noise" leaves the optimal demixer's row directions unchanged
        rng = stream(68, "mixing")
        for seed in range(5):
            model = make_test_model(n=5, seed=70 + seed, noise_power=0.2)
            A, Sigma = model.A, model.Sigma
            t = rng.uniform(0.1, 0.5, 5)
            # split 1: extra variance counted as noise
            A1 = A
            cov_shared = A @ (np.eye(5) + np.diag(t)) @ A.T + Sigma
            # split 2: extra variance folded into unit-variance sources
            A2 = A * np.sqrt(1.0 + t)
            B1 = sinr_optimal_demix(A1, cov_shared).B
            B2 = sinr_optimal_demix(A2, cov_shared).B
            for k in range(5):
                assert vector_angle(B1[k], B2[k]) <= 1e-9
