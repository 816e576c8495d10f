"""Fixed-point column recovery, deflation and full-matrix recovery."""

import numpy as np
import pytest

from pegica import (
    CumulantOracle,
    GroundTruthModel,
    IterationConfig,
    MixingEstimate,
    build_C,
    center,
    converged_up_to_phase,
    deflate,
    draw_batch,
    match_columns,
    noise_cov,
    pegi_full,
    pegi_update,
    random_mixing,
    recover_column,
    recover_row_pinv,
    stream,
)
from pegica.errors import (
    DegenerateDirectionError,
    IllConditionedRowError,
    PartialRecoveryError,
)
from pegica.linalg import vector_angle
from conftest import make_test_model


def _metric_oracle(model):
    oracle = CumulantOracle.from_model(model)
    return build_C(oracle), oracle


class TestPegiUpdate:
    def test_basis_vector_is_fixed_point(self):
        oracle = CumulantOracle.from_mixing(np.eye(3), [3.0, -1.2, 6.0])
        metric = build_C(oracle)
        u = pegi_update(np.array([1.0, 0.0, 0.0]), metric, oracle)
        assert abs(abs(u[0]) - 1.0) < 1e-12
        assert np.all(np.abs(u[1:]) < 1e-12)

    def test_power_iteration_form(self):
        # identity mixing: the new direction has hidden coordinates
        # alpha_k^3 * kappa4_k / d_k^3 with d_k = kappa4_k
        k4 = np.array([2.0, -0.5])
        oracle = CumulantOracle.from_mixing(np.eye(2), k4)
        metric = build_C(oracle)
        theta = 0.7
        u = np.array([np.cos(theta), np.sin(theta)])
        out = pegi_update(u, metric, oracle)
        expected = u**3 * k4 / k4**3
        expected /= np.linalg.norm(expected)
        assert vector_angle(out, expected) < 1e-12

    def test_pure_gaussian_is_degenerate_everywhere(self, rng):
        oracle = CumulantOracle.from_mixing(np.eye(3), [0.0, 0.0, 0.0])
        metric = build_C(oracle)
        for _ in range(5):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            with pytest.raises(DegenerateDirectionError):
                pegi_update(u, metric, oracle)


class TestConvergedUpToPhase:
    def test_sign_flip_is_converged(self, rng):
        u = rng.standard_normal(5)
        u /= np.linalg.norm(u)
        done, residual = converged_up_to_phase(-u, u, 1e-9)
        assert done and residual < 1e-15

    def test_unit_modulus_factor_is_converged(self, rng):
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u /= np.linalg.norm(u)
        done, residual = converged_up_to_phase(np.exp(1j * np.pi / 3) * u, u, 1e-9)
        assert done and residual < 1e-12

    def test_orthogonal_vectors_have_sqrt2_residual(self):
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        done, residual = converged_up_to_phase(u, v, 1e-3)
        assert not done
        assert residual == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_phase_choice_is_optimal_against_grid(self, rng):
        # the closed-form phase beats (up to float noise) any of 1000
        # brute-force grid phases
        for _ in range(20):
            u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            u /= np.linalg.norm(u)
            v /= np.linalg.norm(v)
            _, residual = converged_up_to_phase(u, v, 1e-9)
            grid = np.exp(1j * np.linspace(0, 2 * np.pi, 1000, endpoint=False))
            grid_min = min(np.linalg.norm(u - g * v) for g in grid)
            assert residual <= grid_min + 1e-10


class TestRecoverColumn:
    def test_converges_to_some_column(self):
        model = make_test_model(n=6, seed=1)
        metric, oracle = _metric_oracle(model)
        cfg = IterationConfig(epsilon=1e-10, rng_seed=0)
        rng = stream(3, "starts")
        for _ in range(5):
            u0 = rng.standard_normal(6)
            u0 /= np.linalg.norm(u0)
            v, trace = recover_column(u0, metric, oracle, cfg)
            assert trace.converged
            assert len(trace) <= 15
            angles = [vector_angle(v, model.A[:, k]) for k in range(6)]
            assert min(angles) <= 1e-8

    def test_exact_column_converges_in_one_check(self):
        model = make_test_model(n=5, seed=2)
        metric, oracle = _metric_oracle(model)
        u0 = model.A[:, 2] / np.linalg.norm(model.A[:, 2])
        v, trace = recover_column(u0, metric, oracle, IterationConfig(epsilon=1e-9))
        assert len(trace) == 1
        assert vector_angle(v, u0) < 1e-10

    def test_cubic_rate(self):
        # fitted log-log slope of consecutive residuals is ~3 once inside
        # the basin (residual < 0.1)
        model = make_test_model(n=6, seed=4)
        metric, oracle = _metric_oracle(model)
        cfg = IterationConfig(epsilon=1e-13, max_iters=60, rng_seed=0)
        rng = stream(9, "starts")
        slopes = []
        for _ in range(20):
            u0 = rng.standard_normal(6)
            u0 /= np.linalg.norm(u0)
            try:
                _, trace = recover_column(u0, metric, oracle, cfg)
            except Exception:
                continue
            r = np.asarray(trace.residuals)
            pairs = [
                (r[i], r[i + 1])
                for i in range(len(r) - 1)
                if 1e-13 < r[i] < 0.1 and r[i + 1] > 1e-15
            ]
            if not pairs:
                continue
            x = np.log([p[0] for p in pairs])
            y = np.log([p[1] for p in pairs])
            slope = np.polyfit(x, y, 1)[0] if len(pairs) > 1 else y[0] / x[0]
            slopes.append(slope)
        assert len(slopes) >= 15
        assert np.mean(np.asarray(slopes) >= 2.5) >= 0.9


class TestRecoverRowPinv:
    def test_identity_mixing(self):
        oracle = CumulantOracle.from_mixing(np.eye(3), [3.0, -1.2, 6.0])
        metric = build_C(oracle)
        row = recover_row_pinv(metric, np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(row, [1.0, 0.0, 0.0], atol=1e-12)

    def test_matches_scaled_pseudoinverse_row(self):
        model = make_test_model(n=5, seed=6)
        metric, _ = _metric_oracle(model)
        A = model.A
        A_pinv = np.linalg.pinv(A)
        for k in range(5):
            a_unit = A[:, k] / np.linalg.norm(A[:, k])
            row = recover_row_pinv(metric, a_unit)
            expected = np.linalg.norm(A[:, k]) * A_pinv[k]
            assert np.linalg.norm(row - expected) <= 1e-8 * np.linalg.norm(expected)
            for j in range(5):
                if j != k:
                    a_j = A[:, j] / np.linalg.norm(A[:, j])
                    assert abs(row @ a_j) <= 1e-8

    def test_row_normalization_exact(self, rng):
        model = make_test_model(n=4, seed=8)
        metric, _ = _metric_oracle(model)
        a = model.A[:, 1] / np.linalg.norm(model.A[:, 1])
        row = recover_row_pinv(metric, a)
        assert abs(row @ a - 1.0) <= 1e-12

    def test_direction_without_signal_rejected(self):
        # n > m: a direction orthogonal to the mixing range lies in the
        # null space of C, so the denominator vanishes
        model = make_test_model(n=5, m=3, seed=10)
        metric, _ = _metric_oracle(model)
        null_dir = np.linalg.svd(model.A.T)[2][-1]
        with pytest.raises(IllConditionedRowError):
            recover_row_pinv(metric, null_dir)


class TestDeflate:
    def _estimate_from(self, model, metric, columns):
        n, m = model.A.shape
        est = MixingEstimate.empty(n, m)
        for k in columns:
            a_unit = model.A[:, k] / np.linalg.norm(model.A[:, k])
            est.add(a_unit, recover_row_pinv(metric, a_unit))
        return est

    def test_no_columns_is_identity(self, rng):
        est = MixingEstimate.empty(4, 4)
        u = rng.standard_normal(4)
        np.testing.assert_array_equal(deflate(u, est), u)

    def test_recovered_column_annihilated(self):
        model = make_test_model(n=5, seed=12)
        metric, _ = _metric_oracle(model)
        est = self._estimate_from(model, metric, [0, 2])
        u = model.A[:, 2] / np.linalg.norm(model.A[:, 2])
        assert np.linalg.norm(deflate(u, est)) <= 1e-10

    def test_complement_part_preserved(self):
        model = make_test_model(n=5, seed=12)
        metric, _ = _metric_oracle(model)
        est = self._estimate_from(model, metric, [0])
        # u = recovered column + a combination of the others
        other = 0.3 * model.A[:, 1] - 0.8 * model.A[:, 3]
        u = 0.5 * model.A[:, 0] + other
        out = deflate(u, est)
        assert np.linalg.norm(out - other) <= 1e-8 * np.linalg.norm(other)

    def test_pseudo_orthogonal_to_recovered_columns(self, rng):
        model = make_test_model(n=6, seed=14)
        metric, _ = _metric_oracle(model)
        est = self._estimate_from(model, metric, [0, 1, 4])
        for _ in range(5):
            u = rng.standard_normal(6)
            out = deflate(u, est)
            for k in (0, 1, 4):
                assert abs(out @ metric.C_pinv @ np.conj(model.A[:, k])) <= 1e-8


class TestPegiFull:
    def test_full_recovery_analytic(self):
        model = make_test_model(n=8, seed=16)
        metric, oracle = _metric_oracle(model)
        est = pegi_full(metric, oracle, 8, IterationConfig(epsilon=1e-10, rng_seed=1))
        assert est.columns_found == 8
        norms = np.linalg.norm(est.A_hat, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        perm, _, angles = match_columns(est.A_hat, model.A)
        assert sorted(perm) == list(range(8))
        assert np.max(np.radians(angles)) <= 1e-8
        # running pseudoinverse pairs with the columns
        gram = est.B_hat @ est.A_hat
        np.testing.assert_allclose(gram, np.eye(8), atol=1e-6)

    def test_m_equal_one_degenerates_to_single_column(self):
        model = make_test_model(n=4, m=1, seed=18)
        metric, oracle = _metric_oracle(model)
        est = pegi_full(metric, oracle, 1, IterationConfig(rng_seed=2))
        assert est.columns_found == 1
        assert vector_angle(est.A_hat[:, 0], model.A[:, 0]) <= 1e-8

    def test_matching_cosines_near_one(self):
        model = make_test_model(n=6, seed=20)
        metric, oracle = _metric_oracle(model)
        est = pegi_full(metric, oracle, 6, IterationConfig(epsilon=1e-10, rng_seed=3))
        cos = np.abs(est.A_hat.conj().T @ (model.A / np.linalg.norm(model.A, axis=0)))
        perm, _, _ = match_columns(est.A_hat, model.A)
        matched = cos[np.arange(6), perm]
        assert np.all(matched >= 1.0 - 1e-6)

    def test_scale_invariance_of_recovered_directions(self):
        # doubling a column while halving its source leaves the recovered
        # unit columns unchanged
        model = make_test_model(n=5, seed=22)
        k4 = np.array([s.kappa4_closed_form for s in model.sources], dtype=float)
        o1 = CumulantOracle.from_mixing(model.A, k4)
        A2 = model.A.copy()
        A2[:, 2] *= 2.0
        k42 = k4.copy()
        k42[2] /= 16.0  # kappa4(S/2) = kappa4(S)/16
        o2 = CumulantOracle.from_mixing(A2, k42)
        cfg = IterationConfig(epsilon=1e-10, rng_seed=4)
        est1 = pegi_full(build_C(o1), o1, 5, cfg)
        est2 = pegi_full(build_C(o2), o2, 5, cfg)
        m1, _, _ = match_columns(est1.A_hat, model.A)
        m2, _, _ = match_columns(est2.A_hat, model.A)
        for col in range(5):
            j1 = int(np.where(m1 == col)[0][0])
            j2 = int(np.where(m2 == col)[0][0])
            assert vector_angle(est1.A_hat[:, j1], est2.A_hat[:, j2]) <= 1e-8

    def test_deterministic_for_fixed_seed(self):
        model = make_test_model(n=5, seed=24)
        metric, oracle = _metric_oracle(model)
        cfg = IterationConfig(rng_seed=11)
        est1 = pegi_full(metric, oracle, 5, cfg)
        est2 = pegi_full(metric, oracle, 5, cfg)
        np.testing.assert_array_equal(est1.A_hat, est2.A_hat)
        np.testing.assert_array_equal(est1.B_hat, est2.B_hat)

    def test_pure_gaussian_reports_partial_recovery(self):
        oracle = CumulantOracle.from_mixing(np.eye(3), [0.0, 0.0, 0.0])
        metric = build_C(oracle)
        with pytest.raises(PartialRecoveryError) as excinfo:
            pegi_full(metric, oracle, 3, IterationConfig(rng_seed=5, max_restarts=2))
        assert excinfo.value.estimate.columns_found == 0

    def test_m_larger_than_rank_rejected(self):
        oracle = CumulantOracle.from_mixing(np.eye(3), [3.0, 0.0, 0.0])
        metric = build_C(oracle)
        with pytest.raises(PartialRecoveryError):
            pegi_full(metric, oracle, 3, IterationConfig(rng_seed=6))

    def test_sampled_gaussian_data_yields_no_columns(self, rng):
        # spurious fixed points of the empirical landscape must be caught
        # by the kurtosis significance gate
        X = rng.standard_normal((20_000, 3))
        oracle = CumulantOracle(center(X))
        metric = build_C(oracle)
        with pytest.raises(PartialRecoveryError) as excinfo:
            pegi_full(metric, oracle, 3, IterationConfig(
                epsilon=1e-6, rng_seed=13, max_restarts=3))
        assert excinfo.value.estimate.columns_found == 0

    def test_significance_gate_passes_true_sources(self):
        model = make_test_model(n=4, noise_power=0.67, seed=32)
        batch = draw_batch(model, 200_000, seed=60)
        oracle = CumulantOracle(center(batch.X))
        for k in range(4):
            a_unit = model.A[:, k] / np.linalg.norm(model.A[:, k])
            assert oracle.kurtosis_z_score(a_unit) > 5.0

    def test_empirical_recovery_moderate_n(self):
        model = make_test_model(n=5, noise_power=0.1, seed=26)
        batch = draw_batch(model, 300_000, seed=50)
        oracle = CumulantOracle(center(batch.X))
        metric = build_C(oracle)
        est = pegi_full(metric, oracle, 5, IterationConfig(epsilon=1e-6, rng_seed=7))
        _, _, angles = match_columns(est.A_hat, model.A)
        assert np.max(angles) <= 3.0  # degrees

    def test_complex_full_recovery_analytic(self):
        model = make_test_model(n=4, seed=28, complex_phases=True)
        metric, oracle = _metric_oracle(model)
        est = pegi_full(metric, oracle, 4, IterationConfig(epsilon=1e-10, rng_seed=8))
        assert np.iscomplexobj(est.A_hat)
        perm, phases, angles = match_columns(est.A_hat, model.A)
        assert sorted(perm) == list(range(4))
        assert np.max(angles) <= 1e-6
        np.testing.assert_allclose(np.abs(phases), 1.0, atol=1e-12)

    def test_complex_empirical_recovery(self):
        model = make_test_model(n=4, noise_power=0.1, seed=30, complex_phases=True)
        batch = draw_batch(model, 200_000, seed=52)
        oracle = CumulantOracle(center(batch.X))
        metric = build_C(oracle)
        est = pegi_full(metric, oracle, 4, IterationConfig(epsilon=1e-6, rng_seed=9))
        _, _, angles = match_columns(est.A_hat, model.A)
        assert np.max(angles) <= 3.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_circular_sources_recovered(self, seed):
        # 8-PSK has E[s^4] = 0, so cum(y, y, y, y) vanishes along every
        # column; only the conjugation-scheme cumulant (kappa4* = -1) sees it
        rng = np.random.default_rng(seed)
        n, N = 4, 100_000
        A = random_mixing(n, n, 3.0, rng) * np.exp(2j * np.pi * rng.random(n))
        S = np.exp(2j * np.pi * rng.integers(0, 8, (N, n)) / 8)
        noise = 0.3 * (rng.standard_normal((N, n)) + 1j * rng.standard_normal((N, n)))
        oracle = CumulantOracle(center(S @ A.T + noise / np.sqrt(2)))
        est = pegi_full(build_C(oracle), oracle, n, IterationConfig(epsilon=1e-6, rng_seed=seed))
        _, _, angles = match_columns(est.A_hat, A)
        assert np.max(angles) <= 2.0
