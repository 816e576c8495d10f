"""Cumulant estimators, oracles and the pseudo-Euclidean metric."""

from math import comb

import numpy as np
import pytest

from pegica import (
    CumulantOracle,
    SampleSet,
    build_C,
    center,
    draw_batch,
    make_model,
    sample_cov,
)
from pegica import cumulants
from pegica.cumulants import _chunk_rows, _pair_layout, _pair_moments
from pegica.linalg import hermitian_pinv
from pegica.errors import DimensionMismatchError, InsufficientDataError
from conftest import fd_gradient, make_test_model
from per_sample_oracle import PerSampleOracle


class TestCenter:
    def test_constant_column_becomes_zero(self):
        out = center(np.array([[5.0], [5.0], [5.0], [5.0]]))
        assert np.all(out.data == 0.0)

    def test_idempotent_on_centered_data(self, rng):
        raw = rng.standard_normal((100, 3))
        raw -= raw.mean(axis=0)
        out = center(raw)
        np.testing.assert_allclose(out.data, raw, atol=1e-14)

    def test_simple_arithmetic(self):
        out = center(np.array([[1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(out.data.ravel(), [-1.0, 0.0, 1.0])

    def test_too_few_samples_rejected(self):
        with pytest.raises(InsufficientDataError):
            center(np.array([[1.0, 2.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)],
                             ids=["nan", "inf", "-inf", "complex_nan"])
    def test_non_finite_samples_rejected(self, rng, bad):
        raw = rng.standard_normal((50, 4)).astype(type(bad))
        # the first bad column is named, counted from 1
        raw[7, 1] = raw[3, 3] = bad
        with pytest.raises(ValueError, match="column 2 of 4 is not finite"):
            SampleSet(raw)

    def test_column_mean_invariant(self, rng):
        raw = 100.0 + 50.0 * rng.standard_normal((10_000, 4))
        out = center(raw)
        col_std = out.data.std(axis=0)
        assert np.all(np.abs(out.data.mean(axis=0)) <= 1e-12 * (col_std + 1.0))

    def test_large_column_means(self):
        # rounding in the subtraction leaves more than a re-check would allow
        raw = np.random.default_rng(0).standard_normal((100_000, 4)) + 1e3
        out = center(raw)
        np.testing.assert_allclose(out.data, raw - raw.mean(axis=0), rtol=0, atol=1e-12)

    def test_sampleset_centers_a_copy_of_its_input(self, rng):
        raw = rng.standard_normal((1000, 3)) + np.array([0.0, 5.0, -1e3])
        raw_before = raw.copy()
        out = SampleSet(raw)
        assert np.array_equal(raw, raw_before)
        assert not np.shares_memory(out.data, raw)
        # already-centered data is centered again, into a new copy
        centered = out.data.copy()
        again = SampleSet(out.data)
        assert np.array_equal(out.data, centered)
        assert not np.shares_memory(again.data, out.data)
        np.testing.assert_array_equal(again.data, centered - centered.mean(axis=0))

    def test_sampleset_converts_integer_data(self):
        out = SampleSet(np.array([[1, 4], [3, 8]]))
        assert out.data.dtype == float
        np.testing.assert_array_equal(out.data, [[-1.0, -2.0], [1.0, 2.0]])

    @pytest.mark.parametrize("offset", [1e3, 1e4, 1e5, 1e6])
    @pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
    def test_sampleset_accepts_data_centered_from_large_means(self, offset, complex_field):
        # subtracting a mean of 1e3 leaves about 1.4e-11 of rounding behind
        rng = np.random.default_rng(1)
        raw = rng.standard_normal((100_000, 4)) + offset
        if complex_field:
            raw = raw + 1j * (rng.standard_normal((100_000, 4)) - offset * np.arange(1, 5))
        samples = SampleSet(raw - raw.mean(axis=0))
        assert samples.n_samples == 100_000
        assert np.all(np.abs(samples.data.mean(axis=0)) <= 1e-12 * (samples.data.std(axis=0) + 1))
        # raw data is centered bitwise as center() always did it
        reference = raw.astype(complex if complex_field else float, copy=True)
        reference -= reference.mean(axis=0, keepdims=True)
        data = SampleSet(raw).data
        assert np.array_equal(data, center(raw).data)
        assert np.array_equal(data, reference)

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_sampleset_removes_a_small_real_offset(self, offset):
        raw = np.random.default_rng(2).standard_normal((100_000, 4)) + offset
        data = raw - raw.mean(axis=0)
        data[:, 2] += 1e-6 * data[:, 2].std()
        out = SampleSet(data)
        assert abs(out.data[:, 2].mean()) <= 1e-12 * (out.data[:, 2].std() + 1)
        np.testing.assert_allclose(out.data, raw - raw.mean(axis=0), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("precentered", [False, True], ids=["raw", "precentered"])
    def test_constant_column_from_an_inexact_mean(self, precentered):
        # 1e3/3 has no exact float64 mean over 1e5 rows: x - x.mean(0)
        # leaves 4.9e-10 on every entry of the constant column
        rng = np.random.default_rng(4)
        x = np.column_stack((np.full(100_000, 1e3 / 3), rng.laplace(size=100_000),
                             rng.uniform(-1, 1, 100_000)))
        samples = SampleSet(x - x.mean(axis=0) if precentered else x)
        assert samples.data[:, 0].std() == 0.0
        oracle = CumulantOracle(samples)
        assert oracle.samples is samples
        assert build_C(oracle).rank == 2


def _layouts(rng):
    # every layout, dtype and edge shape the mean must take, by name
    wide = rng.standard_normal((6001, 9)) * 3 + np.arange(9) * 100
    cplx = rng.standard_normal((5001, 4)) + 1j * rng.standard_normal((5001, 4)) + 1e3 - 7j
    return dict([
        ("c_order", wide),
        ("f_order", np.asfortranarray(wide)),
        ("strided", wide[::3, 1:8:2]),
        ("integer", rng.integers(-10**6, 10**6, (4001, 3))),
        ("float32", wide.astype(np.float32)),
        ("complex", cplx),
        ("complex64_f_order", np.asfortranarray(cplx.astype(np.complex64))),
        ("one_column", wide[:, 4:5].copy()),
        ("two_rows", wide[:2].copy()),
    ])


_LAYOUTS = _layouts(np.random.default_rng(7))


class TestLazyCentering:
    """A SampleSet computes its column means when built and its whole
    centered copy at first use, by whichever reader comes first: ``data``,
    ``cov``, or the oracle (``"pass"``), which reads ``cov`` and then runs
    the moment pass over the finished copy.

    The N leave a partial last chunk of the centering (4096 rows) and of the
    moment pass (7281 float64 rows at n=8, 1747 float32 rows at n=24, 3640
    complex rows at n=8).
    """

    @pytest.mark.parametrize("name", list(_LAYOUTS))
    def test_mean_is_numpys_row_by_row_mean(self, name):
        raw = _LAYOUTS[name]
        dtype = complex if np.iscomplexobj(raw) else float
        # numpy sums a C-ordered array's axis 0 row by row; an F-ordered
        # one it sums pairwise, so the reference is a C-ordered copy's mean
        reference = np.ascontiguousarray(raw).mean(axis=0, dtype=dtype)
        if raw.flags.c_contiguous:
            assert np.array_equal(reference, raw.mean(axis=0, dtype=dtype)), name
        samples = SampleSet(raw)
        assert samples._mean.dtype == dtype
        assert np.array_equal(samples._mean, reference), name
        centered = np.ascontiguousarray(raw, dtype=dtype) - reference
        assert np.array_equal(samples.data, centered), name
        assert samples.data.flags.f_contiguous

    def test_input_is_read_but_not_copied_until_first_use(self, rng):
        raw = rng.standard_normal((3000, 4)) + 5.0
        samples = SampleSet(raw)
        assert np.shares_memory(samples._raw, raw)
        data = samples.data
        assert samples._raw is None and samples.data is data
        assert not np.shares_memory(data, raw)

    @staticmethod
    def _build(raw, first):
        samples = SampleSet(raw)
        if first == "data":
            samples.data
        elif first == "cov":
            samples.cov
        oracle = CumulantOracle(samples)
        return samples, oracle

    @pytest.mark.parametrize("n, N, complex_field", [(8, 20_001, False), (24, 5_001, False),
                                                     (8, 10_001, True)],
                             ids=["real8", "real24_float32", "complex8"])
    def test_outputs_do_not_depend_on_the_first_reader(self, n, N, complex_field):
        raw = _samples(N, n, complex_field) * 2.0 + np.arange(n)
        reference = raw - raw.mean(axis=0)
        built = {first: self._build(raw, first) for first in ("pass", "data", "cov")}
        for first, (samples, oracle) in built.items():
            assert samples.data.flags.f_contiguous, first
            assert np.array_equal(samples.data, reference), first
            for name in ("cov", "data"):
                assert np.array_equal(getattr(samples, name),
                                      getattr(built["pass"][0], name)), (first, name)
            for name in ("_Q", "_cov_pinv"):
                assert np.array_equal(getattr(oracle, name),
                                      getattr(built["pass"][1], name)), (first, name)

    def test_a_failed_pass_leaves_the_samples_usable(self, rng, monkeypatch):
        raw = rng.standard_normal((30_000, 8)) + 3.0
        eager = SampleSet(raw).data
        samples = SampleSet(raw)
        calls, matmul = [0], np.matmul
        per_chunk = len(cumulants._pair_layout(8).products)

        def fail_in_third_chunk(*args, **kwargs):
            calls[0] += 1
            if calls[0] > 2 * per_chunk:
                raise FloatingPointError("injected")
            return matmul(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(np, "matmul", fail_in_third_chunk)
            with pytest.raises(FloatingPointError):
                CumulantOracle(samples)
        assert calls[0] == 2 * per_chunk + 1
        assert np.array_equal(samples.data, eager)
        assert np.array_equal(CumulantOracle(samples)._Q, CumulantOracle(SampleSet(raw))._Q)


def kappa4_star(x):
    # fstar at the only direction of a one-column sample-built oracle, the
    # plain fourth cumulant for real data
    return CumulantOracle(center(x[:, None])).fstar(1)


class TestKappa4:
    def test_gaussian_vanishes(self, rng):
        x = rng.standard_normal(1_000_000)
        assert abs(kappa4_star(x - x.mean())) < 0.05

    def test_uniform_closed_form(self, rng):
        # E[X^4] = 9/5 for uniform(-sqrt(3), sqrt(3)), so kappa4 = -1.2
        x = rng.uniform(-np.sqrt(3), np.sqrt(3), 1_000_000)
        assert abs(kappa4_star(x - x.mean()) - (-1.2)) < 0.05

    def test_homogeneity_exact(self, rng):
        x = rng.standard_normal(1000) ** 3
        x -= x.mean()
        assert kappa4_star(2.0 * x) == pytest.approx(16.0 * kappa4_star(x), rel=1e-12)

    def test_additive_over_independent_streams(self, rng):
        n = 400_000
        x = rng.laplace(0, 1 / np.sqrt(2), n)
        y = rng.uniform(-np.sqrt(3), np.sqrt(3), n)
        x -= x.mean()
        y -= y.mean()
        lhs = kappa4_star(x + y)
        assert abs(lhs - kappa4_star(x) - kappa4_star(y)) < 0.1


class TestKappa4Star:
    def test_matches_kappa4_on_real_data(self, rng):
        x = rng.exponential(1.0, 5000) - 1.0
        x -= x.mean()
        plain = np.mean(x**4) - 3.0 * np.mean(x**2) ** 2
        assert kappa4_star(x) == pytest.approx(plain, abs=1e-12)

    def test_complex_gaussian_vanishes(self, rng):
        z = (rng.standard_normal(1_000_000) + 1j * rng.standard_normal(1_000_000)) / np.sqrt(2)
        z -= z.mean()
        assert abs(kappa4_star(z)) < 0.05

    def test_unit_modulus_invariance(self, rng):
        z = rng.laplace(0, 1 / np.sqrt(2), 4000).astype(complex)
        z *= np.exp(0.3j)  # same phase on every sample
        z -= z.mean()
        alpha = np.exp(1.234j)
        assert kappa4_star(alpha * z) == pytest.approx(kappa4_star(z), rel=1e-10)

    def test_degree_four_homogeneity_in_modulus(self, rng):
        z = rng.standard_normal(3000) + 1j * rng.standard_normal(3000) ** 3
        z -= z.mean()
        alpha = 1.5 * np.exp(0.7j)
        assert kappa4_star(alpha * z) == pytest.approx(
            abs(alpha) ** 4 * kappa4_star(z), rel=1e-10
        )


def _identity_oracle(k4):
    m = len(k4)
    return CumulantOracle.from_mixing(np.eye(m), np.asarray(k4, dtype=float))


class TestAnalyticOracle:
    def test_f_at_basis_vector_is_source_kurtosis(self):
        # unit-variance Laplace has kappa4 = 3
        oracle = _identity_oracle([3.0, -1.2, 6.0])
        assert oracle.fstar(np.array([1.0, 0.0, 0.0])) == pytest.approx(3.0)

    def test_pure_gaussian_model_is_identically_zero(self, rng):
        oracle = _identity_oracle([0.0, 0.0, 0.0])
        for _ in range(5):
            u = rng.standard_normal(3)
            assert oracle.fstar(u) == 0.0
            assert np.all(oracle.grad_f(u) == 0.0)

    def test_grad_at_basis_vector(self):
        oracle = _identity_oracle([3.0, -1.2])
        np.testing.assert_allclose(
            oracle.grad_f(np.array([1.0, 0.0])), [12.0, 0.0], atol=1e-14
        )

    def test_C_scales_kurtosis_by_column_norm(self):
        # C = A diag(||A_k||^2 kappa4) A^T; here A = diag(2, 1, 0.5)
        oracle = CumulantOracle.from_mixing(np.diag([2.0, 1.0, 0.5]), [3.0, -1.2, 6.0])
        np.testing.assert_allclose(
            oracle.build_C_matrix(), np.diag([48.0, -1.2, 0.375]), atol=1e-14
        )

    def test_noise_covariance_never_enters(self):
        model_a = make_test_model(n=5, noise_power=0.0, seed=3)
        model_b = make_test_model(n=5, noise_power=0.9, seed=3)
        oa = CumulantOracle.from_model(model_a)
        ob = CumulantOracle.from_model(model_b)
        u = np.linspace(-1, 1, 5)
        np.testing.assert_array_equal(oa.grad_f(u), ob.grad_f(u))
        np.testing.assert_array_equal(oa.build_C_matrix(), ob.build_C_matrix())

    def test_rejects_sources_without_closed_form(self):
        from pegica import default_source_panel, make_model

        model = make_model(n=4, sources=default_source_panel(4), seed=0)
        assert model.sources[3].label == "student_t(3)"
        with pytest.raises(ValueError, match="closed-form"):
            CumulantOracle.from_model(model)

    def test_dimension_mismatch(self):
        oracle = _identity_oracle([3.0, 3.0])
        with pytest.raises(DimensionMismatchError):
            oracle.fstar(np.ones(3))


class TestEmpiricalOracle:
    def test_requires_centered_samples(self, rng):
        # raw data is centered on the way in, exactly as center() does it
        raw = rng.standard_normal((100, 2)) + 5.0
        oracle = CumulantOracle(raw)
        assert isinstance(oracle.samples, SampleSet)
        assert np.array_equal(oracle.samples.data, center(raw).data)

    def test_matches_analytic_at_large_n(self):
        model = make_test_model(n=5, cond=1.0, noise_power=0.1, seed=7, moderate=True)
        batch = draw_batch(model, 1_000_000, seed=99)
        emp = CumulantOracle(center(batch.X))
        ana = CumulantOracle.from_model(model)
        u = np.array([0.3, -0.5, 0.2, 0.7, -0.1])
        u /= np.linalg.norm(u)
        assert emp.fstar(u) == pytest.approx(ana.fstar(u), abs=0.05)
        g_emp, g_ana = emp.grad_f(u), ana.grad_f(u)
        assert np.linalg.norm(g_emp - g_ana) <= 0.05 * (1 + np.linalg.norm(g_ana))
        C_emp, C_ana = emp.build_C_matrix(), ana.build_C_matrix()
        assert np.linalg.norm(C_emp - C_ana) <= 0.05 * np.linalg.norm(C_ana)

    def test_gradient_vanishes_on_pure_gaussian(self, rng):
        X = rng.standard_normal((1_000_000, 3))
        emp = CumulantOracle(center(X))
        u = np.array([0.6, -0.64, 0.48])
        assert np.all(np.abs(emp.grad_f(u)) < 0.05)

    def test_C_small_on_pure_gaussian(self, rng):
        X = rng.standard_normal((1_000_000, 3))
        emp = CumulantOracle(center(X))
        assert np.max(np.abs(emp.build_C_matrix())) < 0.1

    def test_gradient_matches_finite_differences_real(self, rng):
        model = make_test_model(n=4, noise_power=0.2, seed=1)
        batch = draw_batch(model, 50_000, seed=5)
        emp = CumulantOracle(center(batch.X))
        for _ in range(5):
            u = rng.standard_normal(4)
            u /= np.linalg.norm(u)
            g = emp.grad_f(u)
            g_fd = fd_gradient(emp.fstar, u, h=1e-4)
            assert np.max(np.abs(g - g_fd)) <= 1e-5 * (1 + np.linalg.norm(g))

    def test_gradient_matches_finite_differences_complex(self, rng):
        model = make_test_model(n=3, noise_power=0.1, seed=2, complex_phases=True)
        batch = draw_batch(model, 30_000, seed=6)
        emp = CumulantOracle(center(batch.X))
        assert emp.is_complex
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        u /= np.linalg.norm(u)
        g = emp.grad_f(u)
        g_fd = fd_gradient(emp.fstar, u, h=1e-4)
        assert np.max(np.abs(g - g_fd)) <= 1e-5 * (1 + np.linalg.norm(g))

    def test_gaussian_noise_invariance_empirical(self):
        # same mixing matrix and source draws, two different noise
        # covariances: only the noise, not the sources' sampling error
        # (over 6% of C for these heavy-tailed sources at N=1e6), differs
        model1 = make_test_model(n=4, noise_power=0.1, seed=11)
        model2 = make_test_model(n=4, noise_power=0.5, seed=11)
        b1 = draw_batch(model1, 1_000_000, seed=21)
        b2 = draw_batch(model2, 1_000_000, seed=21)
        assert np.array_equal(b1.S, b2.S)
        e1 = CumulantOracle(center(b1.X))
        e2 = CumulantOracle(center(b2.X))
        u = np.array([0.5, 0.5, -0.5, 0.5])
        g1, g2 = e1.grad_f(u), e2.grad_f(u)
        assert np.linalg.norm(g1 - g2) <= 0.01 * max(np.linalg.norm(g1), np.linalg.norm(g2))
        C1, C2 = e1.build_C_matrix(), e2.build_C_matrix()
        assert np.linalg.norm(C1 - C2) <= 0.01 * max(np.linalg.norm(C1), np.linalg.norm(C2))


class TestBuildC:
    def test_identity_mixing_gives_diagonal_kurtosis(self):
        oracle = _identity_oracle([3.0, -1.2, 6.0])
        metric = build_C(oracle)
        np.testing.assert_allclose(metric.C, np.diag([3.0, -1.2, 6.0]), atol=1e-12)

    def test_mixed_sign_kurtosis_gives_indefinite_metric(self):
        model = make_test_model(n=6, seed=9)
        k4 = [s.kappa4_closed_form for s in model.sources]
        assert min(k4) < 0 < max(k4)
        metric = build_C(CumulantOracle.from_model(model))
        eigvals = np.linalg.eigvalsh(metric.C)
        assert eigvals.min() < -1e-6 and eigvals.max() > 1e-6

    def test_pure_gaussian_model_gives_zero_matrix(self):
        oracle = _identity_oracle([0.0, 0.0])
        metric = build_C(oracle)
        assert np.all(metric.C == 0.0)
        assert metric.rank == 0

    def test_structural_identity(self):
        model = make_test_model(n=5, seed=13)
        metric = build_C(CumulantOracle.from_model(model))
        A = model.A
        d = np.linalg.norm(A, axis=0) ** 2 * np.array(
            [s.kappa4_closed_form for s in model.sources]
        )
        expected = (A * d) @ A.T
        assert np.linalg.norm(metric.C - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_moore_penrose_identities(self):
        model = make_test_model(n=6, seed=15)
        metric = build_C(CumulantOracle.from_model(model))
        C, P = metric.C, metric.C_pinv
        scale = np.linalg.norm(C)
        assert np.linalg.norm(C @ P @ C - C) <= 1e-8 * scale
        assert np.linalg.norm(P @ C @ P - P) <= 1e-8 * np.linalg.norm(P)
        assert np.linalg.norm((C @ P).conj().T - C @ P) <= 1e-8
        assert np.linalg.norm((P @ C).conj().T - P @ C) <= 1e-8

    def test_empirical_matches_analytic(self):
        model = make_test_model(n=4, noise_power=0.1, seed=17, moderate=True)
        batch = draw_batch(model, 500_000, seed=31)
        C_emp = build_C(CumulantOracle(center(batch.X))).C
        C_ana = build_C(CumulantOracle.from_model(model)).C
        assert np.linalg.norm(C_emp - C_ana) <= 0.05 * np.linalg.norm(C_ana)

    def test_empirical_equals_sum_of_coordinate_hessians(self, rng):
        # the partial trace must agree with n per-sample Hessians
        samples = center(rng.standard_normal((5000, 3)) ** 3)
        reference = PerSampleOracle(samples)
        expected = sum(reference.hess_fstar(e) for e in np.eye(3)) / 12.0
        np.testing.assert_allclose(CumulantOracle(samples).build_C_matrix(), expected, atol=1e-10)

    def test_empirical_complex_equals_sum_of_coordinate_hessians(self, rng):
        samples = center(rng.standard_normal((4000, 3)) ** 3 + 1j * rng.standard_normal((4000, 3)))
        reference = PerSampleOracle(samples)
        expected = sum(reference.hess_fstar(e) for e in np.eye(3).astype(complex)) / 4.0
        np.testing.assert_allclose(CumulantOracle(samples).build_C_matrix(), expected, atol=1e-10)

    def test_pseudo_inner_product_orthogonalizes_columns(self):
        model = make_test_model(n=5, seed=19)
        metric = build_C(CumulantOracle.from_model(model))
        A = model.A
        d = np.linalg.norm(A, axis=0) ** 2 * np.array(
            [s.kappa4_closed_form for s in model.sources]
        )
        for k in range(5):
            for j in range(5):
                expected = 1.0 / d[k] if j == k else 0.0
                inner = A[:, k] @ metric.C_pinv @ np.conj(A[:, j])
                assert inner == pytest.approx(expected, abs=1e-9)

    def test_complex_structure(self):
        model = make_test_model(n=4, seed=23, complex_phases=True)
        metric = build_C(CumulantOracle.from_model(model))
        A = model.A
        d = np.linalg.norm(A, axis=0) ** 2 * np.array(
            [s.kappa4_closed_form for s in model.sources]
        )
        expected = (A.conj() * d) @ A.T
        assert np.linalg.norm(metric.C - expected) <= 1e-10 * np.linalg.norm(expected)


def _dense_moments(X):
    N = X.shape[0]
    iu, ju = np.triu_indices(X.shape[1])
    z = X[:, iu] * X[:, ju]
    return X.T @ X / N, z.T @ z.conj() / N


def _quadruple_codes(n, i, j, k, l):
    quads = np.sort(np.stack(np.broadcast_arrays(i, j, k, l)), axis=0)
    return np.ravel_multi_index(tuple(quads), (n,) * 4)


def _sorted_quadruples(n):
    iu, ju = np.triu_indices(n)
    return _quadruple_codes(n, iu[:, None], ju[:, None], iu[None, :], ju[None, :]).ravel()


def _edge_samples(n, edge, itemsize):
    # N on and around the moment pass's chunk boundary for this item size
    rows = _chunk_rows(n, itemsize)
    return {"two": 2, "rows_minus_one": rows - 1, "rows": rows,
            "two_rows_plus_one": 2 * rows + 1}[edge]


def _samples(N, n, complex_field, seed=5):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, n))
    return X + 1j * rng.standard_normal((N, n)) if complex_field else X


class TestPairMoments:
    """The one-pass moment kernel against dense products of the same data.

    n=7 to 11 cut the middle index into groups of about three (n=8 into
    [0, 3, 5, 8]), n=24 into two groups of 12, n=37 into groups of 12, 13
    and 12 (and its complex chunks sit at the 256-row floor); N sits on and
    around the chunk boundary.
    """

    @pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("edge", ["two", "rows_minus_one", "rows", "two_rows_plus_one"])
    @pytest.mark.parametrize("n", [1, 2, 5, 7, 8, 9, 10, 11, 24, 37])
    def test_matches_dense_products(self, n, edge, complex_field):
        X = _samples(_edge_samples(n, edge, 16 if complex_field else 8), n, complex_field)
        P, K = _pair_moments(X.T)
        # for real data P is the covariance, which the pass leaves to SampleSet
        assert (P is None) == (not complex_field)
        # relative to the moments of |x|, which bound every sum's terms
        scales = _dense_moments(np.abs(X))
        for value, reference, scale in zip((P, K), _dense_moments(X), scales):
            if value is None:
                continue
            assert value.shape == reference.shape
            assert np.max(np.abs(value - reference)) <= 1e-13 * np.max(scale)

    @pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [5, 7, 8, 9, 10, 11, 24, 37])
    def test_equal_moments_are_bitwise_equal(self, n, complex_field):
        K = _pair_moments(_samples(3001, n, complex_field).T)[1]
        if complex_field:
            # E[x_i x_j conj(x_k x_l)] is the conjugate of E[x_k x_l conj(x_i x_j)]
            assert np.array_equal(K, K.conj().T)
            return
        K = K.ravel()
        _, first, which = np.unique(_sorted_quadruples(n), return_index=True, return_inverse=True)
        assert np.array_equal(K, K[first[which]])

    @pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
    def test_rebuild_is_bitwise_identical(self, complex_field):
        X = _samples(5000, 24, complex_field)
        for first, second in zip(_pair_moments(X.T), _pair_moments(X.copy().T)):
            assert (first is None and second is None) or np.array_equal(first, second)


class TestPairMomentsFloat32:
    """The float32 pass: single-precision chunks, products and GEMMs, each
    block's sum added into the float64 accumulator.

    Its N sit on and around the float32 chunk boundary: 4096 rows at n=8
    and 11, where the grouped layout caps the chunk, and twice the float64
    rows at n = 6, 12, 24 and 37.  Every moment stays within 1e-6 of the
    moments of |x| (2.9e-7 measured at n = 6, 8 and 11, 5.4e-7 at n=37),
    where the float64 pass stays within 1e-13.
    """

    @pytest.mark.parametrize("edge", ["two", "rows_minus_one", "rows", "two_rows_plus_one"])
    @pytest.mark.parametrize("n", [6, 8, 11, 12, 24, 37])
    def test_matches_dense_products(self, n, edge):
        X = _samples(_edge_samples(n, edge, 4), n, False)
        P, K = _pair_moments(X.T, np.float32)
        assert P is None and K.dtype == np.float64
        _, reference = _dense_moments(X)
        scale = _dense_moments(np.abs(X))[1]
        assert np.max(np.abs(K - reference)) <= 1e-6 * np.max(scale)

    @pytest.mark.parametrize("n", [6, 8, 11, 12, 24, 37])
    def test_equal_moments_are_bitwise_equal(self, n):
        K = _pair_moments(_samples(3001, n, False).T, np.float32)[1].ravel()
        _, first, which = np.unique(_sorted_quadruples(n), return_index=True, return_inverse=True)
        assert np.array_equal(K, K[first[which]])

    def test_grouped_layouts_cap_float32_chunks(self):
        # n=7 to 11 stop at 4096 rows; one-group layouts and float64 chunks
        # keep the 2 MB budget, so float64 results keep their bits
        rows = [_chunk_rows(n, 4) for n in (6, 7, 8, 11, 12, 16, 24)]
        assert rows == [24966, 4096, 4096, 4096, 6721, 3855, 1747]
        assert [_chunk_rows(n, 8) for n in (6, 8, 11, 12)] == [12483, 7281, 3971, 3360]

    def test_rebuild_is_bitwise_identical(self):
        X = _samples(5000, 24, False)
        assert np.array_equal(_pair_moments(X.T, np.float32)[1],
                              _pair_moments(X.copy().T, np.float32)[1])


class TestPassPrecision:
    """Which data the oracle builds with the float32 pass.

    ``_float64_oracle`` builds the same samples with the float32 pass
    switched off, as the reference each case compares to.
    """

    @staticmethod
    def _float64_oracle(samples, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(cumulants, "_FLOAT32_MIN_DIM", np.inf)
            return CumulantOracle(samples)

    def test_singular_covariance_stays_float64(self, monkeypatch):
        # noise-free data with m < n: rounding to float32 lifts C's
        # null-space eigenvalues above the rank cutoff (rank 12, not 8)
        model = make_model(12, 8, cond=3.0, noise_power=0.0, seed=0)
        samples = center(draw_batch(model, 20_000, seed=0).X)
        oracle = CumulantOracle(samples)
        assert build_C(oracle).rank == 8
        assert np.array_equal(oracle._Q, self._float64_oracle(samples, monkeypatch)._Q)

    def test_well_conditioned_real_data_takes_float32(self, monkeypatch):
        samples = center(_samples(20_000, 12, False))
        Q = CumulantOracle(samples)._Q
        reference = self._float64_oracle(samples, monkeypatch)._Q
        assert not np.array_equal(Q, reference)
        scale = np.max(_dense_moments(np.abs(samples.data))[1])
        assert np.max(np.abs(Q - reference)) <= 1e-6 * scale

    def test_complex_data_stays_float64(self, monkeypatch):
        samples = center(_samples(5000, 12, True))
        oracle = CumulantOracle(samples)
        reference = self._float64_oracle(samples, monkeypatch)
        assert np.array_equal(oracle._Q, reference._Q)

    # n=8, the size of the tall, sweep and cli_chain benchmarks
    def test_well_conditioned_n8_takes_float32(self, monkeypatch):
        samples = center(draw_batch(make_model(8, 8, noise_power=0.1, seed=0), 10_000,
                                    seed=0).X)
        Q = CumulantOracle(samples)._Q
        reference = self._float64_oracle(samples, monkeypatch)._Q
        assert not np.array_equal(Q, reference)
        scale = np.max(_dense_moments(np.abs(samples.data))[1])
        assert np.max(np.abs(Q - reference)) <= 1e-6 * scale

    def test_singular_n8_covariance_stays_float64(self, monkeypatch):
        model = make_model(8, 6, noise_power=0.0, seed=0)
        samples = center(draw_batch(model, 20_000, seed=0).X)
        oracle = CumulantOracle(samples)
        assert build_C(oracle).rank == 6
        assert np.array_equal(oracle._Q, self._float64_oracle(samples, monkeypatch)._Q)

    def test_complex_n8_stays_float64(self, monkeypatch):
        samples = center(_samples(20_000, 8, True))
        oracle = CumulantOracle(samples)
        reference = self._float64_oracle(samples, monkeypatch)
        assert np.array_equal(oracle._Q, reference._Q)


class TestPairLayout:
    @pytest.mark.parametrize("n", list(range(1, 27)) + [37, 48])
    def test_every_distinct_moment_is_computed(self, n):
        layout = _pair_layout(n)
        iu, ju = np.triu_indices(n)
        # the pair held in each buffer row, and the sorted quadruple of
        # every accumulator entry, from the layout's own products
        held = np.empty(iu.size, dtype=np.intp)
        held[layout.order] = np.arange(iu.size)
        acc = np.empty(layout.size, dtype=np.int64)
        for left, right, part in layout.products:
            a, b = held[left][:, None], held[right][None, :]
            acc[part] = _quadruple_codes(n, iu[a], ju[a], iu[b], ju[b]).ravel()
        # every entry of E[z z^T] reads a product of its own quadruple
        assert np.array_equal(acc[layout.gather].ravel(), _sorted_quadruples(n))
        assert np.unique(acc).size == np.unique(layout.gather).size == comb(n + 3, 4)

    @pytest.mark.parametrize("n", list(range(1, 27)) + [37, 48])
    def test_one_product_per_contiguous_run_of_tails(self, n):
        # a left group's right slices never abut: abutting ones would be one
        # wider GEMM, which numpy runs faster than two thin ones
        by_left = {}
        for left, right, _ in _pair_layout(n).products:
            by_left.setdefault((left.start, left.stop), []).append(right)
        for rights in by_left.values():
            assert all(a.stop != b.start for a, b in zip(rights, rights[1:]))
        # the first group's one product reads the whole buffer
        first = _pair_layout(n).products[0][1]
        assert (first.start, first.stop) == (0, n * (n + 1) // 2)

    @pytest.mark.parametrize("n, shapes", [
        (5, [(15, 15)]),
        (8, [(6, 36), (9, 3), (9, 12), (21, 6)]),
        (12, [(78, 78)]),
        (24, [(78, 300), (222, 78)]),
    ])
    def test_product_shapes(self, n, shapes):
        assert [(left.stop - left.start, right.stop - right.start)
                for left, right, _ in _pair_layout(n).products] == shapes

    def test_a_missing_moment_is_refused(self, monkeypatch):
        # groups that stop short of the last middle index miss its moments
        monkeypatch.setattr(cumulants, "_group_edges", lambda n: [0, n - 1])
        with pytest.raises(RuntimeError, match="n=5"):
            _pair_layout.__wrapped__(5)


class TestCovariance:
    @pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
    def test_one_covariance_per_sample_set(self, complex_field, monkeypatch):
        calls, covariance = [], cumulants._covariance

        def spy(X):
            calls.append(X)
            return covariance(X)

        monkeypatch.setattr(cumulants, "_covariance", spy)
        samples = SampleSet(_samples(3000, 4, complex_field) + 2.0)
        oracle = CumulantOracle(samples)
        cov = sample_cov(samples)
        assert sample_cov(samples) is cov and samples.cov is cov
        assert len(calls) == 1 and calls[0] is samples.data
        # the oracle was built from this very covariance
        assert oracle.samples.cov is cov
        assert np.array_equal(oracle._cov_pinv, hermitian_pinv(cov)[0])
        X = samples.data
        reference = X.T @ X.conj() / X.shape[0]
        assert np.array_equal(cov, 0.5 * (reference + reference.conj().T))
        with pytest.raises(ValueError):
            cov[0, 0] = 1.0
        # a new sample set computes its own
        assert sample_cov(SampleSet(X)) is not cov and len(calls) == 2
