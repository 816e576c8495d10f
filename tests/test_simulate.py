"""Model generation, source panels and reproducible sampling."""

import numpy as np
import pytest

from pegica import (
    CumulantOracle,
    GroundTruthModel,
    center,
    default_source_panel,
    draw_batch,
    finite_kurtosis_panel,
    make_model,
    noise_cov,
    random_mixing,
    source_spec,
    stream,
)
from pegica.errors import DimensionMismatchError, ModelConstructionError


# exact fourth cumulants of the standardized families
CLOSED_FORM_K4 = {
    "laplace": 3.0,
    "uniform": -1.2,
    "exponential": 6.0,
    "bernoulli(0.05)": (1 - 6 * 0.05 * 0.95) / (0.05 * 0.95),  # ~15.0526
    "bernoulli(0.5)": -2.0,
    "student_t(5)": 6.0,
}


def numpy_draw(spec, count, rng):
    """Each family drawn with numpy's distributions, then standardized:
    the reference that ``SourceSpec.fill``'s in-place draws must equal."""
    if spec.family == "laplace":
        return rng.laplace(0.0, 1.0 / np.sqrt(2.0), count)
    if spec.family == "uniform":
        return rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), count)
    if spec.family == "exponential":
        return rng.exponential(1.0, count) - 1.0
    if spec.family == "bernoulli":
        p = spec.param
        return ((rng.random(count) < p).astype(float) - p) / np.sqrt(p * (1.0 - p))
    dof = int(spec.param)
    return rng.standard_t(dof, count) * np.sqrt((dof - 2.0) / dof)


class TestSourceSpec:
    @pytest.mark.parametrize("label", list(CLOSED_FORM_K4) + [
        "student_t(3)", "bernoulli(0.3)", "student_t(9)"])
    def test_draws_have_the_bits_of_numpy_draws(self, label):
        spec, N = source_spec(label), 5001
        reference = numpy_draw(spec, 2 * N, stream(4, "sources"))
        assert spec.sample(N, stream(4, "sources")).tobytes() == reference[:N].tobytes()
        # draw_batch draws each source into its row of one buffer, in turn
        model = make_model(2, noise_power=0.1, sources=(spec, spec), seed=4)
        S = draw_batch(model, N, seed=4).S
        assert S.T.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("label", list(CLOSED_FORM_K4) + ["student_t(3)"])
    def test_standardized_at_large_n(self, label):
        # student_t(3) has population variance exactly 1 but an infinite
        # fourth moment, so its *sample* variance is heavy tailed; the
        # pinned seed keeps this a deterministic check
        spec = source_spec(label)
        seed = 0 if label == "student_t(3)" else 77
        x = spec.sample(1_000_000, stream(seed, "sources"))
        assert abs(x.mean()) <= 0.01
        assert x.var() == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("label,tol", [
        ("uniform", 0.05),
        ("exponential", 0.2),
        ("laplace", 0.15),
        ("bernoulli(0.05)", 0.5),
        ("bernoulli(0.5)", 0.05),
    ])
    def test_sample_kurtosis_matches_closed_form(self, label, tol):
        spec = source_spec(label)
        x = spec.sample(1_000_000, stream(101, "sources"))
        k4 = CumulantOracle(center(x[:, None])).fstar(1)
        assert k4 == pytest.approx(CLOSED_FORM_K4[label], abs=tol)

    def test_closed_form_table(self):
        for label, expected in CLOSED_FORM_K4.items():
            assert source_spec(label).kappa4_closed_form == pytest.approx(expected)

    def test_heavy_tail_has_no_closed_form(self):
        assert source_spec("student_t(3)").kappa4_closed_form is None

    def test_bernoulli_param_validated(self):
        with pytest.raises(ValueError):
            source_spec("bernoulli(1.5)")
        with pytest.raises(ValueError):
            source_spec("bernoulli(0)")

    def test_student_dof_validated(self):
        with pytest.raises(ValueError):
            source_spec("student_t(2)")

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            source_spec("cauchy")

    def test_label_round_trip(self):
        for label in list(CLOSED_FORM_K4) + ["student_t(3)"]:
            assert source_spec(label).label == label


class TestPanels:
    def test_paper_panel_14_has_each_family_twice(self):
        panel = default_source_panel(14)
        assert len(panel) == 14
        labels = [s.label for s in panel]
        for lab in set(labels):
            assert labels.count(lab) == 2

    def test_panel_7_is_one_cycle(self):
        labels = [s.label for s in default_source_panel(7)]
        assert len(set(labels)) == 7

    def test_panel_3_truncates(self):
        labels = [s.label for s in default_source_panel(3)]
        assert labels == ["laplace", "bernoulli(0.05)", "bernoulli(0.5)"]

    def test_finite_panel_skips_t3_and_mixes_signs(self):
        panel = finite_kurtosis_panel(12)
        k4 = [s.kappa4_closed_form for s in panel]
        assert all(v is not None for v in k4)
        assert min(k4) < 0 < max(k4)


class TestRandomMixing:
    def test_condition_number_exact(self):
        A = random_mixing(8, 8, 3.0, stream(5, "mixing"))
        assert np.linalg.cond(A) == pytest.approx(3.0, rel=1e-10)

    def test_cond_one_gives_orthonormal_columns(self):
        A = random_mixing(6, 4, 1.0, stream(6, "mixing"))
        np.testing.assert_allclose(A.T @ A, np.eye(4), atol=1e-12)

    def test_singular_value_range(self):
        A = random_mixing(10, 10, 3.0, stream(7, "mixing"))
        s = np.linalg.svd(A, compute_uv=False)
        assert s.min() == pytest.approx(1.0, rel=1e-12)
        assert s.max() == pytest.approx(3.0, rel=1e-12)
        assert np.all((s >= 1.0 - 1e-12) & (s <= 3.0 + 1e-12))

    def test_haar_symmetry(self):
        # entries of a Haar factor have zero mean
        rng = stream(8, "mixing")
        total = np.zeros((4, 4))
        for _ in range(1000):
            total += random_mixing(4, 4, 1.0, rng)
        assert np.max(np.abs(total / 1000)) < 0.05

    def test_invalid_shapes(self):
        with pytest.raises(DimensionMismatchError):
            random_mixing(3, 5, 3.0, stream(0, "mixing"))


class TestNoiseCov:
    def test_zero_power_is_zero_matrix(self):
        A = random_mixing(5, 5, 3.0, stream(9, "mixing"))
        assert np.all(noise_cov(A, 0.0) == 0.0)

    def test_eigenvalue_range_for_cond3(self):
        A = random_mixing(6, 6, 3.0, stream(10, "mixing"))
        eigs = np.linalg.eigvalsh(noise_cov(A, 0.25) / 0.25)
        assert eigs.min() >= 1.0 - 1e-9
        assert eigs.max() <= 9.0 + 1e-9

    def test_power_identity(self):
        # p is the ratio of max directional noise variance to max
        # directional signal variance
        A = random_mixing(7, 7, 3.0, stream(11, "mixing"))
        p = 0.4
        Sigma = noise_cov(A, p)
        noise_max = np.linalg.eigvalsh(Sigma).max()
        signal_max = np.linalg.eigvalsh(A @ A.T).max()
        assert noise_max / signal_max == pytest.approx(p, rel=1e-10)

    @pytest.mark.parametrize("p", [-1.0, float("nan"), float("inf")])
    def test_out_of_range_power_is_a_value_error(self, p):
        # a usage error, not a model that violates its own constraints
        with pytest.raises(ValueError, match=f"nonnegative finite number, got {p}") as excinfo:
            noise_cov(np.eye(3), p)
        assert not isinstance(excinfo.value, ModelConstructionError)

    def test_psd_violation_raises(self):
        A = 4.0 * np.eye(3)  # largest singular value 4 > sqrt(10)
        with pytest.raises(ModelConstructionError):
            noise_cov(A, 0.5)


class TestModelAndBatch:
    def test_noise_free_identity_mixing_returns_sources(self):
        model = GroundTruthModel(
            A=np.eye(3),
            sources=tuple(finite_kurtosis_panel(3)),
            Sigma=np.zeros((3, 3)),
            noise_power=0.0,
        )
        batch = draw_batch(model, 1000, seed=4)
        np.testing.assert_array_equal(batch.X, batch.S)

    def test_same_seed_bit_identical(self):
        model = make_model(n=4, seed=3, noise_power=0.3)
        b1 = draw_batch(model, 5000, seed=12)
        b2 = draw_batch(model, 5000, seed=12)
        np.testing.assert_array_equal(b1.X, b2.X)
        np.testing.assert_array_equal(b1.S, b2.S)

    def test_different_seed_differs(self):
        model = make_model(n=4, seed=3)
        b1 = draw_batch(model, 1000, seed=12)
        b2 = draw_batch(model, 1000, seed=13)
        assert not np.array_equal(b1.X, b2.X)

    def test_sample_cov_matches_model(self):
        from pegica import analytic_cov, center, sample_cov

        model = make_model(n=4, seed=5, noise_power=0.2)
        batch = draw_batch(model, 1_000_000, seed=8)
        cov = sample_cov(center(batch.X))
        expected = analytic_cov(model)
        assert np.linalg.norm(cov - expected) <= 0.02 * np.linalg.norm(expected)

    def test_complex_batch_covariance(self):
        model = make_model(n=3, seed=6, noise_power=0.3, complex_phases=True)
        from pegica import analytic_cov, center, sample_cov

        batch = draw_batch(model, 500_000, seed=9)
        assert np.iscomplexobj(batch.X)
        cov = sample_cov(center(batch.X))
        expected = analytic_cov(model)
        assert np.linalg.norm(cov - expected) <= 0.03 * np.linalg.norm(expected)

    def test_sigma_must_be_psd(self):
        with pytest.raises(ModelConstructionError):
            GroundTruthModel(
                A=np.eye(2),
                sources=tuple(finite_kurtosis_panel(2)),
                Sigma=np.diag([1.0, -0.5]),
                noise_power=0.1,
            )

    def test_sources_length_checked(self):
        with pytest.raises(DimensionMismatchError):
            GroundTruthModel(
                A=np.eye(3),
                sources=tuple(finite_kurtosis_panel(2)),
                Sigma=np.zeros((3, 3)),
                noise_power=0.0,
            )

    def test_kappa4_within_five_standard_errors(self):
        # batching SE oracle over 50 disjoint batches of 20k draws
        for label in ("uniform", "laplace", "exponential", "bernoulli(0.5)"):
            spec = source_spec(label)
            rng = stream(31, "sources")
            estimates = []
            for _ in range(50):
                x = spec.sample(20_000, rng)
                estimates.append(CumulantOracle(center(x[:, None])).fstar(1))
            estimates = np.asarray(estimates)
            se_full = estimates.std(ddof=1) / np.sqrt(50)
            full = estimates.mean()
            assert abs(full - CLOSED_FORM_K4[label]) <= 5 * se_full


class TestStreams:
    def test_streams_are_reproducible(self):
        a = stream(42, "noise", 3).standard_normal(5)
        b = stream(42, "noise", 3).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_purposes_are_independent(self):
        a = stream(42, "noise", 3).standard_normal(5)
        b = stream(42, "sources", 3).standard_normal(5)
        assert not np.array_equal(a, b)

    def test_unknown_purpose_rejected(self):
        with pytest.raises(ValueError):
            stream(42, "nonsense")
