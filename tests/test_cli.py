"""End-to-end CLI behavior: files, exit codes, pipeline coherence."""

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import pegica
from pegica import (
    CumulantOracle,
    IterationConfig,
    build_C,
    center,
    draw_batch,
    make_model,
    match_columns,
    matio,
    pegi_full,
    sample_cov,
    sinr_optimal_demix,
)
from pegica import benchmark
from pegica.benchmark import RunConfig
from pegica.cli import build_parser, main
from pegica.matio import (
    parse_matrix_csv,
    read_keyvalues,
    read_table,
    write_keyvalues,
    write_matrix_csv,
)
from test_matio import reference_matrix_csv


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    code = run_cli(
        "simulate", "--n", 4, "--samples", 60000, "--noise-power", 0.0,
        "--seed", 3, "--sources", "laplace,uniform,exponential,bernoulli(0.5)",
        "--out", out,
    )
    assert code == 0
    return out


def test_commands_return_only_ok():
    # a refusal raises, and main() alone maps it to an exit code
    tree = ast.parse(Path(pegica.cli.__file__).read_text())
    commands = [f for f in tree.body
                if isinstance(f, ast.FunctionDef) and f.name.startswith("cmd_")]
    assert len(commands) == 5
    for command in commands:
        returned = {ast.unparse(r.value) for r in ast.walk(command) if isinstance(r, ast.Return)}
        assert returned == {"EXIT_OK"}, command.name


class TestSimulate:
    def test_writes_model_and_batch(self, sim_dir):
        X = parse_matrix_csv(sim_dir / "X.csv")
        S = parse_matrix_csv(sim_dir / "S.csv")
        assert X.shape == (60000, 4)
        assert S.shape == (60000, 4)
        meta = read_keyvalues(sim_dir / "model.txt")
        assert meta["n"] == "4" and meta["field"] == "real"

    def test_zero_noise_sigma_file_is_zero(self, sim_dir):
        Sigma = parse_matrix_csv(sim_dir / "Sigma.csv")
        assert np.all(Sigma == 0.0)

    def test_same_seed_byte_identical(self, tmp_path):
        args = ["simulate", "--n", 3, "--samples", 2000, "--seed", 11]
        run_cli(*args, "--out", tmp_path / "a")
        run_cli(*args, "--out", tmp_path / "b")
        for name in ("X.csv", "S.csv", "A.csv", "Sigma.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_large_batch_bytes_equal_per_cell_reference(self, tmp_path, monkeypatch):
        # 20000 x 4 cells are above the two-process threshold
        monkeypatch.setattr(matio, "_usable_cpus", lambda: 2)
        assert 20000 * 4 >= matio._PARALLEL_MIN_CELLS
        out = tmp_path / "sim"
        assert run_cli("simulate", "--n", 4, "--samples", 20000, "--seed", 5, "--out", out) == 0
        batch = draw_batch(make_model(n=4, seed=5), 20000, seed=5)
        assert (out / "X.csv").read_text() == reference_matrix_csv(batch.X)
        assert (out / "S.csv").read_text() == reference_matrix_csv(batch.S)


    def test_noise_covariance_not_psd_is_numerical_exit(self, tmp_path, capsys):
        # cond 4 exceeds sqrt(10), so p (10 I - A A^T) has a negative eigenvalue
        code = run_cli("simulate", "--n", 4, "--cond", 4, "--noise-power", 0.1,
                       "--samples", 100, "--out", tmp_path / "sim")
        assert code == 4
        assert "not PSD" in capsys.readouterr().err
        assert not (tmp_path / "sim" / "X.csv").exists()

    @pytest.mark.parametrize("power", ["-0.1", "nan", "inf"])
    def test_noise_power_out_of_range_is_usage_error(self, tmp_path, capsys, power):
        code = run_cli("simulate", "--n", 4, "--noise-power", power, "--samples", 100,
                       "--out", tmp_path / "sim")
        assert code == 2
        assert f"noise power must be a nonnegative finite number, got {power}" in \
            capsys.readouterr().err
        assert not (tmp_path / "sim" / "X.csv").exists()

    def test_unwritable_output_exit(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        code = run_cli("simulate", "--n", 2, "--samples", 100, "--out", taken)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("file error:") and err.count("\n") == 1


class TestEstimate:
    def test_recovers_truth_on_noise_free_data(self, sim_dir, tmp_path):
        est = tmp_path / "est"
        code = run_cli("estimate", sim_dir / "X.csv", "--m", 4, "--seed", 1, "--out", est)
        assert code == 0
        A_hat = parse_matrix_csv(est / "A_hat.csv")
        A_true = parse_matrix_csv(sim_dir / "A.csv")
        _, _, angles = match_columns(A_hat, A_true)
        assert np.max(angles) <= 2.0
        meta = read_keyvalues(est / "estimate.txt")
        assert meta["status"] == "ok" and meta["columns_found"] == "4"

    def test_large_column_means(self, sim_dir, tmp_path):
        shifted = tmp_path / "shifted.csv"
        write_matrix_csv(shifted, parse_matrix_csv(sim_dir / "X.csv") + 1e3)
        code = run_cli("estimate", shifted, "--m", 4, "--seed", 1, "--out", tmp_path / "est")
        assert code == 0

    def test_zero_m_is_usage_error(self, sim_dir, tmp_path):
        code = run_cli("estimate", sim_dir / "X.csv", "--m", 0, "--out", tmp_path / "e")
        assert code == 2

    def test_m_above_data_dimension_is_usage_error(self, tmp_path, rng, capsys):
        path = tmp_path / "eight.csv"
        write_matrix_csv(path, rng.standard_normal((500, 8)))
        code = run_cli("estimate", path, "--m", 9, "--out", tmp_path / "est")
        assert code == 2
        assert "m=9 exceeds data dimension 8" in capsys.readouterr().err
        assert not (tmp_path / "est" / "A_hat.csv").exists()

    def test_budget_flag_is_refused(self, sim_dir, tmp_path):
        # the iteration budgets are constants of pegica.recovery
        with pytest.raises(SystemExit) as excinfo:
            run_cli("estimate", sim_dir / "X.csv", "--m", 4, "--max-restarts", 3,
                    "--out", tmp_path / "est")
        assert excinfo.value.code == 2

    def test_gaussian_only_input_partial_exit(self, tmp_path, rng):
        path = tmp_path / "gauss.csv"
        write_matrix_csv(path, rng.standard_normal((20000, 3)))
        out = tmp_path / "est"
        code = run_cli("estimate", path, "--m", 3, "--out", out)
        assert code == 5
        meta = read_keyvalues(out / "estimate.txt")
        assert meta["columns_found"] == "0"
        assert meta["status"] == "partial"

    def test_gaussian_only_input_writes_partial_files_and_one_line(self, tmp_path, rng,
                                                                   capsys):
        path = tmp_path / "gauss.csv"
        write_matrix_csv(path, rng.standard_normal((20000, 3)))
        out = tmp_path / "est"
        assert run_cli("estimate", path, "--m", 3, "--out", out) == 5
        assert parse_matrix_csv(out / "A_hat.csv").shape == (3, 3)
        assert parse_matrix_csv(out / "B_hat.csv").shape == (3, 3)
        assert read_keyvalues(out / "estimate.txt")["status"] == "partial"
        err = capsys.readouterr().err
        assert err.startswith("partial recovery: ") and err.count("\n") == 1

    def test_rank_deficient_metric_named_once(self, tmp_path, capsys):
        # three sources in four channels without noise: the metric has rank 3
        sim = tmp_path / "sim"
        run_cli("simulate", "--n", 4, "--m", 3, "--noise-power", 0, "--samples", 20000,
                "--seed", 1, "--out", sim)
        capsys.readouterr()
        code = run_cli("estimate", sim / "X.csv", "--m", 4, "--out", tmp_path / "est")
        assert code == 5
        assert capsys.readouterr().err.count("rank 3 < m=4") == 1

    def test_unparseable_samples_exit(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,matrix\n")
        code = run_cli("estimate", bad, "--m", 2, "--out", tmp_path / "o")
        assert code == 3

    def test_unreadable_samples_exit(self, tmp_path, capsys):
        code = run_cli("estimate", tmp_path, "--m", 2, "--out", tmp_path / "o")
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("file error:") and err.count("\n") == 1

    @pytest.mark.parametrize("N", [4, 5000])
    def test_non_finite_samples_are_usage_error(self, tmp_path, rng, capsys, N):
        # without the check, N=4 ends as a partial recovery and N=5000 in the
        # eigensolver
        X = rng.laplace(size=(N, 2))
        X[1, 1] = np.nan
        write_matrix_csv(tmp_path / "X.csv", X)
        code = run_cli("estimate", tmp_path / "X.csv", "--m", 2, "--out", tmp_path / "o")
        assert code == 2
        assert "sample column 2 of 2 is not finite" in capsys.readouterr().err
        assert not (tmp_path / "o" / "A_hat.csv").exists()


class TestDemix:
    def test_identity_model_recovers_sources(self, tmp_path):
        sim = tmp_path / "sim"
        run_cli("simulate", "--n", 3, "--samples", 50000, "--noise-power", 0.0,
                "--seed", 5, "--sources", "laplace,uniform,exponential", "--out", sim)
        est = tmp_path / "est"
        run_cli("estimate", sim / "X.csv", "--m", 3, "--out", est)
        dem = tmp_path / "dem"
        code = run_cli("demix", sim / "X.csv", est / "A_hat.csv",
                       "--mode", "pinv", "--model", sim, "--out", dem)
        assert code == 0
        S_hat = parse_matrix_csv(dem / "S_hat.csv")
        S = parse_matrix_csv(sim / "S.csv")
        header, rows = read_table(dem / "sinr_report.csv")
        perm = {int(r[0]): int(r[4]) for r in rows}  # source -> estimate row
        # each recovered channel matches its source up to sign and small error
        for k in range(3):
            a = S_hat[:, perm[k]]
            b = S[:, k] - S[:, k].mean()
            corr = abs(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
            assert corr >= 0.99

    def test_singular_covariance_diagnostic(self, tmp_path, capsys):
        # three sources in four channels without noise: cov(X) has rank 3
        sim = tmp_path / "sim"
        run_cli("simulate", "--n", 4, "--m", 3, "--noise-power", 0, "--samples", 20000,
                "--seed", 1, "--out", sim)
        assert run_cli("estimate", sim / "X.csv", "--m", 3, "--out", tmp_path / "est") == 0
        capsys.readouterr()
        code = run_cli("demix", sim / "X.csv", tmp_path / "est" / "A_hat.csv",
                       "--out", tmp_path / "dem")
        assert code == 0
        assert "sample covariance is singular (rank 3)" in capsys.readouterr().err

    def test_sinr_opt_beats_pinv_in_noise(self, tmp_path):
        sim = tmp_path / "sim"
        run_cli("simulate", "--n", 5, "--samples", 200000, "--noise-power", 0.67,
                "--seed", 6, "--sources",
                "laplace,uniform,exponential,bernoulli(0.5),student_t(5)", "--out", sim)
        est = tmp_path / "est"
        assert run_cli("estimate", sim / "X.csv", "--m", 5, "--out", est) == 0
        means = {}
        for mode in ("sinr_opt", "pinv"):
            dem = tmp_path / f"dem_{mode}"
            run_cli("demix", sim / "X.csv", est / "A_hat.csv",
                    "--mode", mode, "--model", sim, "--out", dem)
            _, rows = read_table(dem / "sinr_report.csv")
            means[mode] = np.mean([float(r[2]) for r in rows])  # sinr_db column
        assert means["sinr_opt"] >= means["pinv"]

    def test_report_permutation_matches_library_matching(self, sim_dir, tmp_path):
        est = tmp_path / "est"
        run_cli("estimate", sim_dir / "X.csv", "--m", 4, "--out", est)
        dem = tmp_path / "dem"
        run_cli("demix", sim_dir / "X.csv", est / "A_hat.csv", "--model", sim_dir,
                "--out", dem)
        A_hat = parse_matrix_csv(est / "A_hat.csv")
        A_true = parse_matrix_csv(sim_dir / "A.csv")
        perm, _, _ = match_columns(A_hat, A_true)
        _, rows = read_table(dem / "sinr_report.csv")
        for r in rows:
            source, row_idx = int(r[0]), int(r[4])
            assert perm[row_idx] == source

    def test_shape_mismatch_is_usage_error(self, sim_dir, tmp_path):
        bad = tmp_path / "bad_est.csv"
        write_matrix_csv(bad, np.eye(3))
        code = run_cli("demix", sim_dir / "X.csv", bad, "--out", tmp_path / "d")
        assert code == 2

    @pytest.mark.parametrize("mode", ["sinr_opt", "pinv"])
    def test_non_finite_samples_are_usage_error(self, tmp_path, rng, capsys, mode):
        X = rng.laplace(size=(4, 2))
        X[2, 0] = np.inf
        write_matrix_csv(tmp_path / "X.csv", X)
        write_matrix_csv(tmp_path / "A_hat.csv", np.eye(2))
        code = run_cli("demix", tmp_path / "X.csv", tmp_path / "A_hat.csv", "--mode", mode,
                       "--out", tmp_path / "d")
        assert code == 2
        assert "sample column 1 of 2 is not finite" in capsys.readouterr().err
        assert not (tmp_path / "d" / "S_hat.csv").exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_estimate_is_usage_error(self, tmp_path, rng, capsys, value):
        write_matrix_csv(tmp_path / "X.csv", rng.laplace(size=(1000, 3)))
        A_hat = np.eye(3)
        A_hat[2, 1] = A_hat[2, 2] = value
        write_matrix_csv(tmp_path / "A_hat.csv", A_hat)
        code = run_cli("demix", tmp_path / "X.csv", tmp_path / "A_hat.csv",
                       "--out", tmp_path / "d")
        assert code == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'A_hat.csv'}: row 3, column 2 of the estimate is not finite" in err
        assert not (tmp_path / "d" / "S_hat.csv").exists()

    def test_partial_estimate_is_refused(self, tmp_path, rng, capsys):
        gauss = tmp_path / "gauss.csv"
        write_matrix_csv(gauss, rng.standard_normal((20000, 3)))
        est = tmp_path / "est"
        assert run_cli("estimate", gauss, "--m", 3, "--out", est) == 5
        dem = tmp_path / "dem"
        code = run_cli("demix", gauss, est / "A_hat.csv", "--out", dem)
        assert code == 5
        assert "columns 1, 2, 3 are all zero" in capsys.readouterr().err
        assert not (dem / "S_hat.csv").exists()

    def test_zero_columns_are_counted_from_one(self, tmp_path, rng, capsys):
        write_matrix_csv(tmp_path / "X.csv", rng.laplace(size=(1000, 4)))
        A_hat = np.eye(4)
        A_hat[:, 2:] = 0.0
        write_matrix_csv(tmp_path / "A_hat.csv", A_hat)
        code = run_cli("demix", tmp_path / "X.csv", tmp_path / "A_hat.csv",
                       "--out", tmp_path / "d")
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("partial recovery: estimate columns 3, 4 are all zero")
        assert err.count("\n") == 1
        assert not (tmp_path / "d" / "S_hat.csv").exists()

    @pytest.mark.parametrize("case, reason", [
        ("square", "column sets must have identical shapes"),
        ("repeated", "column matching requires full column rank"),
    ])
    def test_model_that_does_not_fit_the_estimate_writes_nothing(self, tmp_path, capsys,
                                                                 case, reason):
        # three sources in four channels
        sim = tmp_path / "sim"
        run_cli("simulate", "--n", 4, "--m", 3, "--samples", 2000, "--seed", 2, "--out", sim)
        A = parse_matrix_csv(sim / "A.csv")
        if case == "square":
            A_hat = np.eye(4)
        else:
            A_hat = A.copy()
            A_hat[:, 2] = A[:, 0]
        write_matrix_csv(tmp_path / "A_hat.csv", A_hat)
        capsys.readouterr()
        code = run_cli("demix", sim / "X.csv", tmp_path / "A_hat.csv", "--model", sim,
                       "--out", tmp_path / "d")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'A_hat.csv'} (shape {A_hat.shape}) "
                              f"does not fit {sim / 'A.csv'} (shape (4, 3)): {reason}")
        assert not (tmp_path / "d" / "S_hat.csv").exists()

    @staticmethod
    def _damaged_model(sim_dir, tmp_path):
        model = tmp_path / "model"
        model.mkdir()
        for name in ("model.txt", "A.csv", "Sigma.csv"):
            shutil.copy(sim_dir / name, model / name)
        return model

    @pytest.mark.parametrize("key", ["sources", "noise_power"])
    def test_model_without_a_line_is_parse_error(self, sim_dir, tmp_path, capsys, key):
        model = self._damaged_model(sim_dir, tmp_path)
        meta = read_keyvalues(model / "model.txt")
        del meta[key]
        write_keyvalues(model / "model.txt", meta)
        code = run_cli("demix", sim_dir / "X.csv", sim_dir / "A.csv", "--model", model,
                       "--out", tmp_path / "d")
        assert code == 3
        assert f"{model / 'model.txt'}: no {key} line" in capsys.readouterr().err
        assert not (tmp_path / "d" / "S_hat.csv").exists()

    @pytest.mark.parametrize("key, value, reason", [
        ("noise_power", "abc", "could not convert string to float"),
        ("sources", "cauchy,uniform,exponential,bernoulli(0.5)", "unknown source family"),
        ("sources", "laplace,uniform,exponential", "names 3 sources, but"),
    ], ids=["noise_power_not_a_number", "unknown_source_family", "too_few_sources"])
    def test_model_with_a_bad_value_is_parse_error(self, sim_dir, tmp_path, capsys,
                                                   key, value, reason):
        model = self._damaged_model(sim_dir, tmp_path)
        meta = read_keyvalues(model / "model.txt")
        meta[key] = value
        write_keyvalues(model / "model.txt", meta)
        code = run_cli("demix", sim_dir / "X.csv", sim_dir / "A.csv", "--model", model,
                       "--out", tmp_path / "d")
        assert code == 3
        err = capsys.readouterr().err
        assert f"{model / 'model.txt'}: line {key}={value}: " in err
        assert reason in err
        assert not (tmp_path / "d" / "S_hat.csv").exists()

    def test_model_without_sigma_writes_nothing(self, sim_dir, tmp_path):
        model = self._damaged_model(sim_dir, tmp_path)
        (model / "Sigma.csv").unlink()
        code = run_cli("demix", sim_dir / "X.csv", sim_dir / "A.csv", "--model", model,
                       "--out", tmp_path / "d")
        assert code == 3
        assert not (tmp_path / "d" / "S_hat.csv").exists()

    def test_pipeline_coherence_with_library(self, sim_dir, tmp_path):
        # CLI estimate+demix equals the in-process composition bit-for-bit
        # modulo CSV round-tripping (which is lossless)
        est = tmp_path / "est"
        run_cli("estimate", sim_dir / "X.csv", "--m", 4, "--seed", 1,
                "--epsilon", 1e-6, "--out", est)
        dem = tmp_path / "dem"
        run_cli("demix", sim_dir / "X.csv", est / "A_hat.csv", "--out", dem)
        S_hat_cli = parse_matrix_csv(dem / "S_hat.csv")

        X = parse_matrix_csv(sim_dir / "X.csv")
        samples = center(X)
        oracle = CumulantOracle(samples)
        est_lib = pegi_full(build_C(oracle), oracle, 4,
                            IterationConfig(epsilon=1e-6, rng_seed=1))
        B = sinr_optimal_demix(est_lib.A_hat, sample_cov(samples)).B
        S_hat_lib = samples.data @ B.T
        assert np.max(np.abs(S_hat_cli - S_hat_lib)) <= 1e-12


class TestBenchmarkCommand:
    def test_every_config_field_has_a_flag_of_its_name(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {a.dest: a.option_strings for a in sub.choices["benchmark"]._actions}
        assert {f.name for f in fields(RunConfig)} <= set(flags)
        assert flags["noise_powers"] == ["--noise-power"]
        assert flags["algorithms"] == ["--algo"]
        assert flags["timing"] == ["--no-timing"]

    def test_budget_flag_and_key_are_refused(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("benchmark", "--max-iters", 5, "--out", tmp_path / "ben")
        assert excinfo.value.code == 2
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("trials=1\nmax_restarts=3\n")
        capsys.readouterr()
        assert run_cli("benchmark", "--config", cfg, "--out", tmp_path / "ben") == 2
        assert "max_restarts" in capsys.readouterr().err
        assert not (tmp_path / "ben" / "benchmark.csv").exists()

    @pytest.mark.parametrize("flags, named", [
        (("--noise-power", "-0.1"), "noise power must be a nonnegative finite number, got -0.1"),
        (("--noise-power", "nan"), "noise power must be a nonnegative finite number, got nan"),
        (("--noise-power", "0.1,-0.2"),
         "noise power must be a nonnegative finite number, got -0.2"),
        (("--epsilon", "2"), "epsilon must lie in (0, 1), got 2.0"),
    ], ids=["negative", "nan", "second_negative", "epsilon"])
    def test_bad_value_is_refused_before_any_cell(self, tmp_path, capsys, monkeypatch,
                                                  flags, named):
        cells = []
        monkeypatch.setattr(benchmark, "_run_cell", lambda *a, **k: cells.append(a) or [])
        code = run_cli("benchmark", "--n", 3, "--m", 3, "--samples", 2000, "--trials", 1,
                       "--algo", "oracle_ainv", *flags, "--out", tmp_path / "ben")
        assert code == 2
        assert f"error: {named}" in capsys.readouterr().err
        assert cells == []
        assert not (tmp_path / "ben" / "benchmark.csv").exists()

    def test_tiny_sweep_row_counts(self, tmp_path):
        out = tmp_path / "ben"
        code = run_cli(
            "benchmark", "--n", 4, "--m", 4, "--samples", "3000",
            "--noise-power", "0.1", "--trials", 1, "--seed", 5,
            "--algo", "pegi_sinr,oracle_ainv,oracle_sinropt",
            "--panel", "finite_k4", "--no-timing", "--out", out,
        )
        assert code == 0
        _, rows = read_table(out / "benchmark.csv")
        trial_rows = [r for r in rows if r[3] != "mean"]
        agg_rows = [r for r in rows if r[3] == "mean"]
        assert len(trial_rows) == 3
        assert len(agg_rows) == 3

    def test_byte_identical_reruns(self, tmp_path):
        args = (
            "benchmark", "--n", 4, "--m", 4, "--samples", "2000,4000",
            "--noise-power", "0.1", "--trials", 2, "--seed", 9,
            "--algo", "oracle_ainv,oracle_sinropt", "--panel", "finite_k4",
            "--no-timing",
        )
        run_cli(*args, "--out", tmp_path / "one")
        run_cli(*args, "--out", tmp_path / "two")
        assert (tmp_path / "one" / "benchmark.csv").read_bytes() == \
               (tmp_path / "two" / "benchmark.csv").read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            "n=4\nm=4\nsamples=2000\nnoise_powers=0.1\ntrials=2\nseed=3\n"
            "algorithms=oracle_ainv\npanel=finite_k4\ntiming=false\n"
        )
        out = tmp_path / "ben"
        code = run_cli("benchmark", "--config", cfg, "--trials", 1, "--out", out)
        assert code == 0
        _, rows = read_table(out / "benchmark.csv")
        assert len([r for r in rows if r[3] != "mean"]) == 1  # flag wins

    def test_report_round_trip(self, tmp_path):
        out = tmp_path / "ben"
        run_cli("benchmark", "--n", 4, "--m", 4, "--samples", "2000",
                "--noise-power", "0.1", "--trials", 2, "--seed", 5,
                "--algo", "oracle_ainv", "--panel", "finite_k4",
                "--no-timing", "--out", out)
        rep = tmp_path / "rep"
        code = run_cli("report", out / "benchmark.csv", "--out", rep)
        assert code == 0
        header, rows = read_table(rep / "report.csv")
        assert header[0] == "algorithm"
        assert len(rows) == 1
        assert int(rows[0][3]) == 2  # both trials ok
        assert header[-1] == "trials" and int(rows[0][-1]) == 2

    @pytest.mark.parametrize("damage, message", [
        (lambda text: text.replace("mean_sinr_db", "sinr_db", 1), "unexpected benchmark header"),
        (lambda text: text.replace(",2000,", ",20x0,", 1), "row 1, column 2 (N): '20x0'"),
    ], ids=["header", "cell"])
    def test_report_on_a_malformed_file_is_parse_error(self, tmp_path, capsys, damage, message):
        out = tmp_path / "ben"
        run_cli("benchmark", "--n", 4, "--m", 4, "--samples", "2000",
                "--noise-power", "0.1", "--trials", 1, "--seed", 5,
                "--algo", "oracle_ainv", "--panel", "finite_k4",
                "--no-timing", "--out", out)
        path = out / "benchmark.csv"
        path.write_text(damage(path.read_text()))
        capsys.readouterr()
        assert run_cli("report", path, "--out", tmp_path / "rep") == 3
        assert f"{path}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "rep" / "report.csv").exists()

    def test_report_columns_line_up(self, tmp_path, capsys):
        out = tmp_path / "ben"
        run_cli("benchmark", "--n", 4, "--m", 4, "--samples", "2000",
                "--noise-power", "0.1", "--trials", 2, "--seed", 5,
                "--algo", "oracle_ainv,oracle_sinropt", "--panel", "finite_k4",
                "--no-timing", "--out", out)
        capsys.readouterr()
        assert run_cli("report", out / "benchmark.csv", "--out", tmp_path / "rep") == 0
        lines = capsys.readouterr().out.splitlines()[:-1]  # the last names the file
        starts = [[m.start() for m in re.finditer(r"\S+", line)] for line in lines]
        assert len(lines) == 3 and len(starts[0]) == 8
        assert any(len(cell) > 12 for cell in lines[1].split())  # wider than the old pad
        for row in starts[1:]:
            assert row == starts[0]


class TestBlasThreads:
    """`estimate` under one and two OpenBLAS threads.

    The moment pass and the covariance run BLAS products whose summation
    order may follow the thread count.  On a 2-CPU host n=8 came out bitwise
    equal (also at N=1e5; both n take the float32 pass) and n=24 within
    1.1e-7 per entry and 1.5e-5 degrees per column.
    """

    @pytest.mark.parametrize("n, samples", [(8, 20000), (24, 50000)])
    def test_columns_agree_across_thread_counts(self, tmp_path, n, samples):
        assert run_cli("simulate", "--n", n, "--samples", samples, "--noise-power", 0.1,
                       "--seed", 0, "--out", tmp_path) == 0
        src = str(Path(pegica.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        estimates = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            proc = subprocess.run(
                [sys.executable, "-m", "pegica.cli", "estimate", str(tmp_path / "X.csv"),
                 "--m", str(n), "--seed", "0", "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            estimates.append(parse_matrix_csv(out / "A_hat.csv"))
        _, _, angles = match_columns(*estimates)
        assert np.max(angles) <= 1e-3


class TestOutputDirEnvVar:
    def test_env_var_used_as_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PEGICA_OUT_DIR", str(tmp_path / "envout"))
        code = run_cli("simulate", "--n", 3, "--samples", 1000, "--seed", 2)
        assert code == 0
        assert (tmp_path / "envout" / "X.csv").exists()
