"""End-to-end CLI behavior: files, exit codes, pipeline coherence."""

import argparse
import os
import re
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
from pegica.benchmark import RunConfig
from pegica.cli import build_parser, main
from pegica.matio import parse_matrix_csv, read_keyvalues, read_table, write_matrix_csv
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

    def test_gaussian_only_input_partial_exit(self, tmp_path, rng):
        path = tmp_path / "gauss.csv"
        write_matrix_csv(path, rng.standard_normal((20000, 3)))
        out = tmp_path / "est"
        code = run_cli("estimate", path, "--m", 3, "--out", out)
        assert code == 5
        meta = read_keyvalues(out / "estimate.txt")
        assert meta["columns_found"] == "0"
        assert meta["status"] == "partial"

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
        assert "columns 0, 1, 2 are all zero" in capsys.readouterr().err
        assert not (dem / "S_hat.csv").exists()

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
