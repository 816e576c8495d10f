"""Sweep harness: row contracts, determinism, aggregation, round trips."""

import gc
import weakref

import numpy as np
import pytest

import pegica.benchmark as benchmark
from pegica import (
    CumulantOracle,
    GroundTruthModel,
    IterationConfig,
    build_C,
    center,
    draw_batch,
    finite_kurtosis_panel,
    match_columns,
    noise_cov,
    pegi_full,
    random_mixing,
    stream,
)
from pegica.benchmark import (
    BENCHMARK_HEADER,
    BenchmarkRow,
    RunConfig,
    config_from_mapping,
    read_benchmark_csv,
    run_benchmark,
    summarize,
    write_benchmark_csv,
)


def _tiny_config(**overrides):
    base = dict(
        n=4, m=4, samples=(3000,), noise_powers=(0.1,), trials=1, seed=7,
        algorithms=("pegi_sinr", "oracle_ainv", "oracle_sinropt"),
        panel="finite_k4", timing=False,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(samples=())
        with pytest.raises(ValueError):
            RunConfig(trials=0)
        with pytest.raises(ValueError):
            RunConfig(algorithms=("nonsense",))
        with pytest.raises(ValueError):
            RunConfig(panel="nonsense")

    @pytest.mark.parametrize("overrides, named", [
        (dict(noise_powers=(0.1, -0.2)), "got -0.2"),
        (dict(noise_powers=(float("nan"),)), "got nan"),
        (dict(noise_powers=(float("inf"),)), "got inf"),
        (dict(epsilon=2.0), "got 2.0"),
    ], ids=["negative", "nan", "inf", "epsilon"])
    def test_values_their_owners_refuse(self, overrides, named):
        # noise_cov's and IterationConfig's checks, before any cell runs
        with pytest.raises(ValueError, match=named):
            RunConfig(**overrides)

    def test_config_from_mapping_parses_lists_and_flags_win(self):
        cfg = config_from_mapping({
            "samples": "1000,2000",
            "noise_powers": "0.0,0.5",
            "algorithms": "oracle_ainv",
            "trials": "3",
            "epsilon": "1e-5",
            "timing": "false",
        })
        assert cfg.samples == (1000, 2000)
        assert cfg.noise_powers == (0.0, 0.5)
        assert cfg.algorithms == ("oracle_ainv",)
        assert cfg.trials == 3
        assert cfg.epsilon == 1e-5
        assert cfg.timing is False
        cfg = config_from_mapping({
            "samples": "2e3,4000",
            "algorithms": " oracle_ainv, pegi_sinr",
            "timing": "no",
            "n": "4",
            "cond": "2.5",
        })
        assert cfg.samples == (2000, 4000)
        assert cfg.algorithms == ("oracle_ainv", "pegi_sinr")
        assert cfg.timing is False
        assert cfg.n == 4 and type(cfg.n) is int
        assert cfg.cond == 2.5
        # the CLI merges the file's strings and the flags' typed values into
        # one mapping; a flag left unset arrives as None and keeps the default
        cfg = config_from_mapping({"n": "4", "timing": "no", "trials": 2, "cond": None})
        assert (cfg.trials, cfg.n, cfg.timing, cfg.cond) == (2, 4, False, 3.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            config_from_mapping({"wibble": "1"})


class TestRunBenchmark:
    def test_row_count_contract(self):
        rows = run_benchmark(_tiny_config())
        trial_rows = [r for r in rows if r.trial != "mean"]
        agg_rows = [r for r in rows if r.trial == "mean"]
        assert len(trial_rows) == 3  # 3 algorithms x 1 trial x 1 N x 1 p
        assert len(agg_rows) == 3
        keys = {(r.algorithm, r.N, r.p, r.trial) for r in trial_rows}
        assert len(keys) == 3

    def test_oracle_sinropt_has_zero_loss(self):
        rows = run_benchmark(_tiny_config())
        for row in rows:
            if row.algorithm == "oracle_sinropt" and row.trial != "mean":
                assert abs(row.mean_sinr_loss_db) <= 1e-9

    def test_oracle_ainv_loss_positive_in_noise(self):
        rows = run_benchmark(_tiny_config(noise_powers=(0.67,)))
        for row in rows:
            if row.algorithm == "oracle_ainv" and row.trial != "mean":
                assert row.mean_sinr_loss_db > 0.0

    def test_deterministic_rows(self):
        cfg = _tiny_config(trials=2)
        r1 = run_benchmark(cfg)
        r2 = run_benchmark(cfg)
        assert [r.as_csv_cells() for r in r1] == [r.as_csv_cells() for r in r2]

    def test_same_data_shared_across_algorithms(self):
        # oracle rows do not depend on the batch, but pegi rows do; the
        # seeds recorded for one (N, p, trial) cell must agree
        rows = run_benchmark(_tiny_config())
        seeds = {r.seed for r in rows if r.trial != "mean"}
        assert len(seeds) == 1

    def test_each_cell_frees_its_data_before_the_next_draw(self, monkeypatch):
        # at each draw, how many earlier cells' samples are still alive
        earlier, alive, draw = [], [], benchmark.draw_batch

        def tracked(*args, **kwargs):
            gc.collect()
            alive.append(sum(ref() is not None for ref in earlier))
            batch = draw(*args, **kwargs)
            earlier.append(weakref.ref(batch.X))
            return batch

        monkeypatch.setattr(benchmark, "draw_batch", tracked)
        run_benchmark(_tiny_config(trials=2, samples=(3000, 4000)))
        assert alive == [0, 0, 0, 0]

    def test_csv_round_trip(self, tmp_path):
        rows = run_benchmark(_tiny_config())
        path = tmp_path / "bench.csv"
        write_benchmark_csv(path, rows)
        back = read_benchmark_csv(path)
        assert [r.as_csv_cells() for r in back] == [r.as_csv_cells() for r in rows]

    def test_aggregate_rows_flagged(self):
        rows = run_benchmark(_tiny_config(trials=2))
        aggs = [r for r in rows if r.trial == "mean"]
        assert aggs and all(r.status.startswith("aggregate") for r in aggs)
        assert all(r.seed == "" for r in aggs)

    def test_summarize_means_match_aggregates(self, tmp_path):
        rows = run_benchmark(_tiny_config(trials=2))
        header, summary = summarize(rows)
        assert header[0] == "algorithm"
        aggs = {(r.algorithm, r.N, r.p): r for r in rows if r.trial == "mean"}
        for line in summary:
            key = (line[0], int(line[1]), float(line[2]))
            assert key in aggs
            assert float(line[5]) == pytest.approx(aggs[key].mean_sinr_loss_db, rel=1e-12)

    def test_summary_counts_every_trial_next_to_the_ok_ones(self):
        # at p=0.67 with N=3000 some trials of this sweep recover only part
        # of the mixing matrix; the means skip them, and the trials column
        # shows how many there were
        cfg = RunConfig(n=4, m=4, samples=(3000,), noise_powers=(0.67,), trials=3, seed=0,
                        algorithms=("pegi_sinr", "oracle_ainv"), timing=False)
        rows = run_benchmark(cfg)
        header, summary = summarize(rows)
        assert header == ("algorithm", "N", "p", "trials_ok", "mean_sinr_db", "mean_sinr_loss_db",
                          "mean_max_column_angle_deg", "trials")
        lines = {line[0]: line for line in summary}
        pegi = [r for r in rows if r.algorithm == "pegi_sinr" and r.trial != "mean"]
        ok = [r for r in pegi if r.status == "ok"]
        assert 0 < len(ok) < len(pegi)
        assert all(r.status == "partial" for r in pegi if r.status != "ok")
        assert lines["pegi_sinr"][3] == str(len(ok))
        assert lines["pegi_sinr"][7] == "3"
        assert float(lines["pegi_sinr"][5]) == pytest.approx(
            np.mean([r.mean_sinr_loss_db for r in ok]), rel=1e-12)
        assert (lines["oracle_ainv"][3], lines["oracle_ainv"][7]) == ("3", "3")

    def test_header_stable(self):
        assert BENCHMARK_HEADER[0] == "algorithm"
        assert "status" in BENCHMARK_HEADER

    def test_row_cells_pinned(self):
        row = BenchmarkRow("pegi_sinr", 3000, 0.1, "2", "123", 1, -0.5, float("nan"), 0.0,
                           "partial")
        assert row.as_csv_cells() == ("pegi_sinr", "3000", "0.1", "2", "123", "1.0", "-0.5",
                                      "nan", "0.0", "partial")

    def test_read_rows_carry_field_types(self, tmp_path):
        path = tmp_path / "bench.csv"
        write_benchmark_csv(path, run_benchmark(_tiny_config()))
        row = read_benchmark_csv(path)[0]
        assert [type(getattr(row, name)) for name in BENCHMARK_HEADER] == [
            str, int, float, str, str, float, float, float, float, str]


class TestSharedEstimate:
    PEGI = ("pegi_sinr", "pegi_pinv")

    def test_one_estimate_per_cell(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return pegi_full(*args, **kwargs)

        monkeypatch.setattr(benchmark, "pegi_full", counting)
        cfg = _tiny_config(trials=2, samples=(3000, 4000), algorithms=self.PEGI + ("oracle_ainv",))
        run_benchmark(cfg)
        assert len(calls) == 4  # trials x samples x noise powers

    def test_rows_equal_separate_estimates(self):
        shared = run_benchmark(_tiny_config(trials=2, algorithms=self.PEGI))
        for algorithm in self.PEGI:
            alone = run_benchmark(_tiny_config(trials=2, algorithms=(algorithm,)))
            mine = [r for r in shared if r.algorithm == algorithm]
            assert [r.as_csv_cells() for r in mine] == [r.as_csv_cells() for r in alone]

    def test_rows_match_direct_estimate(self):
        cfg = _tiny_config(algorithms=self.PEGI)
        rows = {r.algorithm: r for r in run_benchmark(cfg) if r.trial == "0"}
        # the first cell of trial 0, drawn as the sweep draws it
        A = random_mixing(cfg.n, cfg.m, cfg.cond, stream(cfg.seed, "mixing", 0))
        p = cfg.noise_powers[0]
        model = GroundTruthModel(A=A, sources=tuple(finite_kurtosis_panel(cfg.m)),
                                 Sigma=noise_cov(A, p), noise_power=p)
        batch = draw_batch(model, cfg.samples[0], seed=int(
            stream(cfg.seed, "sources", 0, 0, 0).integers(0, 2**63 - 1)))
        oracle = CumulantOracle(center(batch.X))
        est = pegi_full(build_C(oracle), oracle, cfg.m, IterationConfig(
            epsilon=cfg.epsilon, rng_seed=int(rows["pegi_sinr"].seed)))
        _, _, angles = match_columns(est.A_hat, model.A)
        for algorithm in self.PEGI:
            assert rows[algorithm].status == "ok"
            assert rows[algorithm].max_column_angle_deg == float(angles.max())
        assert rows["pegi_sinr"].mean_sinr_loss_db < rows["pegi_pinv"].mean_sinr_loss_db

    def test_mixed_kurtosis_cell_recovers_every_column(self):
        # seed-0 paper-panel sweep, trial 3 at N=1e4, p=0.1: along its own
        # mixing column the bernoulli(0.5) source scores z = 2.3, as other
        # sources' kurtosis cancels its own there, and 20 along the demixing
        # direction cov^+ column; the gate needs 5
        cfg = RunConfig(n=8, m=8, samples=(10_000,), noise_powers=(0.1,), trials=4,
                        seed=0, algorithms=("pegi_sinr",), timing=False)
        rows = [r for r in run_benchmark(cfg) if r.trial == "3"]
        assert [r.status for r in rows] == ["ok"]
        assert rows[0].max_column_angle_deg < 20.0


def test_sweep_workload_config_recovers_every_row():
    # the benchmark's sweep workload: n=8 takes the float32 moment pass, and
    # the oracle_ainv losses do not read the estimate at all
    cfg = RunConfig(n=8, m=8, samples=(10_000, 100_000), noise_powers=(0.1,), trials=10,
                    seed=0, panel="paper", cond=3.0, epsilon=1e-6, timing=False,
                    algorithms=("pegi_sinr", "pegi_pinv", "oracle_ainv", "oracle_sinropt"))
    rows = [r for r in run_benchmark(cfg) if r.trial != "mean"]
    assert len(rows) == 80
    assert [r for r in rows if r.status != "ok"] == []
    ainv = [r.mean_sinr_loss_db for r in rows if r.algorithm == "oracle_ainv"]
    assert float(np.mean(ainv)) == 0.6846187201699251
