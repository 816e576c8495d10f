"""pegica benchmark: run one workload and print its result as JSON.

Usage::

    python3 perfbench/run.py --workload {tall,wide,sweep,cli_chain} \
        --seed N --seconds S --trace {0,1}

Run from anywhere; the package is imported from ``src/`` beside this
directory and nowhere else.  A run sets up its inputs ``SETUP_REPS`` times,
then repeats whole operation rounds until ``--seconds`` have passed, then
checks the outputs of the last round against computations made apart from
the package (see ``checks.py``).  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of ``tracing.py`` with
``--trace 1``.  Results, spans and CLI scratch files go to
``.perfbench_out/`` at the repository root.  See README.md for what each
workload and metric means.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
ENV = dict(os.environ, PYTHONPATH=str(SRC))

SETUP_REPS = 3
COND = 3.0
NOISE_POWER = 0.1
EPSILON = 1e-6
# The data of every workload is fixed; --seed drives the iteration's random
# start directions.  A seeded data set would make sinr_loss_db a random
# variable whose spread across seeds (60% of its median on tall) no bound
# could hold.  The sweep ignores --seed: its failing rows belong to seed 0.
DATA_SEED = 0
SEPARATION = {"tall": (8, 1_000_000), "wide": (24, 200_000)}
SWEEP = dict(
    n=8, m=8, samples=(10_000, 100_000), noise_powers=(NOISE_POWER,), trials=10,
    seed=0, panel="paper", cond=COND, epsilon=EPSILON, timing=False,
    algorithms=("pegi_sinr", "pegi_pinv", "oracle_ainv", "oracle_sinropt"),
)
CLI_N, CLI_SAMPLES = 8, 100_000
COMMAND_TIMEOUT_S = 150


def load_pegica():
    if not (SRC / "pegica" / "__init__.py").is_file():
        sys.exit(f"run.py: no pegica sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pegica

    if Path(pegica.__file__).resolve().parent != SRC / "pegica":
        sys.exit(f"run.py: pegica was imported from {pegica.__file__}, not {SRC}")


def import_seconds():
    """Time ``import pegica`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import pegica; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                         text=True, check=True, timeout=COMMAND_TIMEOUT_S)
    return float(out.stdout)


def setup_seconds(generate):
    """Median import time plus median time of ``generate()``, each run SETUP_REPS times.

    Returns ``(setup_s, last value of generate())``.
    """
    imports = [import_seconds() for _ in range(SETUP_REPS)]
    gen, value = [], None
    for _ in range(SETUP_REPS):
        value = None
        t0 = time.perf_counter()
        value = generate()
        gen.append(time.perf_counter() - t0)
    return statistics.median(imports) + statistics.median(gen), value


def rounds(seconds, op):
    """Repeat ``op`` for about ``seconds``: at least once, and no further
    round once the last one's length would carry the run past ``seconds``.

    ``op(r)`` runs round ``r`` and returns ``(attempted, failed, payload)``.
    Returns the round times, the attempted and failed totals and the last
    payload.
    """
    times, attempted, failed, payload = [], 0, 0, None
    start = time.perf_counter()
    while not times or time.perf_counter() - start + times[-1] <= seconds:
        payload = None
        t0 = time.perf_counter()
        a, f, payload = op(len(times))
        times.append(time.perf_counter() - t0)
        attempted += a
        failed += f
    return times, attempted, failed, payload


def start_seed(seed, r):
    """Seed of the iteration's start directions in round ``r``.

    Each round draws fresh starts, so a run's median time averages over the
    number of iterations the starts happen to need.
    """
    return 1000 * seed + r


def peak_rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024.0


def set_phase(tracer, phase):
    if tracer is not None:
        tracer.phase = phase


def make_data(n, N):
    from pegica import simulate

    model = simulate.make_model(n=n, cond=COND, noise_power=NOISE_POWER, seed=DATA_SEED)
    return model, simulate.draw_batch(model, N, seed=DATA_SEED)


def run_separation(args, tracer):
    """tall / wide: raw X in memory to S_hat, one estimate per round."""
    from pegica import cumulants, demix, errors, recovery

    n, N = SEPARATION[args.workload]
    set_phase(tracer, "setup")
    setup_s, (model, batch) = setup_seconds(lambda: make_data(n, N))
    set_phase(tracer, "op")

    def op(r):
        cfg = recovery.IterationConfig(epsilon=EPSILON, rng_seed=start_seed(args.seed, r))
        samples = cumulants.center(batch.X)
        oracle = cumulants.EmpiricalCumulantOracle(samples)
        metric = cumulants.build_C(oracle)
        try:
            est = recovery.pegi_full(metric, oracle, n, cfg)
        except errors.PartialRecoveryError:
            return 1, 1, None
        demixer = demix.sinr_optimal_demix(est.A_hat, demix.sample_cov(samples))
        return 1, 0, (est, demixer.B, demixer.apply(samples.data))

    times, attempted, failed, payload = rounds(args.seconds, op)
    rss = peak_rss_mb()

    def check():
        if payload is None:
            return None
        est, B, S_hat = payload
        return checks.check_separation(model.A, model.Sigma, est.A_hat, est.B_hat, B, S_hat, batch.S)

    return (setup_s, times, attempted, failed, rss) + verified(check)


def run_sweep(args, tracer):
    """sweep: one run_benchmark per round; one operation per per-trial row."""
    from pegica import benchmark

    config = benchmark.RunConfig(**SWEEP)
    expected = config.trials * len(config.samples) * len(config.noise_powers) * len(config.algorithms)
    setup_s, _ = setup_seconds(lambda: None)

    def op(_):
        rows = [r for r in benchmark.run_benchmark(config) if r.trial != "mean"]
        return len(rows), sum(r.status != "ok" for r in rows), rows

    times, attempted, failed, rows = rounds(args.seconds, op)
    rss = peak_rss_mb()

    rows = [(r.algorithm, r.N, r.p, r.trial, r.mean_sinr_loss_db, r.max_column_angle_deg, r.status)
            for r in rows]
    return (setup_s, times, attempted, failed, rss) + verified(
        lambda: checks.check_sweep_rows(rows, expected))


def run_cli_chain(args, tracer):
    """cli_chain: simulate -> estimate -> demix --model, one process each."""
    set_phase(tracer, "setup")
    setup_s, (model, batch) = setup_seconds(lambda: make_data(CLI_N, CLI_SAMPLES))
    set_phase(tracer, "op")
    work = OUT / f"cli-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    X = str(work / "X.csv")
    span_files = []

    def op(r):
        commands = (
            ["simulate", "--n", str(CLI_N), "--samples", str(CLI_SAMPLES),
             "--noise-power", str(NOISE_POWER), "--seed", str(DATA_SEED), "--out", str(work)],
            ["estimate", X, "--m", str(CLI_N), "--seed", str(start_seed(args.seed, r)),
             "--out", str(work)],
            ["demix", X, str(work / "A_hat.csv"), "--model", str(work), "--out", str(work)],
        )
        errors = []
        for cmd in commands:
            if tracer is None:
                prefix = [sys.executable, "-m", "pegica.cli"]
            else:
                span_files.append(work / f"spans-{len(span_files)}.json")
                prefix = [sys.executable, str(HERE / "traced_cli.py"), str(span_files[-1])]
            proc = subprocess.run(prefix + cmd, env=ENV, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=COMMAND_TIMEOUT_S)
            if proc.returncode != 0:
                errors.append(f"{cmd[0]} exited {proc.returncode}: {proc.stderr.strip()}")
        return len(commands), len(errors), errors

    try:
        times, attempted, failed, errors = rounds(args.seconds, op)
        rss = max(peak_rss_mb(), peak_rss_mb(resource.RUSAGE_CHILDREN))
        for path in span_files:
            with open(path) as fh:
                tracer.extend(json.load(fh))
        for message in errors:
            print(message, file=sys.stderr)
        correct, loss = verified(lambda: None if errors else check_chain(work, model, batch))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return setup_s, times, attempted, failed, rss, correct, loss


def check_chain(work, model, batch):
    checks.check_matrix_file(work / "X.csv", batch.X)
    A_hat = checks.read_matrix(work / "A_hat.csv")
    B_hat = checks.read_matrix(work / "B_hat.csv")
    S_hat = checks.read_matrix(work / "S_hat.csv")
    Xc = batch.X - batch.X.mean(axis=0)
    B = A_hat.T @ np.linalg.pinv(Xc.T @ Xc / CLI_SAMPLES)
    loss = checks.check_separation(model.A, model.Sigma, A_hat, B_hat, B, S_hat, batch.S)
    cols, _ = checks.match(A_hat, model.A)
    checks.check_sinr_report(work / "sinr_report.csv", cols, checks.sinr(B, model.A, model.Sigma, cols))
    return loss


def verified(check):
    """Run ``check()``; returns ``(correct, its value or None)``."""
    try:
        return True, check()
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return False, None


WORKLOADS = {
    "tall": run_separation,
    "wide": run_separation,
    "sweep": run_sweep,
    "cli_chain": run_cli_chain,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    load_pegica()

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    OUT.mkdir(exist_ok=True)
    setup_s, times, attempted, failed, rss, correct, loss = WORKLOADS[args.workload](args, tracer)
    op_s = statistics.median(times)

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_s": (op_s, "s"),
            "sinr_loss_db": (loss, "dB"),
            "peak_rss_mb": (rss, "MB"),
        }
    else:
        metrics = tracing.layer_metrics(tracer.spans, rounds=len(times), setups=SETUP_REPS)
        metrics["traced.op_s"] = (op_s, "s")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump(dict(result, round_s=times), fh, indent=1)
    if tracer is not None:
        tracer.dump(f"{stem}-spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
