"""Command-line front end.

Subcommands
-----------
simulate   draw a ground-truth model and a sample batch, write them to disk
estimate   recover mixing columns from a samples file
demix      apply a demixer to samples, optionally scoring against a model
benchmark  run the seeded sweep and write the per-trial/aggregate CSV
report     condense a benchmark CSV into a per-(algorithm, N, p) summary

Exit codes: 0 success, 2 usage, 3 file error (unreadable, unwritable or
unparseable), 4 numerical failure (a noise covariance that is not PSD, a
failed consistency check), 5 partial recovery (also a rank-deficient
metric, unconverged columns, an estimate with all-zero columns).  Commands
raise what they refuse; :func:`main` alone maps that to an exit code.

The default output directory is the PEGICA_OUT_DIR environment variable,
falling back to the current directory.  All files are plain text; see
:mod:`pegica.matio` for the formats.
"""

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import demix as dx
from .benchmark import (
    RunConfig,
    config_from_mapping,
    read_benchmark_csv,
    run_benchmark,
    summarize,
    write_benchmark_csv,
)
from .cumulants import CumulantOracle, build_C, center
from .errors import (
    MatrixFormatError,
    ModelConstructionError,
    NumericalConsistencyError,
    PartialRecoveryError,
    PegicaError,
)
from .linalg import hermitian_pinv, to_db
from .matio import (
    format_value,
    parse_matrix_csv,
    read_keyvalues,
    write_keyvalues,
    write_matrix_csv,
    write_table,
)
from .recovery import IterationConfig, pegi_full
from .simulate import (
    GroundTruthModel,
    draw_batch,
    make_model,
    source_spec,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_NUMERICAL = 4
EXIT_PARTIAL = 5


def _out_dir(arg):
    base = arg or os.environ.get("PEGICA_OUT_DIR") or "."
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_model(outdir, model, seed):
    write_matrix_csv(outdir / "A.csv", model.A)
    write_matrix_csv(outdir / "Sigma.csv", model.Sigma)
    write_keyvalues(outdir / "model.txt", {
        "n": model.n,
        "m": model.m,
        "noise_power": repr(model.noise_power),
        "seed": seed,
        "field": "complex" if model.is_complex else "real",
        "sources": ",".join(spec.label for spec in model.sources),
    })


def _read_model(model_dir):
    model_dir = Path(model_dir)
    path = model_dir / "model.txt"
    meta = read_keyvalues(path)
    for key in ("sources", "noise_power"):
        if key not in meta:
            raise MatrixFormatError(f"{path}: no {key} line")

    def parsed(key, parse):
        try:
            return parse(meta[key])
        except ValueError as exc:
            raise MatrixFormatError(f"{path}: line {key}={meta[key]}: {exc}") from None

    noise_power = parsed("noise_power", float)
    sources = parsed("sources", lambda text: tuple(source_spec(t) for t in text.split(",")))
    A = parse_matrix_csv(model_dir / "A.csv")
    if len(sources) != A.shape[1]:
        raise MatrixFormatError(
            f"{path}: line sources={meta['sources']}: names {len(sources)} sources, "
            f"but {model_dir / 'A.csv'} has {A.shape[1]} columns"
        )
    Sigma = parse_matrix_csv(model_dir / "Sigma.csv")
    if np.iscomplexobj(Sigma) and np.abs(Sigma.imag).max() == 0.0:
        Sigma = Sigma.real
    return GroundTruthModel(A=A, sources=sources, Sigma=Sigma, noise_power=noise_power)


def cmd_simulate(args):
    sources = None
    if args.sources:
        sources = tuple(source_spec(t) for t in args.sources.split(","))
    model = make_model(
        n=args.n, m=args.m, cond=args.cond, noise_power=args.noise_power,
        sources=sources, seed=args.seed,
    )
    outdir = _out_dir(args.out)
    batch = draw_batch(model, args.samples, seed=args.seed)
    _write_model(outdir, model, args.seed)
    write_matrix_csv(outdir / "X.csv", batch.X)
    write_matrix_csv(outdir / "S.csv", batch.S)
    print(f"seed={args.seed}")
    print(f"wrote model and {args.samples}x{model.n} samples to {outdir}")
    return EXIT_OK


def _write_estimate(outdir, est, m, status):
    write_matrix_csv(outdir / "A_hat.csv", est.A_hat)
    write_matrix_csv(outdir / "B_hat.csv", est.B_hat)
    write_keyvalues(outdir / "estimate.txt", {
        "m": m,
        "columns_found": est.columns_found,
        "status": status,
    })


def cmd_estimate(args):
    if args.m < 1:
        raise ValueError("--m must be a positive integer")
    outdir = _out_dir(args.out)
    X = parse_matrix_csv(args.samples_file)
    samples = center(X)
    if args.m > samples.dim:
        raise ValueError(f"m={args.m} exceeds data dimension {samples.dim}")
    oracle = CumulantOracle(samples)
    metric = build_C(oracle)
    try:
        est = pegi_full(metric, oracle, args.m, IterationConfig(
            epsilon=args.epsilon, rng_seed=args.seed))
    except PartialRecoveryError as exc:
        _write_estimate(outdir, exc.estimate, args.m, "partial")
        raise
    _write_estimate(outdir, est, args.m, "ok")
    print(f"recovered {est.columns_found}/{args.m} columns -> {outdir / 'A_hat.csv'}")
    return EXIT_OK


def cmd_demix(args):
    outdir = _out_dir(args.out)
    X = parse_matrix_csv(args.samples_file)
    A_hat = parse_matrix_csv(args.estimate_file)
    bad = np.argwhere(~np.isfinite(A_hat))
    if bad.size:
        row, col = bad[0] + 1
        raise ValueError(f"{args.estimate_file}: row {row}, column {col} of the estimate "
                         "is not finite; no demixer written")
    if A_hat.shape[0] != X.shape[1]:
        raise ValueError(f"estimate has {A_hat.shape[0]} rows but samples have "
                         f"{X.shape[1]} columns")
    # estimate writes the columns a partial recovery missed as zeros
    missing = np.flatnonzero(~np.any(A_hat, axis=0)) + 1
    if missing.size:
        raise PartialRecoveryError(f"estimate columns {', '.join(map(str, missing))} are "
                                   "all zero; no demixer written")
    if args.model:
        model = _read_model(args.model)
        try:
            perm, phases, angles = dx.match_columns(A_hat, model.A)
        except ValueError as exc:
            raise ValueError(f"{args.estimate_file} (shape {A_hat.shape}) does not fit "
                             f"{Path(args.model) / 'A.csv'} (shape {model.A.shape}): "
                             f"{exc}") from None
    samples = center(X)
    if args.mode == "sinr_opt":
        cov = dx.sample_cov(samples)
        # the demixer's own truncation rule decides the rank
        rank = hermitian_pinv(cov)[1]
        if rank < cov.shape[0]:
            print(
                f"diagnostic: sample covariance is singular (rank {rank}); "
                "pseudoinverse applied",
                file=sys.stderr,
            )
        demixer = dx.sinr_optimal_demix(A_hat, cov)
    else:
        demixer = dx.pinv_demix(A_hat)
    S_hat = demixer.apply(samples.data)
    write_matrix_csv(outdir / "S_hat.csv", S_hat)
    print(f"wrote demixed sources ({args.mode}) to {outdir / 'S_hat.csv'}")
    if args.model:
        sinr, loss_db = dx.sinr_loss(demixer.B, model, perm)
        sinr_db = to_db(sinr)
        row_of = np.argsort(perm)
        rows = [(
            str(k),
            format_value(sinr[k]),
            format_value(sinr_db[k]),
            format_value(loss_db[k]),
            str(j),
            format_value(phases[j]),
            format_value(angles[j]),
        ) for k, j in enumerate(row_of)]
        write_table(outdir / "sinr_report.csv", (
            "source", "sinr", "sinr_db", "sinr_loss_db",
            "estimate_row", "phase", "column_angle_deg",
        ), rows)
        print(
            f"mean SINR {sinr_db.mean():.3f} dB, "
            f"mean loss {loss_db.mean():.3f} dB -> "
            f"{outdir / 'sinr_report.csv'}"
        )
    return EXIT_OK


def _config_from_args(args):
    # each benchmark flag stores into the RunConfig field it sets; flags win
    mapping = read_keyvalues(args.config) if args.config else {}
    mapping.update({f.name: v for f in fields(RunConfig)
                    if (v := getattr(args, f.name)) is not None})
    return config_from_mapping(mapping)


def cmd_benchmark(args):
    outdir = _out_dir(args.out)
    config = _config_from_args(args)
    rows = run_benchmark(config)
    path = outdir / "benchmark.csv"
    write_benchmark_csv(path, rows)
    n_trial_rows = sum(1 for r in rows if r.trial != "mean")
    print(f"wrote {n_trial_rows} trial rows (+{len(rows) - n_trial_rows} aggregates) to {path}")
    return EXIT_OK


def cmd_report(args):
    outdir = _out_dir(args.out)
    rows = read_benchmark_csv(args.benchmark_file)
    header, summary = summarize(rows)
    path = outdir / "report.csv"
    write_table(path, header, summary)
    lines = [header] + [[str(c) for c in row] for row in summary]
    widths = [max(map(len, column)) for column in zip(*lines)]
    for line in lines:
        print("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip())
    print(f"wrote summary to {path}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pegica",
        description="Noisy ICA recovery and SINR-optimal demixing toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a model and sample batch")
    sim.add_argument("--n", type=int, default=8)
    sim.add_argument("--m", type=int, default=None)
    sim.add_argument("--cond", type=float, default=3.0)
    sim.add_argument("--samples", type=int, default=100_000, help="number of draws N")
    sim.add_argument("--noise-power", type=float, default=0.1)
    sim.add_argument("--sources", type=str, default=None,
                     help="comma list like 'laplace,uniform,bernoulli(0.05)'")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", type=str, default=None)
    sim.set_defaults(func=cmd_simulate)

    est = sub.add_parser("estimate", help="recover mixing columns from samples")
    est.add_argument("samples_file")
    est.add_argument("--m", type=int, required=True, help="number of sources")
    est.add_argument("--epsilon", type=float, default=1e-6)
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--out", type=str, default=None)
    est.set_defaults(func=cmd_estimate)

    dem = sub.add_parser("demix", help="apply a demixer to samples")
    dem.add_argument("samples_file")
    dem.add_argument("estimate_file", help="matrix CSV of recovered columns")
    dem.add_argument("--mode", choices=("sinr_opt", "pinv"), default="sinr_opt")
    dem.add_argument("--model", type=str, default=None,
                     help="model directory for ground-truth scoring")
    dem.add_argument("--out", type=str, default=None)
    dem.set_defaults(func=cmd_demix)

    ben = sub.add_parser("benchmark", help="run the seeded sweep")
    ben.add_argument("--config", type=str, default=None, help="key=value file")
    ben.add_argument("--n", type=int, default=None)
    ben.add_argument("--m", type=int, default=None)
    ben.add_argument("--cond", type=float, default=None)
    ben.add_argument("--samples", type=str, default=None, help="comma list of N values")
    ben.add_argument("--noise-power", dest="noise_powers", type=str, default=None,
                     help="comma list of p values")
    ben.add_argument("--trials", type=int, default=None)
    ben.add_argument("--seed", type=int, default=None)
    ben.add_argument("--panel", type=str, default=None)
    ben.add_argument("--algo", dest="algorithms", type=str, default=None,
                     help="comma list of algorithms")
    ben.add_argument("--epsilon", type=float, default=None)
    ben.add_argument("--no-timing", dest="timing", action="store_const", const="false",
                     help="write zero runtimes so output is byte-reproducible")
    ben.add_argument("--out", type=str, default=None)
    ben.set_defaults(func=cmd_benchmark)

    rep = sub.add_parser("report", help="summarize a benchmark CSV")
    rep.add_argument("benchmark_file")
    rep.add_argument("--out", type=str, default=None)
    rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MatrixFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ModelConstructionError, NumericalConsistencyError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except PartialRecoveryError as exc:
        print(f"partial recovery: {exc}", file=sys.stderr)
        return EXIT_PARTIAL
    except (PegicaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
