"""Alternating benchmark pairs: a parent commit against the working tree.

Usage::

    python3 tools/bench_pairs.py --tag 16 --seconds 30 \
        --workload tall:101,102,103 --workload wide:201,202

Each ``--workload NAME:SEEDS`` runs one pair per seed.  A pair runs
``perfbench/run.py --workload NAME --seed SEED --seconds S`` once in a
checkout of the parent commit and once in the working tree; which side goes
first flips from one pair to the next, so a drift of the host over time
falls on both sides alike.  The parent (``--parent``, ``HEAD`` by default)
is extracted with ``git archive`` into a temporary directory, which is
removed afterwards.

With ``--trace``, each pair also runs both sides once more with
``--trace 1``, in the same order, and the file gains the same summary over
the per-layer metrics of ``BENCHMARK.json`` (``per_layer``).  The traced
runs are separate: their shims cost time, so they never enter the
end-to-end summary.

The result goes to ``BENCH_<tag>.json`` at the repository root: every run's
metrics, each side's median and quartiles per end-to-end metric of
``BENCHMARK.json``, how many pairs the working tree won, lost and tied on
each, the seeds, ``--seconds``, the machine (CPU count, Python, numpy,
BLAS, and whether bytecode is cached), ``src_lines``, the line count of
``src/pegica/*.py`` in the parent and in the working tree, and
``src_code_lines``, the same count without blank, comment-only and
docstring lines, so that deleted prose does not read as less code.  Each metric
gets a claim verdict, the rule a claimed gain must pass:

* ``claim_met``: the working tree won at least nine tenths of the pairs
  (ties count for neither side) and its median beats the parent's by more
  than the parent's quartile spread (``median_gain_over_parent_iqr``).

Each metric that declares a ``bound`` also gets a no-regression verdict:

* ``regressed``: the working tree's median is worse than the parent's by
  more than ``bound`` times the parent's median;
* ``unresolved``: the parent's own quartile spread exceeds ``bound`` times
  its median, so its runs spread too widely to tell, unless every run of the
  working tree beats every run of the parent.

Each workload also gets ``failures``: for each side, the totals of
``attempted`` and ``failed`` operations over its runs, ``failed_share``
(failed over attempted) and ``all_correct`` (every run passed its output
checks), and the verdict ``more_failed``, true when the working tree's failed
share exceeds the parent's.

Standard library only; numpy is asked about in a child process.
"""

import argparse
import ast
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev, into):
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def src_lines(tree):
    """Lines of ``src/pegica/*.py`` in ``tree``, counted as ``wc -l`` does."""
    return sum(path.read_bytes().count(b"\n") for path in Path(tree).glob("src/pegica/*.py"))


_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def src_code_lines(tree):
    """Lines of ``src/pegica/*.py`` in ``tree`` that hold a token of code:
    blank, comment-only and docstring lines are not counted."""
    total = 0
    for path in Path(tree).glob("src/pegica/*.py"):
        source = path.read_text()
        docstrings = set()
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                    and ast.get_docstring(node, clean=False) is not None):
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        code = set()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type not in _NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
        total += len(code - docstrings)
    return total


def run_once(tree, workload, seed, seconds, trace=0):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {name: entry["value"] for name, entry in result.pop("metrics").items()}
    return dict(result, **metrics)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs, metrics):
    """Per-metric summary of paired runs; ``metrics`` maps each name to its
    ``BENCHMARK.json`` declaration (``better``, and ``bound`` if it has one)."""
    summary = {}
    for name, declared in metrics.items():
        better = declared["better"]
        sides = {side: [run[side][name] for run in runs] for side in ("parent", "change")}
        sign = 1 if better == "lower" else -1
        diffs = [sign * (p - c) for p, c in zip(sides["parent"], sides["change"])]
        entry = {"better": better}
        for side, values in sides.items():
            q1, median, q3 = quartiles(values)
            entry[side] = {"median": median, "q1": q1, "q3": q3}
        entry["change_wins"] = sum(d > 0 for d in diffs)
        entry["change_losses"] = sum(d < 0 for d in diffs)
        entry["ties"] = sum(d == 0 for d in diffs)
        gap = sign * (entry["parent"]["median"] - entry["change"]["median"])
        spread = entry["parent"]["q3"] - entry["parent"]["q1"]
        entry["median_gain_over_parent_iqr"] = gap > spread
        entry["claim_met"] = (10 * entry["change_wins"] >= 9 * len(diffs)
                              and entry["median_gain_over_parent_iqr"])
        if "bound" in declared:
            tolerance = declared["bound"] * abs(entry["parent"]["median"])
            entry["regressed"] = -gap > tolerance
            every_run_beats = all(sign * (p - c) > 0
                                  for p in sides["parent"] for c in sides["change"])
            entry["unresolved"] = spread > tolerance and not every_run_beats
        summary[name] = entry
    return summary


def failures(runs):
    """Per side, the failed share of the operations attempted over all runs,
    and whether every run was correct; ``more_failed`` compares the shares."""
    entry = {}
    for side in ("parent", "change"):
        attempted = sum(run[side]["attempted"] for run in runs)
        failed = sum(run[side]["failed"] for run in runs)
        entry[side] = {"attempted": attempted, "failed": failed,
                       "failed_share": failed / attempted,
                       "all_correct": all(run[side]["correct"] is True for run in runs)}
    entry["more_failed"] = entry["change"]["failed_share"] > entry["parent"]["failed_share"]
    return entry


def machine():
    probe = ("import json, numpy; c = numpy.show_config(mode='dicts');"
             "b = c['Build Dependencies']['blas'];"
             "print(json.dumps({'numpy': numpy.__version__,"
             " 'blas': f\"{b.get('name')} {b.get('version')}\"}))")
    facts = json.loads(subprocess.run([sys.executable, "-c", probe], check=True,
                                      capture_output=True, text=True).stdout)
    return dict(
        cpu_count=os.cpu_count(),
        usable_cpus=len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        machine=platform.machine(),
        python=platform.python_version(),
        OPENBLAS_NUM_THREADS=os.environ.get("OPENBLAS_NUM_THREADS"),
        # set, every fresh interpreter compiles pegica from source on import
        PYTHONDONTWRITEBYTECODE=os.environ.get("PYTHONDONTWRITEBYTECODE"),
        **facts,
    )


def parse_workload(text):
    name, _, seeds = text.partition(":")
    if not name or not seeds:
        raise argparse.ArgumentTypeError(f"expected NAME:SEED,SEED,..., got {text!r}")
    return name, [int(s) for s in seeds.split(",")]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workload", type=parse_workload, action="append", required=True,
                        help="NAME:SEED,SEED,... (one pair per seed; repeatable)")
    parser.add_argument("--parent", default="HEAD", help="commit to compare against")
    parser.add_argument("--trace", action="store_true",
                        help="also run each side with --trace 1 and summarize the layers")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in declared["end_to_end"]}
    layers = {m["name"]: m for m in declared["per_layer"]}
    parent = git("rev-parse", args.parent)
    report = {
        "tag": args.tag,
        "parent": parent,
        "change": {"base": git("rev-parse", "HEAD"),
                   "uncommitted": bool(git("status", "--porcelain", "--untracked-files=no"))},
        "command": "python3 perfbench/run.py --workload NAME --seed SEED --seconds SECONDS",
        "seconds": args.seconds,
        "machine": machine(),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_tree:
        extract(parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        report["src_lines"] = {side: src_lines(tree) for side, tree in trees.items()}
        report["src_code_lines"] = {side: src_code_lines(tree) for side, tree in trees.items()}
        for workload, seeds in args.workload:
            runs = []
            for pair, seed in enumerate(seeds):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                run = {"pair": pair, "seed": seed, "first": order[0]}
                for side in order:
                    run[side] = run_once(trees[side], workload, seed, args.seconds)
                if args.trace:
                    run["traced"] = {side: run_once(trees[side], workload, seed, args.seconds,
                                                    trace=1) for side in order}
                print(f"{workload} pair {pair} seed {seed}: " + ", ".join(
                    f"{side} op_s {run[side]['op_s']:.4g}" for side in ("parent", "change")),
                    file=sys.stderr, flush=True)
                runs.append(run)
            entry = report["workloads"][workload] = {
                "seeds": seeds, "runs": runs, "summary": summarize(runs, metrics),
                "failures": failures(runs)}
            if args.trace:
                entry["per_layer"] = summarize([run["traced"] for run in runs], layers)
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(out)


if __name__ == "__main__":
    main()
