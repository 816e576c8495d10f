"""The no-regression verdict of ``tools/bench_pairs.py`` on synthetic runs.

The script is loaded by path; no benchmark is run.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


summarize = _load_bench_pairs().summarize


def _runs(parent, change, name="op_s"):
    return [{"parent": {name: p}, "change": {name: c}} for p, c in zip(parent, change)]


def _verdict(parent, change, better="lower", bound=0.25):
    entry = summarize(_runs(parent, change), {"op_s": {"better": better, "bound": bound}})
    return entry["op_s"]


@pytest.mark.parametrize("better, parent, change, regressed", [
    ("lower", [1.0] * 3, [1.2] * 3, False),
    ("lower", [1.0] * 3, [1.3] * 3, True),
    ("lower", [1.0] * 3, [0.5] * 3, False),
    ("higher", [10.0] * 3, [8.0] * 3, False),
    ("higher", [10.0] * 3, [7.0] * 3, True),
    ("higher", [10.0] * 3, [12.0] * 3, False),
], ids=["lower_inside", "lower_worse", "lower_better",
        "higher_inside", "higher_worse", "higher_better"])
def test_regressed_compares_medians_against_the_bound(better, parent, change, regressed):
    entry = _verdict(parent, change, better)
    assert entry["regressed"] is regressed
    # the parent's runs agree, so the comparison is resolved either way
    assert entry["unresolved"] is False


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # inclusive quartiles 1.375 and 2.125: a spread of 0.75 against a
    # tolerance of 0.25 * 1.75 = 0.4375
    parent = [1.0, 1.5, 2.0, 2.5]
    entry = _verdict(parent, [1.8, 1.2, 2.2, 1.0])
    assert entry["parent"]["q3"] - entry["parent"]["q1"] == pytest.approx(0.75)
    assert entry["unresolved"] is True and entry["regressed"] is False
    # unless every run of the change beats every run of the parent
    assert _verdict(parent, [0.5, 0.6, 0.7, 0.8])["unresolved"] is False
    assert _verdict(parent, [0.5, 0.6, 0.7, 1.0])["unresolved"] is True


def test_a_metric_without_a_bound_gets_no_verdict():
    entry = summarize(_runs([1.0, 2.0], [1.5, 2.5]), {"op_s": {"better": "lower"}})["op_s"]
    assert "regressed" not in entry and "unresolved" not in entry
    assert entry["change_losses"] == 2


def test_every_end_to_end_metric_of_the_benchmark_gets_a_verdict():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    metrics = {m["name"]: m for m in declared}
    runs = [{side: {name: 1.0 + 0.01 * k for name in metrics} for side in ("parent", "change")}
            for k in range(3)]
    summary = summarize(runs, metrics)
    assert set(summary) == set(metrics)
    for name, entry in summary.items():
        assert entry["regressed"] is False and entry["unresolved"] is False, name
        assert entry["ties"] == 3
