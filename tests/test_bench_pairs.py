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


_bench_pairs = _load_bench_pairs()
summarize, failures = _bench_pairs.summarize, _bench_pairs.failures


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


# ten parent runs 1.0 .. 1.9: median 1.45, inclusive quartiles 1.225 and 1.675
_PARENT = [1.0 + 0.1 * k for k in range(10)]


def _claim(change, better="lower"):
    return summarize(_runs(_PARENT, change), {"op_s": {"better": better}})["op_s"]


def test_nine_wins_inside_the_parent_spread_is_no_claim():
    entry = _claim([p - 0.1 for p in _PARENT[:9]] + [_PARENT[9] + 0.1])
    assert entry["change_wins"] == 9
    assert entry["median_gain_over_parent_iqr"] is False
    assert entry["claim_met"] is False


def test_ten_wins_beyond_the_parent_spread_is_a_claim():
    entry = _claim([p - 0.5 for p in _PARENT])
    assert entry["change_wins"] == 10
    assert entry["median_gain_over_parent_iqr"] is True
    assert entry["claim_met"] is True


@pytest.mark.parametrize("lost, tied, claim_met", [
    (1, 0, True), (2, 0, False), (0, 1, True), (0, 2, False), (1, 1, False),
], ids=["nine_won_one_lost", "eight_won", "nine_won_one_tie", "eight_won_two_ties",
        "eight_won_one_tie"])
def test_a_claim_needs_nine_tenths_of_the_pairs(lost, tied, claim_met):
    # every gap beyond the parent's spread; ties count for neither side
    change = [p - 1.0 for p in _PARENT]
    for k in range(lost):
        change[k] = _PARENT[k] + 0.1
    for k in range(lost, lost + tied):
        change[k] = _PARENT[k]
    entry = _claim(change)
    assert (entry["change_losses"], entry["ties"]) == (lost, tied)
    assert entry["median_gain_over_parent_iqr"] is True
    assert entry["claim_met"] is claim_met


def test_a_claim_on_a_higher_is_better_metric():
    assert _claim([p + 0.5 for p in _PARENT], better="higher")["claim_met"] is True
    assert _claim([p - 0.5 for p in _PARENT], better="higher")["claim_met"] is False


def _outcomes(parent, change):
    # each side's runs as (attempted, failed, correct)
    return [{side: dict(zip(("attempted", "failed", "correct"), run))
             for side, run in zip(("parent", "change"), pair)}
            for pair in zip(parent, change)]


def test_failures_totals_each_side_and_flags_a_larger_failed_share():
    entry = failures(_outcomes([(80, 0, True)] * 3,
                               [(80, 0, True), (80, 2, True), (80, 0, False)]))
    assert entry["parent"] == {"attempted": 240, "failed": 0, "failed_share": 0.0,
                               "all_correct": True}
    assert entry["change"] == {"attempted": 240, "failed": 2, "failed_share": 2 / 240,
                               "all_correct": False}
    assert entry["more_failed"] is True


def test_more_failed_compares_shares_not_counts():
    # the change fails more operations, but of more attempted
    entry = failures(_outcomes([(100, 10, True)] * 2, [(200, 12, True)] * 2))
    assert entry["change"]["failed"] > entry["parent"]["failed"]
    assert entry["more_failed"] is False
    assert failures(_outcomes([(50, 5, True)], [(50, 5, True)]))["more_failed"] is False


def test_machine_records_whether_bytecode_is_cached(monkeypatch):
    # without cached bytecode every import of pegica compiles it, which
    # shows in sweep's setup_s
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert _load_bench_pairs().machine()["PYTHONDONTWRITEBYTECODE"] == "1"


def test_src_code_lines_leave_out_blank_comment_and_docstring_lines(tmp_path):
    package = tmp_path / "src" / "pegica"
    package.mkdir(parents=True)
    (package / "a.py").write_text(
        '"""Module\n\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "def f(x):  # a trailing comment\n"
        '    """One line."""\n'
        '    text = """a string\n'
        'of two lines"""\n'
        "    return (x +\n"
        "            1)\n"
    )
    (package / "notes.txt").write_text("x = 1\n")
    assert _bench_pairs.src_lines(tmp_path) == 11
    # the def, both lines of the string and both of the return
    assert _bench_pairs.src_code_lines(tmp_path) == 5


def test_the_report_records_src_lines_of_both_trees(tmp_path, monkeypatch):
    # main() on a stand-in repository: the parent holds 2 lines of
    # src/pegica/*.py, the working tree 4 (files of other kinds do not count),
    # of which 2 and 1 hold code
    bench_pairs = _load_bench_pairs()
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    package = tmp_path / "src" / "pegica"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n")
    (package / "b.py").write_text("\n\n\n")
    (package / "notes.txt").write_text("not counted\n")

    def extract(rev, into):
        parent = Path(into) / "src" / "pegica"
        parent.mkdir(parents=True)
        (parent / "a.py").write_text("x = 1\ny = 2\n")

    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "")
    monkeypatch.setattr(bench_pairs, "extract", extract)
    monkeypatch.setattr(bench_pairs, "machine", dict)
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args, **kwargs: dict(
        dict.fromkeys(names, 1.0), correct=True, attempted=4, failed=1))
    bench_pairs.main(["--tag", "t", "--seconds", "0", "--workload", "sweep:0"])
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert report["src_lines"] == {"parent": 2, "change": 4}
    assert report["src_code_lines"] == {"parent": 2, "change": 1}
    assert report["workloads"]["sweep"]["failures"]["change"]["failed_share"] == 0.25
