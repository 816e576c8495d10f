"""Tests of the benchmark itself: its SINR formula, its checks and its shims.

Run with ``python -m pytest perfbench`` from the repository root.  Each
check is shown to pass on a good input and to reject a deliberately wrong
one.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from checks import CheckFailed  # noqa: E402
from pegica import benchmark, demix, make_model  # noqa: E402
from pegica.matio import write_matrix_csv  # noqa: E402
from pegica.simulate import draw_batch  # noqa: E402


@pytest.fixture(scope="module")
def case():
    """A model, its data and a good estimate: true columns, rescaled,
    reordered and perturbed by 1 degree or so."""
    model = make_model(n=4, cond=3.0, noise_power=0.1, seed=3)
    batch = draw_batch(model, 200_000, seed=3)
    rng = np.random.default_rng(0)
    order = np.array([2, 0, 3, 1])
    A_hat = model.A[:, order] * np.array([2.0, -0.5, 1.5, -3.0]) + 0.01 * rng.standard_normal((4, 4))
    Xc = batch.X - batch.X.mean(axis=0)
    B = A_hat.T @ np.linalg.pinv(Xc.T @ Xc / Xc.shape[0])
    return dict(model=model, batch=batch, A_hat=A_hat, B_hat=np.linalg.pinv(A_hat), B=B,
                S_hat=Xc @ B.T, order=order)


def separation(case, **changes):
    args = dict(A=case["model"].A, Sigma=case["model"].Sigma, A_hat=case["A_hat"],
                B_hat=case["B_hat"], B=case["B"], S_hat=case["S_hat"], S=case["batch"].S)
    args.update(changes)
    return checks.check_separation(**args)


def test_sinr_formula_agrees_with_pegica():
    model = make_model(n=5, cond=3.0, noise_power=0.3, seed=7)
    B = np.random.default_rng(1).standard_normal((5, 5))
    cols = np.array([4, 2, 0, 1, 3])
    ours = checks.sinr(B, model.A, model.Sigma, cols)
    theirs = [demix.sinr_k(B[j], model, cols[j]) for j in range(5)]
    np.testing.assert_allclose(ours, theirs, rtol=1e-10)
    np.testing.assert_allclose(checks.optimal_sinr(model.A, model.Sigma),
                               demix.optimal_sinr(model), rtol=1e-10)


def test_good_estimate_passes(case):
    cols, angles = checks.match(case["A_hat"], case["model"].A)
    np.testing.assert_array_equal(cols, case["order"])
    assert angles.max() < 2.0
    assert 0.0 < separation(case) < 0.5


def test_random_estimate_is_rejected(case):
    A_rand = np.random.default_rng(5).standard_normal((4, 4))
    with pytest.raises(CheckFailed, match="column angle"):
        separation(case, A_hat=A_rand, B_hat=np.linalg.pinv(A_rand))


def test_permuted_demixer_rows_are_rejected(case):
    perm = [1, 0, 3, 2]
    with pytest.raises(CheckFailed):
        separation(case, B=case["B"][perm], S_hat=case["S_hat"][:, perm])


def test_permuted_outputs_are_rejected(case):
    with pytest.raises(CheckFailed, match="squared correlation"):
        separation(case, S_hat=case["S_hat"][:, [1, 0, 3, 2]])


def test_unscaled_rows_are_rejected(case):
    with pytest.raises(CheckFailed, match="diagonal"):
        separation(case, B_hat=2.0 * case["B_hat"])


def test_pseudoinverse_demixer_is_rejected(case):
    with pytest.raises(CheckFailed, match="pseudoinverse"):
        separation(case, B=case["B_hat"], S_hat=None)


def test_sinr_above_optimum_is_rejected(case):
    opt = checks.optimal_sinr(case["model"].A, case["model"].Sigma)
    checks.check_optimality(opt, opt)
    with pytest.raises(CheckFailed, match="optimum"):
        checks.check_optimality(opt * 1.001, opt)


def test_matrix_file_bit_for_bit(tmp_path, case):
    X = case["batch"].X[:500]
    path = tmp_path / "X.csv"
    write_matrix_csv(path, X)
    checks.check_matrix_file(path, X)
    lines = path.read_text().splitlines()

    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(CheckFailed):
        checks.check_matrix_file(path, X)
    path.write_text("500,4,real\n" + "\n".join(lines[2:]) + "\n")
    with pytest.raises(CheckFailed):
        checks.check_matrix_file(path, X)
    X_off = X.copy()
    X_off[17, 2] = np.nextafter(X_off[17, 2], np.inf)
    write_matrix_csv(path, X_off)
    with pytest.raises(CheckFailed, match="bit for bit"):
        checks.check_matrix_file(path, X)


def write_report(path, cols, sinr):
    lines = ["source,sinr,sinr_db,sinr_loss_db,estimate_row,phase,column_angle_deg"]
    for j, k in sorted(enumerate(cols), key=lambda jk: jk[1]):
        lines.append(f"{k},{float(sinr[j])!r},0.0,0.0,{j},1.0,0.0")
    path.write_text("\n".join(lines) + "\n")


def test_sinr_report(tmp_path):
    cols = np.array([2, 0, 1])
    sinr = np.array([3.0, 5.0, 7.0])
    path = tmp_path / "sinr_report.csv"
    write_report(path, cols, sinr)
    checks.check_sinr_report(path, cols, sinr)
    with pytest.raises(CheckFailed, match="SINR"):
        checks.check_sinr_report(path, cols, sinr * 1.01)
    write_report(path, np.array([0, 2, 1]), sinr)
    with pytest.raises(CheckFailed, match="matched"):
        checks.check_sinr_report(path, cols, sinr)


def sweep_rows():
    rows = []
    for trial in ("0", "1"):
        rows += [
            ("pegi_sinr", 1000, 0.1, trial, 0.02, 3.0, "ok"),
            ("pegi_pinv", 1000, 0.1, trial, 0.7, 3.0, "ok"),
            ("oracle_ainv", 1000, 0.1, trial, 0.6, 0.0, "ok"),
            ("oracle_sinropt", 1000, 0.1, trial, 0.0, 0.0, "ok"),
        ]
    return rows


def replace(rows, index, **fields):
    names = ("algorithm", "N", "p", "trial", "loss", "angle", "status")
    row = dict(zip(names, rows[index]))
    row.update(fields)
    return rows[:index] + [tuple(row[n] for n in names)] + rows[index + 1:]


def test_sweep_rows():
    rows = sweep_rows()
    assert checks.check_sweep_rows(rows, 8) == pytest.approx(0.6)
    nan = float("nan")
    partial = replace(replace(rows, 4, loss=nan, angle=nan, status="partial"),
                      5, loss=nan, angle=nan, status="partial")
    checks.check_sweep_rows(partial, 8)
    bad = {
        "rows": (rows[:-1], "per-trial rows"),
        "sinropt": (replace(rows, 3, loss=0.1), "oracle_sinropt"),
        "ainv": (replace(rows, 2, loss=0.0), "oracle_ainv"),
        "angle": (replace(rows, 1, angle=3.5), "column angles"),
        "status": (replace(rows, 1, loss=nan, angle=nan, status="partial"), "one estimate"),
        "pinv": (replace(rows, 0, loss=0.8), "pseudoinverse"),
    }
    for wrong, message in bad.values():
        with pytest.raises(CheckFailed, match=message):
            checks.check_sweep_rows(wrong, 8)


def test_shims_see_calls_bound_by_name():
    config = benchmark.RunConfig(n=3, m=3, samples=(5000,), noise_powers=(0.1,), trials=1,
                                 algorithms=("pegi_sinr", "pegi_pinv", "oracle_sinropt"),
                                 timing=False)
    original = benchmark.pegi_full
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert benchmark.pegi_full is not original
        rows = benchmark.run_benchmark(config)
    finally:
        tracer.uninstall()
    assert benchmark.pegi_full is original
    metrics = tracing.layer_metrics(tracer.spans, rounds=1, setups=1)
    value = {name: v for name, (v, _) in metrics.items()}
    assert value["benchmark.rows"] == 3
    assert value["benchmark.estimates"] == 2
    assert value["benchmark.estimates_per_cell"] == 2
    assert value["simulate.draw_batch_s"] > 0
    assert value["cumulants.grad_f_calls"] >= value["recovery.starts"] >= 3
    assert value["recovery.columns_found"] == 6
    assert 0.0 < value["recovery.self_s"] < value["recovery.pegi_full_s"]
    assert all(r.status == "ok" for r in rows if r.trial != "mean")


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "tall",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert out.returncode != 0
    assert "{" not in out.stdout
    assert "no pegica sources" in out.stderr
