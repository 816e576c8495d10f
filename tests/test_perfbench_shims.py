"""The benchmark's timing shims (``perfbench/tracing.py``) still find every
function they wrap, and a traced benchmark run still checks out, so the
benchmark cannot break on a renamed or deleted library name or a changed
signature.  The modules are loaded by path or run as a script; nothing
under ``perfbench/`` is changed.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from pegica.benchmark import RunConfig, run_benchmark

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def _holders(fn):
    return [mod for name, mod in list(sys.modules.items())
            if name.split(".")[0] == "pegica" and any(v is fn for v in vars(mod).values())]


def test_every_shim_target_resolves_and_is_restored():
    tracing = _load_tracing()
    targets = {(mod, attr): _resolve(mod, attr) for mod, attr, _, _ in tracing.SHIMS}
    holders = {key: _holders(fn) for key, fn in targets.items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (mod, attr), original in targets.items():
            assert _resolve(mod, attr).__wrapped__ is original, (mod, attr)
            if "." not in attr:
                for holder in holders[(mod, attr)]:
                    assert getattr(holder, attr).__wrapped__ is original, (holder.__name__, attr)
        # a traced sweep still sees matching and scoring
        run_benchmark(RunConfig(n=3, m=3, samples=(3000,), noise_powers=(0.1,), trials=1,
                                panel="finite_k4", algorithms=("pegi_sinr",), timing=False))
        names = {span[tracing.NAME] for span in tracer.spans}
        assert {"demix.match_columns", "demix.score", "recovery.pegi_full"} <= names
    finally:
        tracer.uninstall()
    for key, original in targets.items():
        assert _resolve(*key) is original, key


def test_traced_tall_run_is_correct():
    # one untimed round of the tall workload through every shim
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "tall", "--seed", "0",
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    # the per-layer time that draw_batch speedups are judged by
    assert result["metrics"]["simulate.draw_batch_s"]["value"] > 0
