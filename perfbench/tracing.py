"""Timing shims around the public functions of ``pegica``, for traced runs.

A shim replaces a function by name in every ``pegica`` module that holds
it, because ``benchmark`` and ``cli`` bind their imports by name
(``from .recovery import pegi_full``); methods are replaced on their class.
Each call records a span ``(name, start, end, parent, phase, extra)`` in
memory; ``extra`` carries a count taken at the call (bytes, columns, rows).
Calls made inside a ``demix.score`` span are not recorded on their own, so
scoring's internal use of ``sinr_optimal_demix`` does not count as building
a demixer.  Untraced runs never import this module.
"""

import functools
import importlib
import json
import os
import sys
import time

import numpy as np

NAME, START, END, PARENT, PHASE, EXTRA = range(6)


def _x_bytes(args, result, error):
    return args[0].samples.data.nbytes


def _columns_found(args, result, error):
    est = result if error is None else getattr(error, "estimate", None)
    return est.columns_found if est is not None else 0


def _file_bytes(args, result, error):
    return os.path.getsize(args[0]) if error is None else 0


def _sweep_size(args, result, error):
    config = args[0]
    cells = config.trials * len(config.samples) * len(config.noise_powers)
    rows = sum(1 for r in result if r.trial != "mean") if error is None else 0
    return [rows, cells]


# (module, attribute, span name, extra); "Class.method" attributes patch the class
SHIMS = (
    ("pegica.simulate", "draw_batch", "simulate.draw_batch", None),
    ("pegica.cumulants", "center", "cumulants.center", None),
    ("pegica.cumulants", "build_C", "cumulants.build_C", None),
    ("pegica.cumulants", "EmpiricalCumulantOracle.grad_f", "cumulants.grad_f", _x_bytes),
    ("pegica.cumulants", "EmpiricalCumulantOracle.kurtosis_z_score", "cumulants.kurtosis_z", None),
    ("pegica.recovery", "pegi_full", "recovery.pegi_full", _columns_found),
    ("pegica.recovery", "recover_column", "recovery.start", None),
    ("pegica.demix", "sample_cov", "demix.sample_cov", None),
    ("pegica.demix", "sinr_optimal_demix", "demix.sinr_optimal_demix", None),
    ("pegica.demix", "DemixMatrix.apply", "demix.apply", None),
    ("pegica.demix", "match_columns", "demix.match_columns", None),
    ("pegica.demix", "sinr_k", "demix.score", None),
    ("pegica.demix", "optimal_sinr", "demix.score", None),
    ("pegica.demix", "sinr_loss", "demix.score", None),
    ("pegica.matio", "write_matrix_csv", "matio.write_matrix_csv", _file_bytes),
    ("pegica.matio", "parse_matrix_csv", "matio.parse_matrix_csv", _file_bytes),
    ("pegica.benchmark", "run_benchmark", "benchmark.run_benchmark", _sweep_size),
    ("pegica.cli", "cmd_simulate", "cli.simulate", None),
    ("pegica.cli", "cmd_estimate", "cli.estimate", None),
    ("pegica.cli", "cmd_demix", "cli.demix", None),
)
OPAQUE = {"demix.score"}
ORACLE = {"cumulants.grad_f", "cumulants.kurtosis_z"}


class Tracer:
    """Collects spans from the shims it installs; ``phase`` tags new spans."""

    def __init__(self):
        self.spans = []
        self.phase = "op"
        self._stack = []
        self._undo = []

    def _shim(self, name, fn, extra):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if stack and spans[stack[-1]][NAME] in OPAQUE:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.phase, None]
            stack.append(len(spans))
            spans.append(span)
            result = error = None
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if extra is not None:
                    span[EXTRA] = extra(args, result, error)

        return shim

    def install(self):
        for module_name, attr, name, extra in SHIMS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._replace(cls, meth, self._shim(name, getattr(cls, meth), extra))
                continue
            original = getattr(module, attr)
            shim = self._shim(name, original, extra)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "pegica" and getattr(mod, attr, None) is original:
                    self._replace(mod, attr, shim)

    def _replace(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)

    def extend(self, spans):
        """Append spans recorded by another process."""
        offset = len(self.spans)
        for span in spans:
            span = list(span)
            if span[PARENT] >= 0:
                span[PARENT] += offset
            self.spans.append(span)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, rounds, setups):
    """Per-layer metrics, per operation round plus one set-up.

    Spans of the ``setup`` phase are divided by ``setups`` and spans of the
    ``op`` phase by ``rounds``, so a figure reads as the cost of one set-up
    plus one round whatever the run length.
    """
    time_s, calls, extra = {}, {}, {}
    oracle_in_pegi_s = grad_f_in_pegi = estimates = 0.0
    for span in spans:
        name = span[NAME]
        weight = 1.0 / (setups if span[PHASE] == "setup" else rounds)
        dt = (span[END] - span[START]) * weight
        time_s[name] = time_s.get(name, 0.0) + dt
        calls[name] = calls.get(name, 0.0) + weight
        if span[EXTRA] is not None:
            extra[name] = extra.get(name, 0.0) + np.asarray(span[EXTRA], dtype=float) * weight
        ancestors = set()
        parent = span[PARENT]
        while parent >= 0:
            ancestors.add(spans[parent][NAME])
            parent = spans[parent][PARENT]
        if name in ORACLE and "recovery.pegi_full" in ancestors:
            oracle_in_pegi_s += dt
            grad_f_in_pegi += weight if name == "cumulants.grad_f" else 0.0
        if name == "recovery.pegi_full" and "benchmark.run_benchmark" in ancestors:
            estimates += weight

    def t(name):
        return time_s.get(name, 0.0)

    def n(name):
        return calls.get(name, 0.0)

    def x(name):
        return float(extra.get(name, 0.0))

    columns = x("recovery.pegi_full")
    rows, cells = extra.get("benchmark.run_benchmark", (0.0, 0.0))
    return {
        "cumulants.grad_f_calls": (n("cumulants.grad_f"), "count"),
        "cumulants.grad_f_s": (t("cumulants.grad_f"), "s"),
        "cumulants.grad_f_ms_per_call": (1e3 * _ratio(t("cumulants.grad_f"), n("cumulants.grad_f")), "ms"),
        "cumulants.grad_f_GBps_computed": (_ratio(x("cumulants.grad_f"), t("cumulants.grad_f")) / 1e9, "GB/s"),
        "cumulants.kurtosis_z_calls": (n("cumulants.kurtosis_z"), "count"),
        "cumulants.kurtosis_z_s": (t("cumulants.kurtosis_z"), "s"),
        "cumulants.center_s": (t("cumulants.center"), "s"),
        "cumulants.build_C_s": (t("cumulants.build_C"), "s"),
        "recovery.pegi_full_s": (t("recovery.pegi_full"), "s"),
        "recovery.self_s": (t("recovery.pegi_full") - oracle_in_pegi_s, "s"),
        "recovery.starts": (n("recovery.start"), "count"),
        "recovery.columns_found": (columns, "count"),
        "recovery.accept_ratio": (_ratio(columns, n("recovery.start")), "ratio"),
        "recovery.iterations_per_column": (_ratio(grad_f_in_pegi, columns), "count"),
        "simulate.draw_batch_s": (t("simulate.draw_batch"), "s"),
        "demix.sample_cov_s": (t("demix.sample_cov"), "s"),
        "demix.sinr_optimal_demix_s": (t("demix.sinr_optimal_demix"), "s"),
        "demix.apply_s": (t("demix.apply"), "s"),
        "demix.match_columns_s": (t("demix.match_columns"), "s"),
        "demix.score_s": (t("demix.score"), "s"),
        "matio.write_matrix_csv_s": (t("matio.write_matrix_csv"), "s"),
        "matio.parse_matrix_csv_s": (t("matio.parse_matrix_csv"), "s"),
        "matio.bytes_written": (x("matio.write_matrix_csv"), "B"),
        "matio.bytes_read": (x("matio.parse_matrix_csv"), "B"),
        "matio.write_MBps": (_ratio(x("matio.write_matrix_csv"), t("matio.write_matrix_csv")) / 1e6, "MB/s"),
        "matio.read_MBps": (_ratio(x("matio.parse_matrix_csv"), t("matio.parse_matrix_csv")) / 1e6, "MB/s"),
        "benchmark.run_benchmark_s": (t("benchmark.run_benchmark"), "s"),
        "benchmark.rows": (float(rows), "count"),
        "benchmark.estimates": (estimates, "count"),
        "benchmark.estimates_per_cell": (_ratio(estimates, float(cells)), "count"),
        "cli.simulate_s": (t("cli.simulate"), "s"),
        "cli.estimate_s": (t("cli.estimate"), "s"),
        "cli.demix_s": (t("cli.demix"), "s"),
    }
