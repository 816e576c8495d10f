"""Seeded Monte-Carlo sweep over sample sizes, noise powers and algorithms.

Each trial owns one random mixing matrix; for every (noise power, sample
size) cell one data set is drawn from it and *shared* by all algorithms,
which are then scored analytically against the model:

* ``pegi_sinr``   — estimate columns from data, demix with
  ``A_hat^H cov_hat^+``;
* ``pegi_pinv``   — same estimate, demix with ``pinv(A_hat)``;
* ``oracle_ainv`` — demix with the pseudoinverse of the *true* matrix;
* ``oracle_sinropt`` — demix with the true ``A^H cov(X)^+`` (defines zero
  SINR loss).

Everything is a pure function of the RunConfig, master seed included;
runtimes are measured only when ``timing`` is enabled, since wall-clock
values are the one column that cannot be reproducible.
"""

import time
from dataclasses import dataclass, fields

import numpy as np

from . import demix as dx
from .cumulants import CumulantOracle, build_C, center
from .errors import MatrixFormatError, PartialRecoveryError, PegicaError
from .linalg import to_db
from .matio import read_table, write_table
from .recovery import IterationConfig, pegi_full
from .simulate import (
    GroundTruthModel,
    check_noise_power,
    default_source_panel,
    draw_batch,
    finite_kurtosis_panel,
    noise_cov,
    random_mixing,
    stream,
)

__all__ = [
    "ALGORITHMS",
    "PANELS",
    "RunConfig",
    "BenchmarkRow",
    "run_benchmark",
    "aggregate_rows",
    "write_benchmark_csv",
    "read_benchmark_csv",
    "summarize",
    "BENCHMARK_HEADER",
]

# algorithm -> demixer B from (model, samples, estimated columns); the
# pegi_* ones demix with the cell's estimate, the oracle_* ones with the truth
DEMIXERS = {
    "pegi_sinr": lambda model, samples, A_hat: dx.sinr_optimal_demix(
        A_hat, dx.sample_cov(samples)).B,
    "pegi_pinv": lambda model, samples, A_hat: dx.pinv_demix(A_hat).B,
    "oracle_ainv": lambda model, samples, A_hat: dx.pinv_demix(model.A).B,
    "oracle_sinropt": lambda model, samples, A_hat: dx.sinr_optimal_demix(
        model.A, dx.analytic_cov(model)).B,
}
ALGORITHMS = tuple(DEMIXERS)
_ESTIMATED = frozenset(a for a in ALGORITHMS if a.startswith("pegi_"))
PANELS = {"paper": default_source_panel, "finite_k4": finite_kurtosis_panel}


@dataclass(frozen=True)
class RunConfig:
    """Sweep settings; defaults are desk scale (minutes, not hours)."""

    n: int = 8
    m: int = 8
    samples: tuple = (10_000, 100_000, 1_000_000)
    noise_powers: tuple = (0.0, 0.1, 0.67)
    trials: int = 20
    seed: int = 0
    panel: str = "paper"
    cond: float = 3.0
    algorithms: tuple = ("pegi_sinr", "oracle_ainv", "oracle_sinropt")
    epsilon: float = 1e-6
    timing: bool = True

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(int(N) for N in self.samples))
        object.__setattr__(self, "noise_powers", tuple(float(p) for p in self.noise_powers))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        if not self.samples or not self.noise_powers or not self.algorithms:
            raise ValueError("sweep lists must be nonempty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.panel not in PANELS:
            raise ValueError(f"unknown panel {self.panel!r}; choose from {sorted(PANELS)}")
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {algo!r}; choose from {ALGORITHMS}")
        # refused here, before the first cell runs, by the checks that own them
        for p in self.noise_powers:
            check_noise_power(p)
        IterationConfig(epsilon=self.epsilon)


@dataclass
class BenchmarkRow:
    algorithm: str
    N: int
    p: float
    trial: str  # trial index, or "mean" for aggregates
    seed: str
    mean_sinr_db: float
    mean_sinr_loss_db: float
    max_column_angle_deg: float
    runtime_ms: float
    status: str = "ok"

    def as_csv_cells(self):
        values = (getattr(self, f.name) for f in fields(self))
        return tuple(repr(float(v)) if f.type is float else str(v)
                     for f, v in zip(fields(self), values))


BENCHMARK_HEADER = tuple(f.name for f in fields(BenchmarkRow))


def _trial_seed(master_seed, trial):
    # stable per-trial seed recorded in the output rows
    return int(stream(master_seed, "starts", trial, 0).integers(0, 2**63 - 1))


def _status(error):
    # a failure becomes a status instead of aborting the sweep
    return "partial" if isinstance(error, PartialRecoveryError) else "error"


def _run_cell(config: RunConfig, model, N, data_seed, iter_seed, **labels):
    """Draw one cell's data, estimate once and score every algorithm on it.

    Returns one row per algorithm, labelled with ``N`` and ``labels``.  The
    ``pegi_*`` algorithms share the estimate, matched once to the true
    columns, and with it its status; each of their rows counts the
    estimate's time in its runtime.  A :class:`PegicaError` from the
    estimate becomes their status.  The samples live only in this call, so
    a sweep holds one cell's data at a time.
    """
    def ms_since(start):
        return (time.perf_counter() - start) * 1e3 if config.timing else 0.0

    samples = center(draw_batch(model, N, seed=data_seed).X)
    matched, est_status, est_ms = None, "ok", 0.0
    if not _ESTIMATED.isdisjoint(config.algorithms):
        start = time.perf_counter()
        try:
            oracle = CumulantOracle(samples)
            est = pegi_full(build_C(oracle), oracle, config.m, IterationConfig(
                epsilon=config.epsilon, rng_seed=iter_seed))
            perm, _, angles = dx.match_columns(est.A_hat, model.A)
            matched = est.A_hat, perm, float(angles.max())
        except PegicaError as error:
            est_status = _status(error)
        est_ms = ms_since(start)
    rows = []
    for algorithm in config.algorithms:
        start = time.perf_counter()
        pegi = algorithm in _ESTIMATED
        values = (float("nan"),) * 3
        if matched is not None or not pegi:
            A_hat, perm, max_angle = matched if pegi else (None, None, 0.0)
            sinr, loss_db = dx.sinr_loss(DEMIXERS[algorithm](model, samples, A_hat), model, perm)
            values = float(to_db(sinr).mean()), float(loss_db.mean()), max_angle
        mean_db, mean_loss, max_angle = values
        rows.append(BenchmarkRow(
            algorithm=algorithm, N=N, **labels, mean_sinr_db=mean_db,
            mean_sinr_loss_db=mean_loss, max_column_angle_deg=max_angle,
            runtime_ms=ms_since(start) + (est_ms if pegi else 0.0),
            status=est_status if pegi else "ok",
        ))
    return rows


def run_benchmark(config: RunConfig):
    """Execute the full sweep; returns per-trial rows plus aggregates.

    Each (trial, noise power, sample size) cell is one :func:`_run_cell`
    call, which frees the cell's data before the next cell draws its own.
    Per-trial failures (e.g. partial recovery on pathological data) are
    recorded in the row's status column and never abort the sweep.
    Rows come back sorted by (algorithm, N, p, trial) with aggregate rows
    after the per-trial rows of their cell.
    """
    rows = []
    for trial in range(config.trials):
        seed = _trial_seed(config.seed, trial)
        panel = PANELS[config.panel](config.m)
        A = random_mixing(config.n, config.m, config.cond, stream(config.seed, "mixing", trial))
        for ip, p in enumerate(config.noise_powers):
            model = GroundTruthModel(A=A, sources=tuple(panel), Sigma=noise_cov(A, p), noise_power=p)
            for iN, N in enumerate(config.samples):
                data_seed = stream(config.seed, "sources", trial, ip, iN).integers(0, 2**63 - 1)
                rows += _run_cell(config, model, N, int(data_seed), seed ^ (ip << 8) ^ (iN << 4),
                                  p=p, trial=str(trial), seed=str(seed))
    rows.sort(key=lambda r: (r.algorithm, r.N, r.p, int(r.trial)))
    return rows + aggregate_rows(rows)


def aggregate_rows(rows):
    """Mean-over-trials row per (algorithm, N, p), flagged with trial='mean'.

    Only rows with status 'ok' enter the averages; the aggregate's status
    records how many did, as 'aggregate(k/t)'.
    """
    cells = {}
    for row in rows:
        if row.trial == "mean":
            continue
        cells.setdefault((row.algorithm, row.N, row.p), []).append(row)
    out = []
    for (algorithm, N, p), cell in sorted(cells.items()):
        ok = [r for r in cell if r.status == "ok"]
        if ok:
            mean = lambda attr: float(np.mean([getattr(r, attr) for r in ok]))  # noqa: E731
            values = (
                mean("mean_sinr_db"),
                mean("mean_sinr_loss_db"),
                mean("max_column_angle_deg"),
                mean("runtime_ms"),
            )
        else:
            values = (float("nan"),) * 4
        out.append(BenchmarkRow(
            algorithm=algorithm, N=N, p=p, trial="mean", seed="",
            mean_sinr_db=values[0], mean_sinr_loss_db=values[1],
            max_column_angle_deg=values[2], runtime_ms=values[3],
            status=f"aggregate({len(ok)}/{len(cell)})",
        ))
    return out


def write_benchmark_csv(path, rows):
    write_table(path, BENCHMARK_HEADER, [r.as_csv_cells() for r in rows])


def read_benchmark_csv(path):
    """Rows of a file written by :func:`write_benchmark_csv`.

    A wrong header or a cell that does not read as its column's type raises
    MatrixFormatError naming the file, and the row and column counted from 1.
    """
    header, raw = read_table(path)
    if tuple(header) != BENCHMARK_HEADER:
        raise MatrixFormatError(f"{path}: unexpected benchmark header {header}")
    rows = []
    for i, cells in enumerate(raw, start=1):
        values = []
        for j, (f, cell) in enumerate(zip(fields(BenchmarkRow), cells), start=1):
            try:
                values.append(f.type(cell))
            except ValueError:
                raise MatrixFormatError(f"{path}: row {i}, column {j} ({f.name}): "
                                        f"{cell!r} is not {f.type.__name__}") from None
        rows.append(BenchmarkRow(*values))
    return rows


def summarize(rows):
    """Aggregate per-trial rows into a plot-ready summary table.

    Returns (header, rows) with one line per (algorithm, N, p), projected
    from :func:`aggregate_rows`: the count of successful trials, the means
    over them, and the count of all trials last.
    """
    header = ("algorithm", "N", "p", "trials_ok", "mean_sinr_db",
              "mean_sinr_loss_db", "mean_max_column_angle_deg", "trials")
    out = []
    for agg in aggregate_rows(rows):
        ok, total = agg.status.removeprefix("aggregate(").removesuffix(")").split("/")
        out.append((agg.algorithm, str(agg.N), repr(float(agg.p)), ok,
                    repr(agg.mean_sinr_db), repr(agg.mean_sinr_loss_db),
                    repr(agg.max_column_angle_deg), total))
    return header, out


def _parse_value(value, default):
    # ``value`` as the type of ``default``; tuples take comma lists
    if isinstance(default, tuple):
        if isinstance(value, str):
            value = [v for v in value.split(",") if v]
        kind = type(default[0])
        # N values may be written like 2e3
        element = {int: lambda v: int(float(v)), str: lambda v: str(v).strip()}.get(kind, kind)
        return tuple(element(v) for v in value)
    if isinstance(default, bool) and isinstance(value, str):
        return value.strip().lower() in ("1", "true", "yes", "on")
    return type(default)(value)


def config_from_mapping(mapping):
    """Build a RunConfig from string key=value pairs (config file or flags).

    Keys are RunConfig's field names; each value takes the type of the
    field's default, and tuple fields use comma syntax, e.g.
    ``samples=10000,100000``.
    """
    defaults = {f.name: f.default for f in fields(RunConfig)}
    kwargs = {}
    for key, value in mapping.items():
        if value is None:
            continue
        if key not in defaults:
            raise ValueError(f"unknown config key {key!r}")
        kwargs[key] = _parse_value(value, defaults[key])
    return RunConfig(**kwargs)
