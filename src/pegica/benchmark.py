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
from dataclasses import dataclass, fields, replace

import numpy as np

from . import demix as dx
from .cumulants import CumulantOracle, build_C, center
from .errors import PartialRecoveryError, PegicaError
from .linalg import to_db
from .matio import read_table, write_table
from .recovery import IterationConfig, pegi_full
from .simulate import (
    GroundTruthModel,
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

ALGORITHMS = ("pegi_sinr", "pegi_pinv", "oracle_ainv", "oracle_sinropt")
PANELS = {"paper": default_source_panel, "finite_k4": finite_kurtosis_panel}

BENCHMARK_HEADER = (
    "algorithm",
    "N",
    "p",
    "trial",
    "seed",
    "mean_sinr_db",
    "mean_sinr_loss_db",
    "max_column_angle_deg",
    "runtime_ms",
    "status",
)


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
    max_iters: int = 100
    max_restarts: int = 10
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
        def num(x):
            return repr(float(x))

        return (
            self.algorithm,
            str(self.N),
            repr(float(self.p)),
            str(self.trial),
            str(self.seed),
            num(self.mean_sinr_db),
            num(self.mean_sinr_loss_db),
            num(self.max_column_angle_deg),
            num(self.runtime_ms),
            self.status,
        )


def _trial_seed(master_seed, trial):
    # stable per-trial seed recorded in the output rows
    return int(stream(master_seed, "starts", trial, 0).integers(0, 2**63 - 1))


def _estimate_and_match(config: RunConfig, model, X_samples, iter_seed):
    # the cell's one estimate, matched once to the true columns
    cfg = IterationConfig(
        epsilon=config.epsilon,
        max_iters=config.max_iters,
        max_restarts=config.max_restarts,
        rng_seed=iter_seed,
    )
    oracle = CumulantOracle(X_samples)
    est = pegi_full(build_C(oracle), oracle, config.m, cfg)
    perm, _, angles = dx.match_columns(est.A_hat, model.A)
    return est.A_hat, perm, float(angles.max())


def run_trial(model, X_samples, algorithm, matched=None):
    """Score one algorithm on one drawn data set.

    ``matched`` is the cell's estimate ``(A_hat, permutation, max angle)``,
    which the ``pegi_*`` algorithms share.  Returns the mean SINR and mean
    SINR loss in dB and the max column angle in degrees.  Raises the
    underlying error on failure; the sweep wrapper converts those into
    status rows.
    """
    perm, max_angle = None, 0.0
    if algorithm.startswith("pegi"):
        A_hat, perm, max_angle = matched
        if algorithm == "pegi_sinr":
            B = dx.sinr_optimal_demix(A_hat, dx.sample_cov(X_samples)).B
        else:
            B = dx.pinv_demix(A_hat).B
    elif algorithm == "oracle_ainv":
        B = dx.pinv_demix(model.A).B
    elif algorithm == "oracle_sinropt":
        B = dx.sinr_optimal_demix(model.A, dx.analytic_cov(model)).B
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    sinr, loss_db = dx.sinr_loss(B, model, perm)
    return float(np.array([to_db(s) for s in sinr]).mean()), float(loss_db.mean()), max_angle


def _attempt(fn, *args):
    # a failure becomes a status instead of aborting the sweep
    try:
        return fn(*args), "ok"
    except PartialRecoveryError:
        return None, "partial"
    except PegicaError:
        return None, "error"


def run_benchmark(config: RunConfig):
    """Execute the full sweep; returns per-trial rows plus aggregates.

    Per-trial failures (e.g. partial recovery on pathological data) are
    recorded in the row's status column and never abort the sweep.  The
    ``pegi_*`` algorithms of one cell share one estimate, matched once to
    the true columns, and with it its status; each of their rows counts
    the estimate's time in its runtime.
    Rows come back sorted by (algorithm, N, p, trial) with aggregate rows
    after the per-trial rows of their cell.
    """
    def ms_since(start):
        return (time.perf_counter() - start) * 1e3 if config.timing else 0.0

    rows = []
    estimates = any(a.startswith("pegi") for a in config.algorithms)
    for trial in range(config.trials):
        seed = _trial_seed(config.seed, trial)
        panel = PANELS[config.panel](config.m)
        A = random_mixing(config.n, config.m, config.cond, stream(config.seed, "mixing", trial))
        for ip, p in enumerate(config.noise_powers):
            model = GroundTruthModel(A=A, sources=tuple(panel), Sigma=noise_cov(A, p), noise_power=p)
            for iN, N in enumerate(config.samples):
                batch = draw_batch(model, N, seed=int(
                    stream(config.seed, "sources", trial, ip, iN).integers(0, 2**63 - 1)
                ))
                X_samples = center(batch.X)
                matched, est_status, est_ms = None, "ok", 0.0
                if estimates:
                    start = time.perf_counter()
                    matched, est_status = _attempt(
                        _estimate_and_match, config, model, X_samples,
                        seed ^ (ip << 8) ^ (iN << 4),
                    )
                    est_ms = ms_since(start)
                for algorithm in config.algorithms:
                    start = time.perf_counter()
                    pegi = algorithm.startswith("pegi")
                    if pegi and matched is None:
                        values, status = None, est_status
                    else:
                        values, status = _attempt(run_trial, model, X_samples, algorithm, matched)
                    mean_db, mean_loss, max_angle = values or (float("nan"),) * 3
                    rows.append(BenchmarkRow(
                        algorithm=algorithm,
                        N=N,
                        p=p,
                        trial=str(trial),
                        seed=str(seed),
                        mean_sinr_db=mean_db,
                        mean_sinr_loss_db=mean_loss,
                        max_column_angle_deg=max_angle,
                        runtime_ms=ms_since(start) + (est_ms if pegi else 0.0),
                        status=status,
                    ))
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
    header, raw = read_table(path)
    if tuple(header) != BENCHMARK_HEADER:
        raise ValueError(f"{path}: unexpected benchmark header {header}")
    rows = []
    for cells in raw:
        rows.append(BenchmarkRow(
            algorithm=cells[0],
            N=int(cells[1]),
            p=float(cells[2]),
            trial=cells[3],
            seed=cells[4],
            mean_sinr_db=float(cells[5]),
            mean_sinr_loss_db=float(cells[6]),
            max_column_angle_deg=float(cells[7]),
            runtime_ms=float(cells[8]),
            status=cells[9],
        ))
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


def config_from_mapping(mapping, base: RunConfig = None):
    """Build a RunConfig from string key=value pairs (config file or flags).

    List-valued keys use comma syntax, e.g. ``samples=10000,100000``.
    """
    base = base or RunConfig()
    kwargs = {}
    valid = {f.name for f in fields(RunConfig)}
    for key, value in mapping.items():
        if value is None:
            continue
        if key not in valid:
            raise ValueError(f"unknown config key {key!r}")
        if key in ("samples", "noise_powers", "algorithms"):
            if isinstance(value, str):
                value = [v for v in value.split(",") if v]
            if key == "samples":
                value = tuple(int(float(v)) for v in value)
            elif key == "noise_powers":
                value = tuple(float(v) for v in value)
            else:
                value = tuple(str(v).strip() for v in value)
        elif key in ("n", "m", "trials", "seed", "max_iters", "max_restarts"):
            value = int(value)
        elif key in ("epsilon", "cond"):
            value = float(value)
        elif key == "timing":
            if isinstance(value, str):
                value = value.strip().lower() in ("1", "true", "yes", "on")
        else:
            value = str(value)
        kwargs[key] = value
    return replace(base, **kwargs)
