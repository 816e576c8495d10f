"""Correctness checks for the benchmark, computed apart from ``pegica``.

Nothing here imports the package under test: matching uses scipy's
assignment solver, SINR comes from its closed form over ``(A, Sigma)`` with
unit-variance sources, and matrix files are parsed with numpy.  Every check
raises :class:`CheckFailed` with a message naming what went wrong.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment

# Largest column angle accepted for an estimate.  A random matrix, matched
# optimally to the benchmark's mixing matrices, never gets below 57 degrees
# (n=8) or 71 degrees (n=24); estimates sit below 2 degrees at N=1e6, below
# 5 degrees at N=2e5 and below 10 degrees in the sweep's N=1e4 cells.
MAX_ANGLE_DEG = 20.0
# |r^2 - SINR/(1+SINR)| accepted between a demixed row and its latent source.
CORRELATION_TOL = 0.02
# Relative slack for comparisons that hold exactly in exact arithmetic.
RTOL = 1e-9


class CheckFailed(AssertionError):
    """An output of the program failed a benchmark check."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def match(A_hat, A):
    """Match estimated columns to true ones by maximum total |cosine|.

    Returns ``(cols, angles_deg)``: ``cols[j]`` is the true source matched
    to ``A_hat[:, j]`` and ``angles_deg[j]`` the angle between the two lines.
    """
    Ah = A_hat / np.linalg.norm(A_hat, axis=0)
    At = A / np.linalg.norm(A, axis=0)
    cos = np.abs(Ah.T @ At)
    rows, cols = linear_sum_assignment(-cos)
    angles = np.degrees(np.arccos(np.clip(cos[rows, cols], 0.0, 1.0)))
    return cols, angles


def sinr(B, A, Sigma, cols):
    """SINR of demixer row ``j`` for source ``cols[j]``, unit-variance sources.

    ``SINR = |b a_k|^2 / (b (A A^T + Sigma) b^T - |b a_k|^2)``.
    """
    cov = A @ A.T + Sigma
    target = (B @ A)[np.arange(B.shape[0]), cols] ** 2
    total = np.einsum("ij,jk,ik->i", B, cov, B)
    return target / (total - target)


def optimal_sinr(A, Sigma):
    """Per-source SINR of the oracle demixer ``A^T (A A^T + Sigma)^+``."""
    B_opt = A.T @ np.linalg.pinv(A @ A.T + Sigma)
    return sinr(B_opt, A, Sigma, np.arange(A.shape[1]))


def mean_loss_db(achieved, optimal):
    return float(np.mean(10.0 * np.log10(optimal) - 10.0 * np.log10(achieved)))


def check_angles(angles, limit=MAX_ANGLE_DEG):
    worst = float(np.max(angles))
    require(worst < limit, f"largest column angle {worst:.2f} deg is not below {limit} deg")


def check_unit_diagonal(B_hat, A_hat):
    d = np.diag(B_hat @ A_hat)
    require(np.allclose(d, 1.0, rtol=0.0, atol=1e-8),
            f"B_hat A_hat diagonal departs from 1 by {np.max(np.abs(d - 1.0)):.3e}")


def check_optimality(achieved, optimal_by_row):
    excess = achieved / optimal_by_row - 1.0
    require(np.all(excess <= RTOL),
            f"a row's SINR exceeds the oracle optimum by {np.max(excess):.3e} (relative)")


def check_beats_pinv(loss_sinr_db, loss_pinv_db):
    require(loss_sinr_db < loss_pinv_db,
            f"SINR demixer loss {loss_sinr_db:.4f} dB is not below "
            f"pseudoinverse loss {loss_pinv_db:.4f} dB")


def check_correlation(S_hat, S, cols, achieved, tol=CORRELATION_TOL):
    """Squared sample correlation of each demixed row with its source.

    It must match ``SINR/(1+SINR)``, the analytic value for a row whose
    SINR is ``achieved``.
    """
    s = S[:, cols] - S[:, cols].mean(axis=0)
    h = S_hat - S_hat.mean(axis=0)
    r2 = np.einsum("ti,ti->i", s, h) ** 2 / (np.einsum("ti,ti->i", s, s) * np.einsum("ti,ti->i", h, h))
    dev = np.abs(r2 - achieved / (1.0 + achieved))
    require(np.all(dev < tol), f"squared correlation departs from SINR/(1+SINR) by {dev.max():.4f}")


def check_separation(A, Sigma, A_hat, B_hat, B, S_hat=None, S=None):
    """All checks on one estimate and its SINR-optimal demixer ``B``.

    Returns the mean SINR loss in dB of ``B`` against the oracle.
    """
    cols, angles = match(A_hat, A)
    check_angles(angles)
    check_unit_diagonal(B_hat, A_hat)
    opt = optimal_sinr(A, Sigma)[cols]
    achieved = sinr(B, A, Sigma, cols)
    check_optimality(achieved, opt)
    loss = mean_loss_db(achieved, opt)
    loss_pinv = mean_loss_db(sinr(np.linalg.pinv(A_hat), A, Sigma, cols), opt)
    check_beats_pinv(loss, loss_pinv)
    if S_hat is not None:
        check_correlation(S_hat, S, cols, achieved)
    return loss


def read_matrix(path):
    """Parse a ``rows,cols,real`` matrix CSV file with numpy."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        require(len(header) == 3 and header[2] == "real", f"{path}: bad header {header}")
        rows, cols = int(header[0]), int(header[1])
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    require(data.shape == (rows, cols), f"{path}: header says {rows}x{cols}, body is {data.shape}")
    return data


def check_matrix_file(path, expected):
    """The file parses back bit-for-bit equal to ``expected``."""
    got = read_matrix(path)
    require(got.shape == expected.shape and np.array_equal(got, expected),
            f"{path} does not hold the expected matrix bit for bit")


def check_sinr_report(path, cols, achieved):
    """``sinr_report.csv`` names the same matching and SINR as computed here."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    col = {name: i for i, name in enumerate(header)}
    require(len(rows) == len(cols), f"{path}: {len(rows)} sources, expected {len(cols)}")
    for row in rows:
        k, j = int(row[col["source"]]), int(row[col["estimate_row"]])
        require(cols[j] == k, f"{path}: source {k} matched to row {j}, expected row "
                f"{int(np.flatnonzero(cols == k)[0])}")
        reported = float(row[col["sinr"]])
        require(abs(reported / achieved[j] - 1.0) < 1e-6,
                f"{path}: source {k} SINR {reported} against {achieved[j]} computed here")


def check_sweep_rows(rows, expected_rows):
    """Required properties of ``run_benchmark`` per-trial rows.

    Rows are ``(algorithm, N, p, trial, loss_db, angle_deg, status)``.
    Returns the mean loss of the ``oracle_ainv`` rows in dB.
    """
    require(len(rows) == expected_rows, f"{len(rows)} per-trial rows, expected {expected_rows}")
    cells = {}
    for algorithm, N, p, trial, loss, angle, status in rows:
        cells.setdefault((N, p, trial), {})[algorithm] = (loss, angle, status)
    ainv = []
    for key, cell in cells.items():
        loss, _, status = cell["oracle_sinropt"]
        require(status == "ok" and abs(loss) <= RTOL, f"{key}: oracle_sinropt loss {loss} is not 0")
        loss, _, status = cell["oracle_ainv"]
        require(status == "ok" and loss > 0.0, f"{key}: oracle_ainv loss {loss} is not above 0")
        ainv.append(loss)
        (l_s, a_s, st_s), (l_p, a_p, st_p) = (cell[a] for a in ("pegi_sinr", "pegi_pinv"))
        require(st_s == st_p, f"{key}: pegi_sinr is {st_s} but pegi_pinv is {st_p} on one estimate")
        if st_s != "ok":
            continue
        require(a_s == a_p, f"{key}: one estimate reports column angles {a_s} and {a_p}")
        check_angles([a_s])
        require(l_s >= -RTOL, f"{key}: pegi_sinr loss {l_s} is below 0")
        check_beats_pinv(l_s, l_p)
    return float(np.mean(ainv))
