"""Plain-text serialization for matrices, tables and key=value files.

Matrix CSV format
-----------------
The first non-comment line is a header ``rows,cols,field`` with ``field``
in {``real``, ``complex``}; each following line holds one comma-separated
matrix row.  ``#`` starts a comment that runs to the end of the line, and
blank lines are skipped.  Values are written with Python's shortest
round-trippable decimal repr, so write/parse is lossless, negative zero
included; nan reads back without its sign or payload.  Complex entries
use the ``re+imj`` form.  The bytes of a written file do not depend on
how many processes wrote it.

Tables are ordinary CSV with a header row of column names; all cells are
kept as strings on read.  Config and model metadata use flat
``key=value`` lines with ``#`` comments; list values are comma separated.
"""

import math
import os
import shutil
import tempfile
import warnings

import numpy as np

from .errors import MatrixFormatError

__all__ = [
    "format_value",
    "parse_value",
    "write_matrix_csv",
    "parse_matrix_csv",
    "write_table",
    "read_table",
    "write_keyvalues",
    "read_keyvalues",
]


def format_value(v):
    """Shortest round-trippable decimal form; complex as ``re+imj``."""
    if isinstance(v, complex) or np.iscomplexobj(v):
        return _format_complex(complex(v))
    return repr(float(v))


def _format_complex(v):
    # copysign keeps the sign of a negative-zero imaginary part; nan keeps "+"
    sign = "-" if math.copysign(1.0, v.imag) < 0 and not math.isnan(v.imag) else "+"
    return f"{v.real!r}{sign}{abs(v.imag)!r}j"


def parse_value(text, complex_field=False):
    text = text.strip()
    try:
        return complex(text) if complex_field else float(text)
    except ValueError:
        raise MatrixFormatError(f"non-numeric cell {text!r}") from None


# Rows converted to Python scalars at a time, so writing needs O(block) memory
_WRITE_BLOCK_ROWS = 4096

# Matrices with at least this many cells are written by two processes when
# two CPUs are available.  In-process writes of an N x 8 float64 matrix,
# serial against forked, on 2 shared vCPUs: the median over 5-7 runs of each
# run's median of 7-15 interleaved writes, and how many runs forked won.
#   cells      8 192   16 384   24 576   32 768   65 536   262 144
#   serial     16.1     31.1     43.2     59.4     108.5    421      ms
#   forked     23.3     35.0     45.5     47.7      74.3    268      ms
#   won        0/7      3/7      3/5      7/7       5/5     5/5
# The crossover lies between 16 384 and 32 768 cells; a fork costs about
# 5 ms.  Model-sized matrices (A, Sigma, A_hat, B_hat) stay serial.
_PARALLEL_MIN_CELLS = 32768


def _usable_cpus():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def write_matrix_csv(path, M):
    """Write a 2-D array in the matrix CSV format described above.

    A matrix of at least ``_PARALLEL_MIN_CELLS`` cells is formatted by two
    processes when two CPUs are available; the file's bytes are the same
    either way.
    """
    M = np.atleast_2d(np.asarray(M))
    if M.ndim != 2:
        raise MatrixFormatError("only 2-D matrices are supported")
    if np.iscomplexobj(M):
        field, M, fmt = "complex", M.astype(complex, copy=False), _format_complex
    else:
        # repr of a Python float is exactly format_value of that float
        field, M, fmt = "real", M.astype(float, copy=False), repr
    rows, cols = M.shape
    with open(path, "w") as fh:
        fh.write(f"{rows},{cols},{field}\n")
        if M.size >= _PARALLEL_MIN_CELLS and _usable_cpus() > 1:
            _write_halves(path, fh, M, fmt)
        else:
            _write_rows(fh, M, fmt)


def _write_rows(fh, M, fmt):
    """Format the rows of ``M`` into ``fh``, one block of rows at a time.

    Each block is copied C-ordered first, so an F-ordered matrix
    (``DemixMatrix.apply``'s S_hat, ``draw_batch``'s S) is formatted from
    the same row-major block as a C-ordered one.
    """
    for start in range(0, len(M), _WRITE_BLOCK_ROWS):
        block = np.ascontiguousarray(M[start:start + _WRITE_BLOCK_ROWS]).tolist()
        fh.writelines([",".join(map(fmt, row)) + "\n" for row in block])


def _write_halves(path, fh, M, fmt):
    """Format the first half of ``M`` into ``fh`` while a forked worker
    formats the second half into a temporary file, then append that file.

    Both halves go through :func:`_write_rows` and are joined in row order,
    so the bytes equal a serial write.
    """
    half = len(M) // 2
    with tempfile.TemporaryFile("w+") as tail:
        # The worker only formats rows and writes the unlinked temporary
        # file, then leaves through os._exit: it runs no BLAS call, starts
        # no thread and takes no lock that another thread of this process
        # (OpenBLAS's, say) could hold at the fork, so the deadlock that
        # Python >= 3.12 warns about when forking a threaded process cannot
        # happen here.  os._exit also skips the caller's finally blocks and
        # atexit handlers and leaves the parent's buffers unflushed.
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                _write_rows(tail, M[half:], fmt)
                tail.flush()
                code = 0
            finally:
                os._exit(code)
        try:
            _write_rows(fh, M[:half], fmt)
        finally:
            _, status = os.waitpid(pid, 0)
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise OSError(
                f"{path}: the worker writing rows {half + 1}..{len(M)} failed "
                f"(exit status {code})"
            )
        tail.seek(0)
        shutil.copyfileobj(tail, fh)


def _data(line):
    """A line's content without its ``#`` comment and surrounding blanks."""
    return line.split("#", 1)[0].strip()


def parse_matrix_csv(path):
    """Read a matrix CSV file back into an ndarray.

    Raises :class:`MatrixFormatError` naming the offending 1-based data
    row (and column) for ragged rows or non-numeric cells.
    """
    with open(path) as fh:
        header = ""
        while not header:
            line = fh.readline()
            if not line:
                raise MatrixFormatError(f"{path}: empty matrix file")
            header = _data(line)
        rows, cols, dtype = _parse_header(path, header)
        body_start = fh.tell()
        if rows > 0 and cols > 0:
            # numpy's C reader parses correctly rounded, like float()/complex()
            try:
                with warnings.catch_warnings():
                    # a body without data is reported below, not as a warning
                    warnings.simplefilter("ignore", UserWarning)
                    out = np.loadtxt(fh, delimiter=",", dtype=dtype, ndmin=2)
            except ValueError:
                out = None
            if out is not None and out.shape == (rows, cols):
                return out
        # the per-cell scan names the row and column of whatever loadtxt refused
        fh.seek(body_start)
        return _scan_body(path, fh, rows, cols, dtype)


def _parse_header(path, header):
    fields = header.split(",")
    if len(fields) != 3:
        raise MatrixFormatError(f"{path}: header must be 'rows,cols,field'")
    try:
        rows, cols = int(fields[0]), int(fields[1])
    except ValueError:
        raise MatrixFormatError(f"{path}: non-integer dimensions in header") from None
    field = fields[2].strip()
    if field not in ("real", "complex"):
        raise MatrixFormatError(f"{path}: unknown field {field!r}")
    return rows, cols, complex if field == "complex" else float


def _scan_body(path, fh, rows, cols, dtype):
    body = [ln for ln in map(_data, fh) if ln]
    # a zero-column matrix has blank rows, skipped with the rest; any data
    # line there fails the cell count below
    if cols and len(body) != rows:
        raise MatrixFormatError(
            f"{path}: header promises {rows} rows, file has {len(body)}"
        )
    out = np.empty((rows, cols), dtype=dtype)
    for r, line in enumerate(body, start=1):
        cells = line.split(",")
        if len(cells) != cols:
            raise MatrixFormatError(
                f"{path}: row {r} has {len(cells)} cells, expected {cols}"
            )
        for c, cell in enumerate(cells, start=1):
            try:
                out[r - 1, c - 1] = parse_value(cell, dtype is complex)
            except MatrixFormatError as exc:
                raise MatrixFormatError(f"{path}: row {r}, column {c}: {exc}") from None
    return out


def write_table(path, header, rows):
    """Write a CSV table: a header of column names, then stringified rows."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(cell) for cell in row) + "\n")


def read_table(path):
    """Read a CSV table written by :func:`write_table`.

    Returns ``(header, rows)`` with all cells as strings.
    """
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise MatrixFormatError(f"{path}: empty table file")
    header = lines[0].split(",")
    rows = []
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != len(header):
            raise MatrixFormatError(
                f"{path}: row {i} has {len(cells)} cells, expected {len(header)}"
            )
        rows.append(cells)
    return header, rows


def write_keyvalues(path, mapping):
    with open(path, "w") as fh:
        for key, value in mapping.items():
            if isinstance(value, (list, tuple)):
                value = ",".join(str(v) for v in value)
            fh.write(f"{key}={value}\n")


def read_keyvalues(path):
    """Read flat ``key=value`` lines into a dict of strings."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise MatrixFormatError(f"{path}: line {lineno} is not key=value")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out
