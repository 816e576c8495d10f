"""Matrix/table/key-value file round trips and parse diagnostics."""

import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from pegica import matio
from pegica.errors import MatrixFormatError
from pegica.matio import (
    format_value,
    parse_matrix_csv,
    parse_value,
    read_keyvalues,
    read_table,
    write_keyvalues,
    write_matrix_csv,
    write_table,
)


class TestValueFormatting:
    def test_shortest_repr_round_trip(self):
        for v in (0.1, 1.0 / 3.0, 1e-300, -2.5e300, 12345.6789, -0.0):
            assert parse_value(format_value(v)) == v

    def test_complex_round_trip(self):
        for v in (1.5 + 2.5j, -0.1 - 0.2j, 3.0 + 0.0j, 0.0 - 1e-30j):
            assert parse_value(format_value(v), complex_field=True) == v

    def test_negative_zero_keeps_its_sign(self):
        for v in (-0.0, complex(1.0, -0.0), complex(-0.0, -0.0)):
            back = complex(parse_value(format_value(v), complex_field=True))
            v = complex(v)
            assert back == v
            assert np.signbit(back.real) == np.signbit(v.real)
            assert np.signbit(back.imag) == np.signbit(v.imag)

    def test_non_numeric_rejected(self):
        with pytest.raises(MatrixFormatError):
            parse_value("grapefruit")


class TestMatrixRoundTrip:
    def test_real_matrix_exact(self, rng, tmp_path):
        M = rng.standard_normal((100, 7))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, M)
        back = parse_matrix_csv(path)
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, M)

    def test_complex_matrix_exact(self, rng, tmp_path):
        M = rng.standard_normal((20, 4)) + 1j * rng.standard_normal((20, 4))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, M)
        back = parse_matrix_csv(path)
        assert back.dtype == np.complex128
        np.testing.assert_array_equal(back, M)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# a comment\n2,2,real\n\n1.0,2.0\n# another\n3.0,4.0\n")
        np.testing.assert_array_equal(parse_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(MatrixFormatError, match="empty"):
            parse_matrix_csv(path)

    def test_ragged_row_names_the_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("2,3,real\n1.0,2.0,3.0\n4.0,5.0\n")
        with pytest.raises(MatrixFormatError, match="row 2"):
            parse_matrix_csv(path)

    def test_bad_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,3,real\n1.0,oops,3.0\n")
        with pytest.raises(MatrixFormatError, match="row 1, column 2"):
            parse_matrix_csv(path)

    def test_row_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("3,2,real\n1.0,2.0\n3.0,4.0\n")
        with pytest.raises(MatrixFormatError, match="promises 3 rows"):
            parse_matrix_csv(path)

    def test_missing_body_rejected_without_warning(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("2,2,real\n# no data\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MatrixFormatError, match="promises 2 rows, file has 0"):
                parse_matrix_csv(path)

    def test_empty_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,3,real\n1.0,,3.0\n")
        with pytest.raises(MatrixFormatError, match="row 1, column 2: non-numeric cell ''"):
            parse_matrix_csv(path)

    def test_every_row_one_cell_short_names_row_1(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("2,3,real\n1.0,2.0\n3.0,4.0\n")
        with pytest.raises(MatrixFormatError, match="row 1 has 2 cells, expected 3"):
            parse_matrix_csv(path)

    def test_trailing_comments_ignored(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("2,2,complex # shape\n1.0+2.0j,3.0 # first row\n  \n4.0,5.0-0.0j\n")
        back = parse_matrix_csv(path)
        np.testing.assert_array_equal(back, [[1 + 2j, 3], [4, 5]])
        assert np.signbit(back[1, 1].imag)

    def test_slow_scan_strips_comments_too(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("2,2,real\n1.0,2.0 # ok\n3.0,x # bad\n")
        with pytest.raises(MatrixFormatError, match="row 2, column 2: non-numeric cell 'x'"):
            parse_matrix_csv(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,1,quaternion\n1.0\n")
        with pytest.raises(MatrixFormatError, match="quaternion"):
            parse_matrix_csv(path)


def reference_matrix_csv(M):
    """The matrix CSV text, formatted cell by cell with ``format_value``."""
    M = np.atleast_2d(np.asarray(M))
    field = "complex" if np.iscomplexobj(M) else "real"
    lines = [f"{M.shape[0]},{M.shape[1]},{field}"]
    lines += [",".join(format_value(v) for v in row) for row in M]
    return "".join(line + "\n" for line in lines)


def assert_same_bits(back, M):
    """Equal values, nan where nan, and the same sign bits elsewhere."""
    assert back.shape == M.shape and back.dtype == M.dtype
    parts = (lambda a: a.real, lambda a: a.imag) if np.iscomplexobj(M) else (lambda a: a,)
    for part in parts:
        got, want = part(back), part(M)
        np.testing.assert_array_equal(got, want)
        numbers = ~np.isnan(want)
        np.testing.assert_array_equal(np.signbit(got[numbers]), np.signbit(want[numbers]))


SPECIAL_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2250738585072014e-308 / 3, np.inf, -np.inf, np.nan]
)
FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), SPECIAL_FLOATS)
SHAPES = array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6)


class TestMatrixFileProperties:
    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, SHAPES, elements=FLOATS))
    def test_real_round_trip_bit_for_bit(self, M):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            write_matrix_csv(path, M)
            assert_same_bits(parse_matrix_csv(path), M)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_complex_round_trip_bit_for_bit(self, data):
        shape = data.draw(SHAPES)
        M = np.empty(shape, dtype=complex)
        M.real = data.draw(arrays(np.float64, shape, elements=FLOATS))
        M.imag = data.draw(arrays(np.float64, shape, elements=FLOATS))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            write_matrix_csv(path, M)
            assert_same_bits(parse_matrix_csv(path), M)

    @pytest.mark.parametrize("shape", [(0, 3), (1, 1), (5, 1), (1, 5), (3, 0)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_edge_shapes_round_trip_without_warnings(self, tmp_path, rng, shape, dtype):
        M = rng.standard_normal(shape).astype(dtype)
        path = tmp_path / "m.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_matrix_csv(path, M)
            back = parse_matrix_csv(path)
        assert_same_bits(back, M)

    @pytest.mark.parametrize("make", [
        lambda rng: rng.standard_normal((5000, 3)) * 10.0 ** rng.integers(-300, 300, (5000, 3)),
        lambda rng: rng.standard_normal((7, 4)).astype(np.float32),
        lambda rng: rng.integers(-5, 5, (6, 2)),
        lambda rng: np.array([[-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324]]),
        lambda rng: rng.standard_normal((4500, 2)) + 1j * rng.standard_normal((4500, 2)),
        lambda rng: np.array([[complex(-0.0, 0.0), complex(np.nan, -np.inf), 1j]]),
        lambda rng: rng.standard_normal(4),
    ])
    def test_bytes_equal_per_cell_reference(self, tmp_path, rng, make):
        M = make(rng)
        path = tmp_path / "m.csv"
        write_matrix_csv(path, M)
        assert path.read_text() == reference_matrix_csv(M)


def wide_exponent_matrix(rng, rows, cols):
    """Exponents from -300 to 300, with the special values in both halves."""
    M = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-300, 300, (rows, cols))
    for k, v in enumerate([-0.0, np.nan, np.inf, -np.inf, 5e-324]):
        M[1 + k, k % cols] = v
        M[rows // 2 + k, k % cols] = v
    return M


def negative_zero_imaginary_matrix(rng, rows, cols):
    """Complex values, about a third with a ``-0.0`` imaginary part."""
    M = np.empty((rows, cols), dtype=complex)
    M.real = rng.standard_normal((rows, cols))
    M.imag = np.where(rng.random((rows, cols)) < 0.3, -0.0, rng.standard_normal((rows, cols)))
    return M


class TestForkedWriter:
    """Matrices of at least ``_PARALLEL_MIN_CELLS`` cells, written by two
    processes, keep the bytes of the per-cell reference."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(matio, "_usable_cpus", lambda: 2)

    @pytest.fixture
    def forks(self, monkeypatch):
        calls = []
        fork = os.fork

        def counting_fork():
            calls.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        return calls

    @pytest.mark.parametrize("make", [
        # odd rows; the split at row 4500 is off the 4096-row block grid
        lambda rng: wide_exponent_matrix(rng, 9001, 4),
        lambda rng: wide_exponent_matrix(rng, 4097, 8),
        # F-ordered, as DrawBatch.S is
        lambda rng: np.asfortranarray(wide_exponent_matrix(rng, 8193, 5)),
        lambda rng: negative_zero_imaginary_matrix(rng, 6001, 6),
    ])
    def test_bytes_equal_per_cell_reference(self, tmp_path, rng, forks, make):
        M = make(rng)
        assert M.size >= matio._PARALLEL_MIN_CELLS
        path = tmp_path / "m.csv"
        write_matrix_csv(path, M)
        assert forks == [1]
        assert path.read_text() == reference_matrix_csv(M)
        assert_same_bits(parse_matrix_csv(path), M)

    def test_one_cpu_writes_the_same_bytes_without_forking(self, tmp_path, rng, forks,
                                                          monkeypatch):
        M = wide_exponent_matrix(rng, 9001, 4)
        write_matrix_csv(tmp_path / "two.csv", M)
        monkeypatch.setattr(matio, "_usable_cpus", lambda: 1)
        write_matrix_csv(tmp_path / "one.csv", M)
        assert forks == [1]
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()

    @pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "forked"])
    @pytest.mark.parametrize("make", [wide_exponent_matrix, negative_zero_imaginary_matrix])
    def test_f_and_c_order_write_the_same_bytes(self, tmp_path, rng, forks, monkeypatch,
                                                cpus, make):
        # DemixMatrix.apply returns an F-ordered S_hat, DrawBatch.S is one
        monkeypatch.setattr(matio, "_usable_cpus", lambda: cpus)
        M = make(rng, 8193, 5)
        write_matrix_csv(tmp_path / "c.csv", np.ascontiguousarray(M))
        write_matrix_csv(tmp_path / "f.csv", np.asfortranarray(M))
        assert len(forks) == 2 * (cpus - 1)
        assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()
        assert (tmp_path / "c.csv").read_text() == reference_matrix_csv(M)

    def test_small_matrix_stays_serial(self, tmp_path, rng, forks):
        cols = 8
        M = rng.standard_normal((matio._PARALLEL_MIN_CELLS // cols - 1, cols))
        write_matrix_csv(tmp_path / "m.csv", M)
        assert forks == []
        assert (tmp_path / "m.csv").read_text() == reference_matrix_csv(M)

    @pytest.mark.parametrize("failing", ["worker", "parent"])
    def test_failure_raises_and_leaves_nothing(self, tmp_path, rng, monkeypatch, failing):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        parent = os.getpid()
        write_rows = matio._write_rows

        def write_rows_failing_in_one(fh, M, fmt):
            if (os.getpid() != parent) == (failing == "worker"):
                raise RuntimeError("formatting failed")
            write_rows(fh, M, fmt)

        monkeypatch.setattr(matio, "_write_rows", write_rows_failing_in_one)
        path = tmp_path / "m.csv"
        if failing == "worker":
            expected = pytest.raises(OSError, match=re.escape(str(path)))
        else:
            expected = pytest.raises(RuntimeError, match="formatting failed")
        with expected:
            write_matrix_csv(path, rng.standard_normal((9001, 4)))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert list(scratch.iterdir()) == []


def test_import_loads_no_multiprocessing():
    # the writer forks with os; importing multiprocessing would cost every
    # command about 16 ms of start-up
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = "import sys, pegica; sys.exit('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert proc.returncode == 0


class TestTables:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        header = ("a", "b", "c")
        rows = [("1", "x", "2.5"), ("2", "y", "-1.0")]
        write_table(path, header, rows)
        back_header, back_rows = read_table(path)
        assert tuple(back_header) == header
        assert [tuple(r) for r in back_rows] == rows

    def test_ragged_table_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(MatrixFormatError, match="row 2"):
            read_table(path)


class TestKeyValues:
    def test_round_trip_with_lists(self, tmp_path):
        path = tmp_path / "cfg.txt"
        write_keyvalues(path, {"n": 8, "samples": [10, 20, 30], "panel": "paper"})
        back = read_keyvalues(path)
        assert back == {"n": "8", "samples": "10,20,30", "panel": "paper"}

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# config\nn=4\n\nm=3\n")
        assert read_keyvalues(path) == {"n": "4", "m": "3"}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("n=4\nbogus line\n")
        with pytest.raises(MatrixFormatError, match="line 2"):
            read_keyvalues(path)
