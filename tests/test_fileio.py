"""The bulk text kernel: ``float_cells`` against Python's own ``'%.17g'``
over every class of double, ``int_cells`` against ``str`` and
``cell_text``'s row assembly; the kernel's tables stay unbuilt when the CLI
is imported, and ``atomic_write_text`` writes long texts whole."""

import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import sidlalab
from sidlalab import fileio
from sidlalab.fileio import cell_text, float_cells, int_cells


def texts(cells: np.ndarray) -> list[bytes]:
    return [bytes(row[row != 0]) for row in cells]


def assert_g17(x):
    x = np.asarray(x, dtype=np.float64)
    assert texts(float_cells(x)) == [("%.17g" % v).encode() for v in x.tolist()]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_float_cells_match_g17_on_raw_bit_patterns(words):
    """Every 64-bit pattern is a double: all signs, exponents, subnormals,
    infinities and NaNs."""
    assert_g17(np.array(words, dtype=np.uint64).view(np.float64))


def test_float_cells_match_g17_at_the_edges():
    powers2 = np.ldexp(1.0, np.arange(-1074, 1024))
    powers10 = np.array([10.0 ** k for k in range(-307, 309)] + [5e-324, 1e-320])
    boundaries = np.array([1e16, 1e17, 1e-4, 1e-5, 9999999999999998.0, 99999999999999984.0,
                           0.0001, 0.00010000000000000002, 1e-05, 123456789012345678.0])
    rng = np.random.default_rng(3)
    assert_g17([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, np.inf, -np.inf, np.nan])
    for x in (powers2, -powers2, powers10, boundaries):
        assert_g17(x)
        assert_g17(np.nextafter(x, np.inf))
        assert_g17(np.nextafter(x, -np.inf))
    assert_g17(np.ldexp(rng.random(10_000) + 1.0, rng.integers(-1074, 1024, 10_000)))
    assert_g17(rng.integers(0, 2**62, 10_000).astype(np.float64))
    assert_g17(rng.integers(-2**20, 2**20, 10_000) / 1024.0)
    assert_g17(rng.exponential(size=10_000) * 1e5)
    assert len(float_cells(np.array([]))) == 0


def test_float_cells_round_exact_ties_by_the_scalar_fallback(monkeypatch):
    """An exact decimal tie at the 18th digit may round either way in the
    double-double product, so it is left to Python's '%.17g', which rounds
    half to even."""
    ties = [3520688718.83984375, 1234567890123456.25, 1234567890123456.75,
            -1234567890123456.75, 543210987654321.125, -3520688718.83984375]
    seen = []
    scalar = fileio._scalar_g17

    def spy(x):
        seen.extend(x.tolist())
        return scalar(x)

    monkeypatch.setattr(fileio, "_scalar_g17", spy)
    assert_g17(ties + [1.5])
    assert set(ties) <= set(seen)
    assert 1.5 not in seen  # 1.5 has 2 digits: no tie at the 18th


def test_int_cells_match_str():
    v = np.array([0, 1, 9, 10, 99, 100, 9999, 10_000, 12345, 10**15, 10**16 - 1, 10**18 - 1,
                  10**18, 2**62, 2**63 - 1])
    assert texts(int_cells(v)) == [str(i).encode() for i in v.tolist()]
    assert texts(int_cells(np.arange(3000))) == [str(i).encode() for i in range(3000)]
    assert int_cells(np.array([], dtype=np.int64)).shape[0] == 0


def test_cell_text_joins_literals_and_cells_and_drops_nul():
    rows = cell_text([b"<", int_cells([7, 10, 0]), b",", float_cells([0.5, -2.0, 1e300]), b">\n"])
    assert rows == b"<7,0.5>\n<10,-2>\n<0,1.0000000000000001e+300>\n"


def test_importing_the_cli_builds_no_kernel_table():
    """setup_s and law-compare, which write no bulk text, must not pay for
    the kernel's tables."""
    src = str(Path(sidlalab.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import sidlalab.cli; "
            "sidlalab.cli.build_parser(); from sidlalab import fileio; "
            "assert fileio._layout_tables.cache_info().currsize == 0; "
            "assert fileio._pow10_parts.cache_info().currsize == 0")
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def test_atomic_write_text_writes_a_long_text_whole(tmp_path):
    """Texts longer than one encoded piece, with multi-byte characters
    across the piece boundaries, are written whole."""
    text = ("é" + "x" * (fileio._WRITE_PIECE - 1)) * 2 + "€\n"
    path = tmp_path / "t.txt"
    fileio.atomic_write_text(str(path), text)
    assert path.read_bytes() == text.encode("utf-8")
