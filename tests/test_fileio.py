"""The bulk text kernel: ``float_cells`` against Python's own ``'%.17g'``
over every class of double, ``int_cells`` against ``str`` and
``cell_text``'s row assembly; the kernel's tables stay unbuilt when the CLI
is imported; ``atomic_write_text`` writes the bytes it is given; and each
bulk writer's allocations peak near the length of its result."""

import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sidlalab
from sidlalab import fileio
from sidlalab.coupling import gaps_csv_text
from sidlalab.fileio import cell_text, float_cells, int_cells
from sidlalab.fpp import WeightField, WeightProfile, build_forest, snapshot_text
from sidlalab.lattice import Window
from sidlalab.render import render_svg
from sidlalab.sidla import events_csv_text, run_until_covered


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


@pytest.mark.parametrize("power", [8, 12, 16])
def test_int_cells_at_the_word_split(power):
    """Each side of 10**8, 10**12 and 10**16, alone (so the widest value
    sets the count of words) and with smaller values."""
    near = [10**power - 1, 10**power, 10**power + 1]
    for v in [[i] for i in near] + [near + [0, 7, 10**8 - 1, 10**8]]:
        assert texts(int_cells(v)) == [str(i).encode() for i in v]


def _doubles_with_significand(digits: str, exponents) -> list[float]:
    """The doubles whose '%.17g' has the 17 significant digits ``digits``
    at a decimal exponent of ``exponents``: for each exponent, the double
    nearest the decimal, if its 17 digits are these."""
    found = []
    for e in exponents:
        x = float(f"{digits[0]}.{digits[1:]}e{e}")
        if "%.16e" % x == f"{digits[0]}.{digits[1:]}e{e:+03d}":
            found.append(x)
    return found


def test_float_cells_at_every_count_of_trailing_zeros():
    """Significands N ending in 0..16 zeros, so the last digit kept falls
    at each place of each word, in the exponent layout (E = -5 and 17) and
    the fixed one (E = -4 and -1, with a lead; E = 0 and 16, where the
    point falls inside the digits or is dropped), with both signs.  No
    double has a single significant digit at E = -5: 1e-05 to 9e-05 all
    round to 17 digits that are not 16 zeros."""
    rng = np.random.default_rng(11)
    seen = set()
    for e in (-5, -4, -1, 0, 16, 17):
        for zeros in range(17):
            for _ in range(1000):
                head = str(rng.integers(10 ** (16 - zeros), 10 ** (17 - zeros)))
                if head[-1] != "0":
                    x = _doubles_with_significand(head + "0" * zeros, [e])
                    if x:
                        assert_g17([x[0], -x[0]])
                        seen.add((e, zeros))
                        break
    assert seen == {(e, z) for e in (-5, -4, -1, 0, 16, 17) for z in range(17)} - {(-5, 16)}


@pytest.mark.parametrize("n", [10**16, 10**16 + 9999, 10**17 - 1])
def test_float_cells_at_the_ends_of_the_significand(n):
    """N at the bottom of its range, with only its last word nonzero
    (all nines), and at the top, at every exponent some double has it."""
    x = _doubles_with_significand(str(n), range(-280, 281))
    assert len(x) >= 10
    assert_g17(x + [-v for v in x])


def test_cell_text_joins_literals_and_cells_and_drops_nul():
    rows = cell_text([b"<", int_cells([7, 10, 0]), b",", float_cells([0.5, -2.0, 1e300]), b">\n"])
    assert rows == b"<7,0.5>\n<10,-2>\n<0,1.0000000000000001e+300>\n"


def test_importing_the_cli_builds_no_kernel_table():
    """setup_s and law-compare, which write no bulk text, must not pay for
    the kernel's tables: no cached table of fileio is built."""
    src = str(Path(sidlalab.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import sidlalab.cli; "
            "sidlalab.cli.build_parser(); from sidlalab import fileio; "
            "tables = {k: f.cache_info().currsize for k, f in vars(fileio).items() "
            "if hasattr(f, 'cache_info')}; "
            "assert set(tables) == {'_layout_tables', '_pow10_table'}, tables; "
            "assert not any(tables.values()), tables")
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def test_atomic_write_text_writes_a_bytearray_whole(tmp_path):
    """The bytes given, every byte value included, are the file's bytes."""
    data = bytearray(range(256)) * 5000
    path = tmp_path / "t.bin"
    fileio.atomic_write_text(str(path), data)
    assert path.read_bytes() == data


def test_a_failed_write_leaves_no_temp_file(tmp_path):
    """A str is no bytes-like object, so writing it fails inside the temp
    file; neither the temp file nor the target is left behind."""
    with pytest.raises(TypeError):
        fileio.atomic_write_text(str(tmp_path / "t.txt"), "text")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Each bulk artifact is built once: the peak of the allocations inside its
# writer stays within 1.25 times its length plus 2 MiB, where a joined or
# decoded second copy would take twice its length.


@pytest.fixture(scope="module")
def bulk_calls():
    """Each bulk writer with the arguments of one large call."""
    forest = build_forest(WeightField(1, WeightProfile.STRETCH, Window(512, 128)))
    jumps = run_until_covered(Window(512, 128), 1, method="jumps")
    # 185,094 rings, most of which vanish: rows drawn from the ring stream
    rings = run_until_covered(Window(24, 12), 1, method="rings")
    rng = np.random.default_rng(1)
    gaps = (2 * rng.integers(0, 64, 80_000), rng.exponential(size=80_000))
    return {"snapshot_text": (snapshot_text, (forest,)), "render_svg": (render_svg, (forest,)),
            "events_csv_text": (events_csv_text, (jumps,)),
            "events_csv_text_rings": (events_csv_text, (rings,)),
            "gaps_csv_text": (gaps_csv_text, gaps)}


@pytest.mark.parametrize("name", ["snapshot_text", "render_svg", "events_csv_text",
                                  "events_csv_text_rings", "gaps_csv_text"])
def test_bulk_writer_peak_stays_near_its_result(bulk_calls, name):
    writer, args = bulk_calls[name]
    tracemalloc.start()
    try:
        text = writer(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.isascii()
    assert peak <= 1.25 * len(text) + 2 * 2**20, (name, peak, len(text))
