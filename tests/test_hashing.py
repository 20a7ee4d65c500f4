import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from oracles import exp_variate
from sidlalab import hashing
from sidlalab.coupling import verify_coupling
from sidlalab.hashing import (
    TINY,
    exp_from_uniform,
    hash_u64,
    hash_u64_vec,
    hash_uniform,
    hash_uniform_vec,
)
from sidlalab.lattice import Window
from sidlalab.sidla import run_until_covered

u64 = st.integers(min_value=0, max_value=2**64 - 1)


@given(u64, st.lists(u64, min_size=1, max_size=4))
def test_scalar_vector_bit_identity(seed, parts):
    scalar = hash_u64(seed, *parts)
    vec = hash_u64_vec(seed, [np.uint64(p) for p in parts])
    assert int(vec) == scalar


@given(u64, st.lists(u64, max_size=3), st.lists(u64, min_size=1, max_size=3))
def test_hashing_a_prefix_chains(seed, a, b):
    mid = hash_u64(seed, *a)
    assert hash_u64(seed, *a, *b) == hash_u64(mid, *b)
    assert hash_uniform(seed, *a, *b) == hash_uniform(mid, *b)


@given(u64, st.lists(u64, max_size=3), st.lists(u64, min_size=1, max_size=5),
       st.lists(u64, min_size=1, max_size=3))
def test_vector_seed_rows_are_hashed_prefixes(seed, a, rows, b):
    """A uint64 array of per-row states stands in for the seed, as a scalar
    prefix does: row i of the result is hash_u64(seed, *a, rows[i], *b)."""
    mid = hash_u64_vec(seed, [*a, np.array(rows, dtype=np.uint64)])
    vec = hash_u64_vec(mid[:, None], [np.array(b, dtype=np.uint64)])
    assert vec.shape == (len(rows), len(b))
    assert vec.tolist() == [[hash_u64(seed, *a, r, x) for x in b] for r in rows]
    u = hash_uniform_vec(mid[:, None], [np.array(b, dtype=np.uint64)])
    assert u.tolist() == [[hash_uniform(seed, *a, r, x) for x in b] for r in rows]


def test_vector_broadcasts_over_arrays():
    seed = 42
    xs = np.arange(16, dtype=np.uint64)
    vec = hash_u64_vec(seed, [xs, np.uint64(7)])
    assert vec.shape == (16,)
    for i, x in enumerate(xs):
        assert int(vec[i]) == hash_u64(seed, int(x), 7)


def test_vector_refuses_an_empty_address():
    with pytest.raises(ValueError, match="empty address tuple"):
        hash_u64_vec(3, [])


def test_determinism_and_sensitivity():
    a = hash_u64(1, 2, 3)
    assert a == hash_u64(1, 2, 3)
    assert a != hash_u64(1, 2, 4)
    assert a != hash_u64(1, 3, 2)  # order matters
    assert a != hash_u64(2, 2, 3)  # seed matters


@given(u64, u64)
def test_uniform_range(seed, x):
    u = hash_uniform(seed, x)
    assert 0.0 <= u < 1.0


def test_uniform_vec_matches_scalar():
    xs = np.arange(100, dtype=np.uint64)
    uv = hash_uniform_vec(5, [xs])
    for i in range(100):
        assert uv[i] == hash_uniform(5, i)


def test_uniforms_look_uniform():
    xs = np.arange(20000, dtype=np.uint64)
    u = hash_uniform_vec(2024, [xs])
    d, p = stats.kstest(u, "uniform")
    assert p > 1e-4, (d, p)


def test_exp_from_uniform_scalar_edge_cases():
    assert exp_from_uniform(0.0, 1.0) == TINY
    assert exp_from_uniform(0.5, 1.0) == pytest.approx(np.log(2.0))
    # doubling the rate halves the variate
    assert exp_from_uniform(0.5, 2.0) == exp_from_uniform(0.5, 1.0) / 2.0


def test_exp_from_uniform_array_matches_scalar():
    u = np.linspace(0.0, 0.999, 64)
    arr = exp_from_uniform(u, 0.25)
    for i, ui in enumerate(u):
        assert arr[i] == exp_variate(float(ui), 0.25)
    assert (arr > 0.0).all()
    rates = 2.0 ** -np.arange(64)
    per_rate = exp_from_uniform(u, rates)
    assert per_rate.tolist() == [exp_variate(float(x), float(r)) for x, r in zip(u, rates)]


def test_exp_variates_have_right_law():
    xs = np.arange(20000, dtype=np.uint64)
    u = hash_uniform_vec(77, [xs])
    w = exp_from_uniform(u, 0.5)  # mean 2
    d, p = stats.kstest(w, "expon", args=(0, 2.0))
    assert p > 1e-4, (d, p)
    assert np.mean(w) == pytest.approx(2.0, rel=0.05)


def test_vector_log1p_matches_scalar_bitwise():
    """The package takes -log1p(-u) over a block of uniforms in one vector
    op where the scalar references (oracles.exp_variate) take it one at a
    time; a numpy whose SIMD log1p rounds differently would change every
    particle run and repeat stream."""
    u = np.concatenate([hash_uniform_vec(31, [np.arange(100_000, dtype=np.uint64)]),
                        [0.0, 2.0 ** -53, 1.0 - 2.0 ** -53]])
    vec = -np.log1p(-u)
    scalar = np.array([-np.log1p(-x) for x in u.tolist()])
    assert np.array_equal(vec.view(np.uint64), scalar.view(np.uint64))


def count_scalar_hashes(monkeypatch):
    """Count calls of the scalar hashes from every sidlalab module (the
    hashing module's own bindings aside, so hash_uniform counts once)."""
    calls = Counter()
    for name in ("hash_u64", "hash_uniform"):
        orig = getattr(hashing, name)

        def wrapper(*args, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(*args)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("sidlalab") and mod is not hashing:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        monkeypatch.setattr(mod, attr, wrapper)
    return calls


@pytest.mark.parametrize("run,prefixes", [
    (lambda win: verify_coupling(1, win, repeats="full"), 0),
    (lambda win: run_until_covered(win, 1, "rings"), 2),
    (lambda win: run_until_covered(win, 1, "jumps"), 1),
], ids=["couple-full", "rings", "jumps"])
def test_scalar_hashes_are_per_stream_not_per_draw(monkeypatch, run, prefixes):
    """Each stream hashes its prefix with the scalar hash at most once and
    draws through the vector hash, so the scalar count does not grow with
    the window."""
    calls = count_scalar_hashes(monkeypatch)
    counts = []
    for W, M in ((8, 4), (16, 6)):
        calls.clear()
        run(Window(W, M))
        counts.append(sum(calls.values()))
    assert counts == [prefixes, prefixes]
