"""Counter-based random number generation.

Every random quantity in the package is a pure function of (seed, stream,
coordinates).  There is no mutable generator state: the value attached to an
edge or a clock tick is obtained by hashing its integer address through a
SplitMix64-style finalizer chain.  This buys three things at once:

* determinism that survives reordering (vectorized and scalar code paths
  draw identical values for the same address),
* cheap random access (a weight can be recomputed on demand instead of
  stored), and
* independence across streams, which carry distinct 64-bit tags.

Scalar helpers on Python ints are the reference definition; the package
draws only through the vector helpers on uint64 ndarrays.  Both apply the
same arithmetic mod 2**64, so they agree bit for bit, as tests check.

The chain folds in one address part at a time, so a hashed prefix can
stand in for the seed: ``hash_u64(s, *a, *b) == hash_u64(hash_u64(s, *a), *b)``
(likewise ``hash_uniform`` for non-empty b).  So every stream hashes its
prefix once and draws a block of addresses per vector call; the vector
seed may be an array of prefixes, one per row of streams.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

# Stream tags.  Arbitrary distinct odd constants; what matters is that two
# streams never hash the same address tuple.
WEIGHT_STREAM = 0xA3C59AC1D6F20B07
AUX_STREAM = 0xB7E151628AED2A6B
CLOCK_STREAM = 0xC13FA9A902A63786
COIN_STREAM = 0xD1310BA698DFB5AC
JUMP_STREAM = 0xE93D5A68948140F7

# Words hashed per vector call by every block draw (forest weights, jumps
# events, rings), so hash temporaries stay O(block), not O(W * M).  Draws
# are pure functions of their addresses: the block size moves no output bit.
HASH_BLOCK = 1 << 16

# Smallest positive double.  exp_from_uniform maps u == 0.0 here so that
# variates are strictly positive.
TINY = 5e-324

_U64_GOLDEN = np.uint64(_GOLDEN)
_U64_MIX_A = np.uint64(_MIX_A)
_U64_MIX_B = np.uint64(_MIX_B)
_U64_30 = np.uint64(30)
_U64_27 = np.uint64(27)
_U64_31 = np.uint64(31)
_U64_11 = np.uint64(11)
_INV_2_53 = 2.0 ** -53


def _mix(z: int) -> int:
    z ^= z >> 30
    z = (z * _MIX_A) & _MASK
    z ^= z >> 27
    z = (z * _MIX_B) & _MASK
    z ^= z >> 31
    return z


def hash_u64(seed: int, *parts: int) -> int:
    """Hash an address tuple to a uniform 64-bit word (scalar path)."""
    state = seed & _MASK
    for p in parts:
        state = _mix(((state ^ (p & _MASK)) + _GOLDEN) & _MASK)
    return state


def hash_uniform(seed: int, *parts: int) -> float:
    """Uniform double in [0, 1) from an address tuple (scalar path)."""
    return (hash_u64(seed, *parts) >> 11) * _INV_2_53


def hash_u64_vec(seed, parts: list) -> np.ndarray:
    """Vectorized hash_u64: each entry of ``parts`` is an int or uint64 array.

    Arrays, the seed included (hashed prefixes), are broadcast against each
    other; ints act as constants.
    """
    if not parts:
        raise ValueError("empty address tuple")
    state = seed if isinstance(seed, np.ndarray) else np.uint64(seed & _MASK)
    # wraparound mod 2**64 is the point here; keep numpy quiet about it
    with np.errstate(over="ignore"):
        for p in parts:
            word = (p.astype(np.uint64, copy=False) if isinstance(p, np.ndarray)
                    else np.uint64(p & _MASK))
            z = (state ^ word) + _U64_GOLDEN
            z = z ^ (z >> _U64_30)
            z = z * _U64_MIX_A
            z = z ^ (z >> _U64_27)
            z = z * _U64_MIX_B
            state = z ^ (z >> _U64_31)
    return np.asarray(state, dtype=np.uint64)


def hash_uniform_vec(seed, parts: list) -> np.ndarray:
    """Vectorized hash_uniform."""
    return (hash_u64_vec(seed, parts) >> _U64_11).astype(np.float64) * _INV_2_53


def exp_from_uniform(u, rate):
    """Inverse-CDF exponential variates of the uniform array u at the given
    rate(s).  The result is clamped to TINY so that waiting times are
    strictly positive even if the hash lands on u == 0.
    """
    w = -np.log1p(-u) / rate
    return np.where(w > 0.0, w, TINY)
