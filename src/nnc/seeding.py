"""Deterministic derivation of independent random streams from one master seed.

A stream is a PCG64 generator seeded by ``derive_seed(master_seed, *path)``
through NumPy's ``SeedSequence``. ``make_rng`` builds one stream at a time.
For many streams that differ only in their last path element (the trials of
one experiment), ``derive_seeds`` and ``seed_words`` run the same two hashes
over arrays, once, and ``rng_from_words`` builds each stream from its row
of words: its draws equal ``make_rng``'s bit for bit, at a fraction of the
per-stream cost.
"""
from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx), for a pool of
# four 32-bit words and 32-bit arithmetic
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = 16


def _avalanche(x):
    # splitmix64 finalizer: full-avalanche 64-bit mix of an int or of a
    # uint64 array (whose products wrap, as the masks make the int's)
    x = x & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def _absorb(state, v):
    # one path element (an int, or a uint64 array of them) mixed into the state
    return _avalanche(state ^ ((v * _GOLDEN) & _MASK64))


def derive_seed(master_seed: int, *path: int) -> int:
    """Mix a master seed and an index path into one 64-bit stream seed.

    Each path element is absorbed with an avalanche round, so seeds derived
    from distinct paths (e.g. trial 3 of run A vs. trial 3 of a bootstrap
    column) are unrelated even when the integers coincide.
    """
    state = _avalanche(master_seed)
    for v in path:
        state = _absorb(state, int(v))
    return state


def derive_seeds(master_seed: int, *path: int, last: np.ndarray) -> np.ndarray:
    """``derive_seed(master_seed, *path, i)`` for every non-negative ``i`` of
    ``last``, as a uint64 array; the final avalanche round runs over the array."""
    return _absorb(derive_seed(master_seed, *path), np.asarray(last, dtype=np.uint64))


def _hash_constants(init: int, mult: int, count: int) -> list:
    # the (xor, multiplier) pair of each of ``count`` successive hashes; the
    # sequence does not depend on the data, so it is the same for every seed
    out, h = [], init
    for _ in range(count):
        nxt = (h * mult) & _MASK32
        out.append((np.uint32(h), np.uint32(nxt)))
        h = nxt
    return out


# mixing the entropy into the pool hashes each word once, then each word once
# per other word; drawing 4 uint64 words hashes 8 pool words
_MIX_CONSTANTS = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_DRAW_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 2 * 4)


def _hashmix(value: np.ndarray, const: tuple) -> np.ndarray:
    xor, mult = const
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> _XSHIFT)


def seed_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(int(s)).generate_state(4, np.uint64)`` for every uint64
    seed ``s``, as one (len(seeds), 4) uint64 array.

    The entropy is each seed's low and high 32-bit words. A seed below 2**32
    has only its low word, and hashes as ``[lo, 0]`` does, because the pool
    pads missing words with the hash of 0; so one form covers every seed.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    consts = iter(_MIX_CONSTANTS)
    entropy = [seeds.astype(np.uint32), (seeds >> 32).astype(np.uint32)]
    entropy += [np.zeros(seeds.shape, dtype=np.uint32)] * (_POOL_SIZE - len(entropy))
    pool = [_hashmix(word, next(consts)) for word in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(consts)))
    state = [_hashmix(pool[i % _POOL_SIZE], c).astype(np.uint64)
             for i, c in enumerate(_DRAW_CONSTANTS)]
    # consecutive 32-bit words, low first, make each 64-bit word
    return np.stack([state[2 * k] | (state[2 * k + 1] << 32) for k in range(4)], axis=-1)


class _HashedWords(ISeedSequence):
    """A seed source whose four PCG64 seed words are already hashed; PCG64
    asks for exactly ``generate_state(4, np.uint64)``."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def rng_from_words(words: np.ndarray) -> np.random.Generator:
    """The generator of one row of ``seed_words``: equal to ``make_rng`` at
    the seed that row was hashed from."""
    return np.random.Generator(np.random.PCG64(_HashedWords(words)))


def make_rng(master_seed: int, *path: int) -> np.random.Generator:
    """PCG64 generator seeded by ``derive_seed(master_seed, *path)``."""
    return np.random.Generator(np.random.PCG64(derive_seed(master_seed, *path)))
