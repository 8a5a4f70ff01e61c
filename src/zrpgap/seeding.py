"""Deterministic seed derivation for replicated Monte Carlo runs.

Replica streams are derived from a 64-bit master seed with the splitmix64
mixer: ``seed_i = splitmix64(master + i * GOLDEN)`` where GOLDEN is the
64-bit golden-ratio increment 0x9e3779b97f4a7c15.  The derivation is pure
integer arithmetic mod 2**64, so the stream assigned to replica ``i`` is
identical on every platform and does not depend on how replicas are
scheduled across workers.

Samplers build their replica generators in batches with
:func:`replica_generators`: numpy's ``SeedSequence`` hash, which turns a
seed into PCG64's initial state, runs in numpy arithmetic over a block of
seeds at once.  Each stream is exactly ``make_generator(derive_seed(master,
i))``; only the set-up cost differs.
"""

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# numpy's SeedSequence constants (pool of four 32-bit words)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = (1 << 32) - 1

# replicas seeded per block: keeps the block's temporaries below 1 MB
_BLOCK = 4096


def splitmix64(value: int) -> int:
    """One splitmix64 output step applied to ``value`` (mod 2**64)."""
    z = (value + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(master: int, index: int) -> int:
    """64-bit seed for replica ``index`` under master seed ``master``."""
    if index < 0:
        raise ValueError("replica index must be non-negative")
    return splitmix64((master + index * _GOLDEN) & _MASK)


def make_generator(seed: int) -> np.random.Generator:
    """PCG64 generator for a seed taken mod 2**64; a replica's stream is
    ``make_generator(derive_seed(master, index))``."""
    return np.random.Generator(np.random.PCG64(seed & _MASK))


class _PresetState(ISeedSequence):
    """Hands PCG64 the state words :func:`_pcg64_words` computed for it."""

    def __init__(self, words):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self._words


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """Per hashmix call, the constant xored in and the one multiplied by.

    A SeedSequence pass multiplies its hash constant by ``mult`` once per
    call, so these depend on the call count only, never on the seed.
    """
    seq = [init]
    for _ in range(count):
        seq.append((seq[-1] * mult) & _MASK32)
    return np.array([seq[:-1], seq[1:]], dtype=np.uint32)[:, :, None]


# mixing the pool: 4 hashmix calls, then one per (src, dst) pair, src != dst
_MIX_CONSTS = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL)
_OTHERS = [[d for d in range(_POOL) if d != src] for src in range(_POOL)]
# generate_state(4, uint64) draws 8 words from the pool, cycling over it
_OUT_CONSTS = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)


def _hashmix(value, consts):
    value = (value ^ consts[0]) * consts[1]
    return value ^ (value >> 16)


def _pcg64_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, uint64)`` for each uint64 seed.

    A seed below 2**64 is at most two 32-bit words, and the pool hashes a
    missing word as 0, so every seed is mixed as ``[lo, hi, 0, 0]``.  Within
    one source word the three cross-mixes touch distinct destinations, so
    they run as one row operation.
    """
    entropy = np.zeros((_POOL, seeds.size), dtype=np.uint32)
    entropy[0] = seeds & _MASK32
    entropy[1] = seeds >> 32
    pool = _hashmix(entropy, _MIX_CONSTS[:, :_POOL])
    for src, dst in enumerate(_OTHERS):
        first = _POOL + 3 * src
        hashed = _hashmix(pool[src], _MIX_CONSTS[:, first:first + 3])
        mixed = np.uint32(_MIX_L) * pool[dst] - np.uint32(_MIX_R) * hashed
        pool[dst] = mixed ^ (mixed >> 16)
    words = _hashmix(np.concatenate([pool, pool]), _OUT_CONSTS).astype(np.uint64)
    # consecutive words are the (low, high) halves of one uint64
    return np.ascontiguousarray((words[0::2] | (words[1::2] << 32)).T)


def replica_generators(master: int, indices: range):
    """Yield ``(derive_seed(master, i), generator)`` for each i in ``indices``.

    Each generator is a fresh ``Generator(PCG64(...))`` in exactly the state
    of ``make_generator(derive_seed(master, i))``; the PCG64 states are
    computed for blocks of at most 4,096 replicas at a time.
    """
    for lo in range(0, len(indices), _BLOCK):
        seeds = [derive_seed(master, i) for i in indices[lo:lo + _BLOCK]]
        states = _pcg64_words(np.array(seeds, dtype=np.uint64))
        for seed, words in zip(seeds, states):
            yield seed, np.random.Generator(np.random.PCG64(_PresetState(words)))
