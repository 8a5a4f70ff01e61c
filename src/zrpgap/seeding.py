"""Deterministic seed derivation for replicated Monte Carlo runs.

Replica streams are derived from a 64-bit master seed with the splitmix64
mixer: ``seed_i = splitmix64(master + i * GOLDEN)`` where GOLDEN is the
64-bit golden-ratio increment 0x9e3779b97f4a7c15.  The derivation is pure
integer arithmetic mod 2**64, so the stream assigned to replica ``i`` is
identical on every platform and does not depend on how replicas are
scheduled across workers.
"""

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


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
