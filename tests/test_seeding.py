import numpy as np
import pytest

from zrpgap import coupling, reversal, seeding, stats
from zrpgap.seeding import derive_seed, make_generator, replica_generators

_MASK = (1 << 64) - 1
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)


def _unshift(y, shift):
    # inverse of x -> x ^ (x >> shift) on 64-bit words
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def _master_for(seed):
    """The master whose replica 0 gets ``seed``: splitmix64 run backwards."""
    z = _unshift(seed, 31)
    z = _unshift((z * pow(0x94D049BB133111EB, -1, 1 << 64)) & _MASK, 27)
    z = _unshift((z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & _MASK, 30)
    return (z - seeding._GOLDEN) & _MASK


def _assert_same_streams(master, indices):
    pairs = list(replica_generators(master, indices))
    assert len(pairs) == len(indices)
    for i, (seed, rng) in zip(indices, pairs):
        assert seed == derive_seed(master, i)
        ref = make_generator(seed)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.integers(0, 1 << 40, 3).tolist() == ref.integers(0, 1 << 40, 3).tolist()
        assert rng.standard_exponential(3).tolist() == ref.standard_exponential(3).tolist()


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_batch_generators_match_on_edge_seeds(seed):
    master = _master_for(seed)
    assert derive_seed(master, 0) == seed
    _assert_same_streams(master, range(3))


@pytest.mark.parametrize("master", [0, 7, 20260809, 2**64 - 1])
@pytest.mark.parametrize("count", [0, 1, 4096, 4097])
def test_batch_generators_match_across_block_boundaries(master, count):
    _assert_same_streams(master, range(5, 5 + count))


def test_batch_generators_reject_negative_indices():
    with pytest.raises(ValueError):
        list(replica_generators(1, range(-1, 3)))


def test_samplers_seed_replicas_in_batches(monkeypatch):
    calls = []

    def counting(seed):
        calls.append(seed)
        return make_generator(seed)

    for module in (seeding, coupling, reversal, stats):
        monkeypatch.setattr(module, "make_generator", counting)
    coupling.sample_coupling_times(4, 4, 40, 1)
    coupling.sample_marginal(4, 3, 1.0, 40, 2)
    reversal.sample_hitting_times(4, 1, 40, 3, 50.0, 0.6)
    reversal.drift_check(4, 1, 40, 4, 0.6)
    stats.estimate_window_constant(grid=((4, 1), (8, 1)), replicas=20, seed=5)
    assert calls == []


def _decode(rng, ops):
    """Replay ``ops`` from the generator's raw 64-bit words.

    ``random()`` is ``(word >> 11) * 2**-53``.  ``integers(k)`` is Lemire's
    method on 32-bit halves, the low half of a word first and the high half
    carried to the next draw; ``integers(1)`` is 0 and draws nothing.
    ``standard_exponential()`` stays numpy's call: it reads whole words and
    leaves the carry alone.  Returns the draws and the halves rejected.
    """
    raw = rng.bit_generator.random_raw
    carry = None
    draws, rejected = [], 0
    for op, k in ops:
        if op == "random":
            draws.append((raw() >> 11) * 2.0**-53)
        elif op == "exponential":
            draws.append(rng.standard_exponential())
        elif k == 1:
            draws.append(0)
        else:
            while True:
                if carry is None:
                    word = raw()
                    half, carry = word & 0xFFFFFFFF, word >> 32
                else:
                    half, carry = carry, None
                scaled = half * k
                if scaled % 2**32 >= 2**32 % k:
                    break
                rejected += 1
            draws.append(scaled >> 32)
    return draws, rejected


@pytest.mark.parametrize("k", [*range(1, 10), 3 * 10**9])
def test_raw_word_decode_matches_numpy_draws(k):
    # reversed tagged-chain runs decode their uniforms and source draws this way
    pick = make_generator(k)
    ops = [(("random", "integers", "integers", "exponential")[i], k)
           for i in pick.integers(0, 4, 3000).tolist()]
    calls = {"random": lambda rng, k: rng.random(),
             "integers": lambda rng, k: int(rng.integers(k)),
             "exponential": lambda rng, k: rng.standard_exponential()}
    reference = make_generator(derive_seed(11, k))
    expected = [calls[op](reference, k) for op, k in ops]
    draws, rejected = _decode(make_generator(derive_seed(11, k)), ops)
    assert draws == expected
    # 2**32 mod 3e9 rejects about 30% of halves; small k reject almost none
    assert (rejected > 300) == (k == 3 * 10**9)


def test_fresh_generators_carry_no_half_word():
    fresh = [make_generator(seed) for seed in EDGE_SEEDS]
    fresh += [rng for _, rng in replica_generators(7, range(4098))]
    assert all(rng.bit_generator.state["has_uint32"] == 0 for rng in fresh)
