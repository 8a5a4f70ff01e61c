"""The tagged-pair chain, its stationary weights, and its time reversal.

To analyze the identical-draw phase of the coupling it is enough to follow a
single ranked process with j high-priority particles plus two tagged
low-priority ones (ranks j+1 and j+2 in coupling terms): the phase ends when
the two tagged vertices hold equally many particles.  The chain state is
(eta, s, t) with full occupancy eta on K_n and tagged positions s != t; all
states with coincident tags are merged into one absorbing-side state, whose
exit rates are *designed* so that the weights

    pi(merged) = 1,      pi(eta, s, t) = eta(s) * eta(t)

solve the full balance equations exactly (checked in rational arithmetic).
The states are enumerated once per chain, as arrays (``_tagged_space``),
and every chain built from move rates goes through one assembler
(``_assemble``): the forward chain from its move counts and the reversed
attempt chain below from its closed-form products.  A chain holds its
rates in one format, int64 CSR arrays of numerators and denominators in
lowest terms; ``chain.rates`` is their exact ``Fraction`` view.  Reversal
scales the arrays by pi, the float rates divide them, and the balance and
rate-bound checks sum integer numerators over a common denominator.

With stationary weights in hand the chain can be time-reversed.  In the
reversed chain, low particles hop only to empty vertices, which removes the
big upward occupancy jumps that make the forward hitting time hard to
control; the survival law of the hitting time of the balanced set is the
same under both directions when started from pi, and that identity is
verified here by uniformization: pi restricted to the states off the
balanced set evolves forward under each direction's sub-generator there,
and the mass left in that block is the survival probability.

The reversed dynamics also admits an attempt form: each ordered pair (v, w)
attempts a move at rate ((eta(w)+1)/(high(w)+1)) / (n-1); the attempt fails
if v is empty, otherwise a uniformly chosen particle at v moves, highs
unconditionally and lows only onto empty vertices.  The simulation below
runs that attempt process, counting failed attempts into the currently
fuller tagged vertex, and tracks a compensated ladder functional of the
maximum tagged occupancy whose mean drift is checked to be non-negative.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import scipy  # scipy.sparse loads on first use, not at start-up

from .configurations import enumerate_configurations, move_kernel
from .errors import CapacityError, format_count
from .seeding import make_generator, replica_generators
from .spectral import _uniformize, occupation_tail

MERGED = "merged"

DEFAULT_MAX_CHAIN_STATES = 20_000


@dataclass
class TaggedPairChain:
    """Finite chain over (eta, s, t) states plus the merged tag-collision
    state, which is always state 0.

    Row i's rates are ``num/den`` to ``indices[indptr[i]:indptr[i+1]]``:
    int64 CSR arrays in lowest terms, in listing order, not by column.
    :attr:`rates` is their exact ``Fraction`` view.
    """

    n: int
    high_count: int
    states: tuple
    pi: tuple  # integer stationary weights, merged state has weight 1
    kind: str
    indptr: np.ndarray
    indices: np.ndarray
    num: np.ndarray
    den: np.ndarray

    @classmethod
    def _from_entries(cls, n, high_count, states, pi, kind, rows, cols, num, den):
        """The chain with rate ``num[k]/den[k]`` from ``rows[k]`` to
        ``cols[k]``: reduced to lowest terms, grouped by row by a stable
        sort, so each row keeps its entries' order.  No pair may repeat."""
        order = np.argsort(rows, kind="stable")
        indptr = np.searchsorted(rows[order], np.arange(len(states) + 1))
        gcd = np.gcd(num, den)
        return cls(n, high_count, states, pi, kind, indptr, cols[order],
                   (num // gcd)[order], (den // gcd)[order])

    @property
    def size(self) -> int:
        return len(self.states)

    def state_index(self, state) -> int:
        return self._index[state]

    @functools.cached_property
    def _index(self) -> dict:
        return {s: i for i, s in enumerate(self.states)}

    @functools.cached_property
    def _pi_cumulative(self) -> list:
        """Running sums of pi as floats, added in order: bitwise
        ``np.cumsum(np.asarray(pi, dtype=float))``."""
        return list(itertools.accumulate(float(p) for p in self.pi))

    def _rows(self) -> np.ndarray:
        """The row of every stored entry."""
        return np.repeat(np.arange(self.size), np.diff(self.indptr))

    @functools.cached_property
    def rates(self) -> tuple:
        """``rates[i] = {j: Fraction rate}`` in stored order, equal values
        sharing one ``Fraction``: the one place rate ``Fraction``s are made."""
        # each (num, den) pair as one 16-byte key
        pairs = np.stack([self.num, self.den], axis=1).view("V16").ravel()
        keys, which = np.unique(pairs, return_inverse=True)
        shared = [Fraction(num, den) for num, den in keys.view(np.int64).reshape(-1, 2).tolist()]
        index = list(range(self.size))  # one key object per state, shared by all rows
        entries = zip(map(index.__getitem__, self.indices.tolist()),
                      map(shared.__getitem__, which.tolist()))
        return tuple(dict(itertools.islice(entries, k)) for k in np.diff(self.indptr).tolist())

    def exit_rate(self, i) -> Fraction:
        return sum(self.rates[i].values(), Fraction(0))

    def as_dict(self) -> dict:
        def enc(state):
            if state == MERGED:
                return {"merged": True}
            eta, s, t = state
            return {"eta": list(eta), "s": s, "t": t}

        rows = self._rows()
        order = np.lexsort((self.indices, rows))  # each row by column
        entries = zip(*(a[order].tolist() for a in (rows, self.indices, self.num, self.den)))
        return {
            "n": self.n,
            "high_count": self.high_count,
            "kind": self.kind,
            "states": [enc(s) for s in self.states],
            "pi": list(self.pi),
            "rates": [{"from": i, "to": j, "num": num, "den": den}
                      for i, j, num, den in entries],
        }


def _check_chain_size(n: int, high_count: int, max_states: int) -> None:
    """Check the number of chain states, n (n-1) C(n+j-1, j) proper ones
    plus the merged one, against ``max_states`` before any is built."""
    if n < 2:
        raise ValueError("need n >= 2")
    if high_count < 0:
        raise ValueError("high_count must be non-negative")
    size = n * (n - 1) * math.comb(n + high_count - 1, high_count) + 1
    if size > max_states:
        raise CapacityError(f"{format_count(size)} chain states exceed the limit {max_states}")


class _Space(NamedTuple):
    """The proper states of one tagged chain, as arrays.

    Proper state k is chain state k + 1: occupancies ``eta[k]``, high
    particles ``high[k]`` and tags ``tags[k] = (s, t)``, ordered by s, then
    t, then the high configuration's rank, so ``high`` repeats the high
    configurations in rank order once per tag pair.
    """

    eta: np.ndarray
    high: np.ndarray
    tags: np.ndarray


def _tagged_space(n: int, high_count: int, max_states: int) -> _Space:
    """The one enumeration of a tagged chain's states: tags on distinct
    vertices, highs anywhere."""
    _check_chain_size(n, high_count, max_states)
    highs = enumerate_configurations(n, high_count, limit=max_states)
    pairs = np.array([(s, t) for s in range(n) for t in range(n) if s != t])
    tags = pairs.repeat(len(highs), axis=0)
    high = np.tile(highs, (len(pairs), 1))
    eta = high.copy()
    proper = np.arange(len(eta))
    eta[proper, tags[:, 0]] += 1
    eta[proper, tags[:, 1]] += 1
    return _Space(eta, high, tags)


class _Attempts(NamedTuple):
    """Integer move rates out of every occupied vertex of every proper state.

    Row i of the three ``(rows, n)`` arrays belongs to the pair
    (``state[i]``, ``v[i]``) of ``space`` with v occupied, listed by state
    and then v, and its column w holds the moves v -> w: a high particle
    moves at rate ``high_num/den`` and the tag at v at rate ``tag_num/den``.
    A zero numerator marks a move that cannot happen.  Both chains state
    their rates this way, :func:`_forward_kernel` and :func:`_attempt_kernel`
    over the same :func:`_tagged_space`, and :func:`_assemble` builds either.
    """

    space: _Space
    state: np.ndarray
    v: np.ndarray
    high_num: np.ndarray
    tag_num: np.ndarray
    den: np.ndarray


def _assemble(
    n: int, high_count: int, rows: _Attempts, kind: str, merged_rate=None
) -> TaggedPairChain:
    """The chain whose proper states move at the rates of ``rows``.

    Each possible move is one entry, listed by v, then w, then the high
    move before the tag move.  A high move keeps the tags; a tag move takes
    its tag to w, and onto the other tag it reaches the merged state 0.
    Proper state (eta, s, t) is chain state 1 + (s (n-1) + t - [t > s])
    size + rank(high).  The kernels give each target of a state one entry.
    ``merged_rate``, a ``(num, den)`` pair, is the merged state's exit rate
    to every proper state; without it the merged state has no exits.
    Kernel rates are products of a few occupancies and n - 1: far inside int64.
    """
    space = rows.space
    size = len(space.eta) // (n * (n - 1))
    # moved[v, w, h]: rank of high configuration h after a high moves v -> w
    moved = np.zeros((n, n, size), dtype=np.int64)
    moves = move_kernel(space.high[:size])
    for v in range(n):
        src, ranks = moves(v, range(n))
        moved[v][:, src] = ranks
    nums = np.stack([rows.high_num, rows.tag_num], axis=2)
    row, w, tag = np.nonzero(nums)
    num, den = nums[row, w, tag], rows.den[row, w]
    state, v = rows.state[row], rows.v[row]
    # each array is freed once used: kept, they would set the build's peak memory
    del rows, nums, row
    s, t = space.tags[state].T
    merged = tag & (w == s + t - v)
    rank = state % size
    s = np.where(tag & (v == s), w, s)
    t = np.where(tag & (v == t), w, t)
    rank = np.where(tag, rank, moved[v, w, rank])
    target = np.where(merged, 0, 1 + (s * (n - 1) + t - (t > s)) * size + rank)
    del s, t, v, w, tag, merged, rank, moved
    source = state + 1
    if merged_rate is not None:
        proper = np.arange(1, len(space.eta) + 1)
        source = np.concatenate([np.zeros_like(proper), source])
        target = np.concatenate([proper, target])
        num = np.concatenate([np.full_like(proper, merged_rate[0]), num])
        den = np.concatenate([np.full_like(proper, merged_rate[1]), den])
    s, t = space.tags.T
    proper = np.arange(len(s))
    etas = zip(*[iter(space.eta.ravel().tolist())] * n)  # one tuple per state
    states = (MERGED, *zip(etas, s.tolist(), t.tolist()))
    pi = (1, *(space.eta[proper, s] * space.eta[proper, t]).tolist())
    return TaggedPairChain._from_entries(
        n, high_count, states, pi, kind, source, target, num, den
    )


def _forward_kernel(n: int, high_count: int, max_states: int) -> _Attempts:
    """The forward move rule, stated once for the whole chain.

    Every ordered pair (v, w) fires at rate 1/(n-1) and moves a high
    particle from v when v holds any, else the tag at v.  A tag landing on
    the other tag reaches the merged state.  When the other tag would move
    onto it too, both moves reach that one state: the move from the lower
    of the two vertices carries their summed rate 2/(n-1), the other none.
    """
    space = _tagged_space(n, high_count, max_states)
    state, v = np.nonzero(space.eta)
    pairs = np.arange(len(v))
    lone = space.high[state, v] == 0  # no high at v: its tag moves
    moves = np.ones((len(v), n), dtype=np.int64)
    moves[pairs, v] = 0  # w = v is no move
    tag_num = moves * lone[:, None]
    s, t = space.tags[state[lone]].T
    other = s + t - v[lone]
    both = space.high[state[lone], other] == 0
    tag_num[pairs[lone], other] = np.where(both, 2 * (v[lone] < other), 1)
    return _Attempts(
        space, state, v, moves * ~lone[:, None], tag_num, np.full(moves.shape, n - 1)
    )


def build_tagged_pair_chain(
    n: int, high_count: int, max_states: int = DEFAULT_MAX_CHAIN_STATES
) -> TaggedPairChain:
    """Forward chain: ranked dynamics restricted to the tagged encoding.

    A firing vertex expels a high particle when one is present (highs
    outrank both tags), otherwise the resident tag moves (see
    :func:`_forward_kernel`).  The merged state exits toward every proper
    state at rate 2/(n-1): the unique design under which the product
    weights pi(eta, s, t) = eta(s) eta(t), pi(merged) = 1 solve the balance
    equations exactly (every proper state's within-pair deficit is 2/(n-1)
    regardless of its tagged occupancies, because both tag moves between
    singly occupied tagged vertices land in the merged class).
    """
    return _assemble(
        n, high_count, _forward_kernel(n, high_count, max_states), "forward", (2, n - 1)
    )


def balance_residuals(chain: TaggedPairChain, weights=None) -> list[Fraction]:
    """Exact inflow-minus-outflow at every non-merged state under ``weights``.

    With the product weights these are all exactly zero; any perturbed
    weight vector leaves nonzero residuals somewhere.  ``weights`` holds
    ints or ``Fraction`` values, one per state.  The sums run over Python
    ints: arbitrary weights put their common denominator far above int64.
    """
    pi = chain.pi if weights is None else list(weights)
    # integer weights and rates scaled by the lcm of their denominators
    weight_den = math.lcm(*(w.denominator for w in pi))
    rate_den = math.lcm(*np.unique(chain.den).tolist())
    weight = np.array([w.numerator * (weight_den // w.denominator) for w in pi], dtype=object)
    rows = chain._rows()
    flux = weight[rows] * chain.num.astype(object) * (rate_den // chain.den.astype(object))
    net = np.zeros(chain.size, dtype=object)  # inflow minus outflow, times the scale
    np.add.at(net, chain.indices, flux)
    np.subtract.at(net, rows, flux)
    scale = weight_den * rate_den
    return [
        Fraction(net[i], scale)
        for i, state in enumerate(chain.states)
        if state != MERGED
    ]


def reverse_chain(chain: TaggedPairChain, suppress_merged: bool = False) -> TaggedPairChain:
    """Time reversal: q_rev(j, i) = pi(i) q(i, j) / pi(j).

    ``suppress_merged`` drops every reversed transition into the merged
    state (and, since the suppressed chain then never visits it, the merged
    exit row too); this can only delay the balanced-set hitting time, which
    is the direction needed for upper bounds.

    The products ``pi(i) num`` and ``pi(j) den`` are taken in int64; a
    chain where ``max(pi)`` times the largest numerator or denominator
    reaches 2**63 is refused as a :class:`CapacityError`.
    """
    pi = np.array(chain.pi, dtype=np.int64)
    largest = max(chain.num.max(initial=0), chain.den.max(initial=0))
    if int(pi.max()) * int(largest) >= 2**63:
        raise CapacityError("reversed rates of this chain overflow int64")
    rows, cols = chain._rows(), chain.indices
    keep = (rows != 0) & (cols != 0) if suppress_merged else slice(None)
    rows, cols = rows[keep], cols[keep]
    kind = "reversed_nomerge" if suppress_merged else "reversed"
    return TaggedPairChain._from_entries(
        chain.n, chain.high_count, chain.states, chain.pi, kind,
        cols, rows, pi[rows] * chain.num[keep], pi[cols] * chain.den[keep],
    )


def _attempt_kernel(n: int, high_count: int) -> _Attempts:
    """The attempt formula, stated once for the whole chain.

    The pair (v, w) attempts at rate ((eta(w)+1)/(high(w)+1))/(n-1), and a
    uniformly chosen particle at v moves: a high one always, a tag only
    onto an empty w.  So the high move has numerator (eta(w)+1) high(v),
    the tag move (eta(w)+1) when v holds a tag and w is empty, both over
    (high(w)+1) (n-1) eta(v).
    """
    space = _tagged_space(n, high_count, DEFAULT_MAX_CHAIN_STATES)
    eta, high = space.eta, space.high
    state, v = np.nonzero(eta)
    eta_w = eta[state]
    attempt = eta_w + 1
    high_v = high[state, v]
    high_num = attempt * high_v[:, None]
    high_num[np.arange(len(v)), v] = 0  # w = v is no move
    tag_num = attempt * ((eta[state, v] - high_v)[:, None] * (eta_w == 0))
    den = (high[state] + 1) * ((n - 1) * eta[state, v])[:, None]
    return _Attempts(space, state, v, high_num, tag_num, den)


def reversed_attempt_rates(n: int, high_count: int) -> TaggedPairChain:
    """Closed-form reversed rates from the attempt description.

    :func:`_attempt_kernel`'s rates, put into the chain by the same
    :func:`_assemble` as the forward chain's.  A tag only moves onto an
    empty vertex, so the merged state is never reached.  Used as an
    independent construction to cross-check :func:`reverse_chain`.
    """
    return _assemble(n, high_count, _attempt_kernel(n, high_count), "reversed_nomerge")


def balanced_states(chain: TaggedPairChain) -> list[int]:
    """Indices of the hitting set: equal tagged occupancies, plus merged."""
    return [i for i, state in enumerate(chain.states)
            if state == MERGED or state[0][state[1]] == state[0][state[2]]]


def reversed_rate_bounds_hold(n: int, high_count: int) -> bool:
    """Per-state rate bounds of the reversed dynamics, checked exactly.

    Away from the balanced set, every occupied vertex v loses mass at total
    rate >= 1 - 1/eta(v).  The matching bound on attempts in, a total rate
    (eta(v)+1)/(high(v)+1) <= 1 + 1/eta(v), holds in every state: it reduces
    to eta(v) <= high(v) + 1, and the two tags sit on distinct vertices.

    The total out of v sums :func:`_attempt_kernel`'s numerators over the
    lcm of the row's denominators.  For every chain the state limit admits
    the products compared stay below 2**51 (largest at n = 2), inside int64.
    """
    a = _attempt_kernel(n, high_count)
    eta = a.space.eta
    eta_v = eta[a.state, a.v]
    s, t = a.space.tags[a.state].T
    unbalanced = eta[a.state, s] != eta[a.state, t]
    common = np.lcm.reduce(a.den, axis=1)
    expel = ((a.high_num + a.tag_num) * (common[:, None] // a.den)).sum(axis=1)
    # expel < 1 - 1/eta(v), cleared of denominators
    return not np.any(unbalanced & (expel * eta_v < (eta_v - 1) * common))


# ---------------------------------------------------------------------------
# Drift bookkeeping for the reversed hitting-time simulation
# ---------------------------------------------------------------------------

class DriftParams:
    """Ladder potential parameters derived from the density and a constant.

    ``scale`` = 64 (rho + 1) / c_const and ``alpha`` = 1/(scale (scale+1)).
    Rung weights w(k) = -max(1/(k(k-1)), alpha) for k >= 2 saturate at
    -alpha once k exceeds the scale; their partial sums form the bounded
    non-increasing ladder potential.
    """

    def __init__(self, density: float, c_const: float):
        if not 0 < c_const < math.inf:
            raise ValueError("the window constant c must be positive and finite")
        self.scale = 64.0 * (density + 1.0) / c_const
        self.alpha = 1.0 / (self.scale * (self.scale + 1.0))
        self._ladder_sums = [0.0, 0.0]

    def rung(self, k: int) -> float:
        if k < 2:
            raise ValueError("rungs start at 2")
        return -max(1.0 / (k * (k - 1.0)), self.alpha)

    def ladder(self, k: int) -> float:
        """Sum of rung weights 2..k (zero for k <= 1).

        The partial sums are added in that order once each and kept, so
        every call returns the float of the plain left-to-right sum.
        """
        sums = self._ladder_sums
        while len(sums) <= k:
            sums.append(sums[-1] + self.rung(len(sums)))
        return sums[k] if k > 1 else 0.0


@functools.lru_cache(maxsize=16)
def _drift_params(density: float, c_const: float) -> DriftParams:
    """One :class:`DriftParams` per (density, c_const), shared by every run
    with those values, so scale, alpha and ladder sums are set up once."""
    return DriftParams(density=density, c_const=c_const)


@dataclass(frozen=True)
class ReversedRun:
    """One reversed-chain run until the balanced set, a horizon, or t_ref."""

    seed: int
    hit: bool
    stop_time: float
    censored: bool
    y_start: float
    y_final: float
    failed_boosts: int
    max_occ_seen: int
    events: int

    @property
    def drift_increment(self) -> float:
        return self.y_final - self.y_start


# numpy's random() is (word >> 11) * 2**-53; integers() draws 32-bit halves
_ULP = 2.0**-53
_HALF = 1 << 32
_LOW = _HALF - 1


def _sample_start(chain: TaggedPairChain, rng) -> int:
    """A state index drawn from pi with one uniform draw."""
    cum = chain._pi_cumulative
    return bisect.bisect_right(cum, rng.random() * cum[-1])


def simulate_reversed_hitting(
    chain: TaggedPairChain,
    seed: int,
    horizon: float,
    c_const: float,
    t_ref: float | None = None,
    start=None,
    check_identity: bool = False,
    *,
    rng=None,
) -> ReversedRun:
    """Run the reversed attempt dynamics until the balanced set is hit.

    ``chain`` must be the forward chain; its stationary weights provide the
    default start law.  ``t_ref`` stops the run early at a fixed time, which
    is what the averaged drift check wants (the compensated functional is
    evaluated at min(t_ref, hitting time)).  Horizon censoring is flagged,
    never silently dropped.  ``check_identity`` re-derives the potential as
    ladder(max) + jump account after every event and fails hard on any
    mismatch.

    The run draws from ``rng`` when given, else from ``make_generator(seed)``,
    exactly what these numpy calls would return: per event
    ``standard_exponential()`` for the holding time, ``random()`` for the
    target w by attempt weight, ``integers(n - 1)`` for the source v != w
    and, when v is occupied, ``random()`` for high or tag.  Only the
    exponential is a numpy call.  The rest is decoded from
    ``bit_generator.random_raw()`` words: ``random()`` is
    ``(word >> 11) * 2**-53``, and ``integers(k)`` is Lemire's method on
    32-bit halves of words, low half first, the high half carried to the
    next draw as PCG64 carries it.  ``integers(1)`` is 0 and draws nothing,
    so at n = 2 the source costs no draw.  The run keeps that carry itself
    and starts with none, so ``rng`` must be fresh (as ``make_generator``
    and ``replica_generators`` hand it over), and the run consumes it.
    """
    if chain.kind != "forward":
        raise ValueError("pass the forward chain; the reversal is built internally")
    n = chain.n
    rng = make_generator(seed) if rng is None else rng
    state = chain.states[_sample_start(chain, rng)] if start is None else start
    params = _drift_params((chain.high_count + 2) / n, c_const)
    if state == MERGED:
        return ReversedRun(seed, True, 0.0, False, 0.0, 0.0, 0, 0, 0)

    raw = rng.bit_generator.random_raw
    exponential = rng.standard_exponential
    sources = n - 1  # v is drawn by integers(n - 1), then shifted past w
    reject = _HALF % sources  # Lemire rejects a half h iff h * sources % 2**32 < reject
    carry = -1  # the unused high half of the last source word, -1 if none
    eta = list(state[0])
    s, t = state[1], state[2]
    high = list(eta)
    high[s] -= 1
    high[t] -= 1
    # the attempt weight of each target; a move changes only v's and w's
    weights = [(e + 1) / (h + 1) for e, h in zip(eta, high)]
    total = math.fsum(weights)
    cumulative = list(itertools.accumulate(weights))
    max_occ = m_seen = max(eta[s], eta[t])
    jumps = 0.0
    potential = y_start = params.ladder(max_occ)  # invariant: ladder(max_occ) + jumps
    boosts = events = 0
    clock = 0.0
    stop = min(horizon, t_ref) if t_ref is not None else horizon

    while eta[s] != eta[t]:
        dt = exponential() / total
        if clock + dt >= stop:
            clock = stop
            break
        clock += dt
        events += 1
        w = bisect.bisect_right(cumulative, (raw() >> 11) * _ULP * total)
        if w == n:  # u * total above the running sums' last entry
            w = n - 1
        v = 0
        if sources > 1:
            while True:
                if carry < 0:
                    word = raw()
                    half, carry = word & _LOW, word >> 32
                else:
                    half, carry = carry, -1
                scaled = half * sources
                if scaled & _LOW >= reject:
                    break
            v = scaled >> 32
        if v >= w:
            v += 1
        if eta[v] == 0:
            # a failed attempt into the fuller tagged vertex
            if w == (s if eta[s] > eta[t] else t):
                boosts += 1
            continue
        if (raw() >> 11) * _ULP < high[v] / eta[v]:
            # a high particle moves unconditionally
            high[v] -= 1
            high[w] += 1
        elif eta[w] == 0:
            # the tag at v moves only onto an empty vertex
            if v == s:
                s = w
            else:
                t = w
        else:
            continue
        eta[v] -= 1
        eta[w] += 1
        weights[v] = (eta[v] + 1) / (high[v] + 1)
        weights[w] = (eta[w] + 1) / (high[w] + 1)
        total = math.fsum(weights)
        cumulative = list(itertools.accumulate(weights))
        es, et = eta[s], eta[t]
        new_max = es if es > et else et
        if new_max > max_occ:
            if new_max != max_occ + 1:
                raise RuntimeError("tagged maximum jumped up by more than one")
            potential += params.rung(new_max)
            if new_max > m_seen:
                m_seen = new_max
        elif new_max < max_occ:
            # downward jump: ladder gains back rungs new_max+1..max_occ but the
            # skipped rungs below the top are charged to the jump account
            for k in range(new_max + 1, max_occ):
                jumps += params.rung(k)
            potential -= params.rung(max_occ)
        max_occ = new_max
        if check_identity and abs(potential - (params.ladder(max_occ) + jumps)) > 1e-9:
            raise RuntimeError("drift bookkeeping broken: potential != ladder(max) + jumps")

    hit = eta[s] == eta[t]
    censored = not hit and (t_ref is None or clock < t_ref)
    y_final = potential - params.alpha * boosts + 4.0 * params.alpha / params.scale * clock
    return ReversedRun(seed, hit, clock, censored, y_start, y_final, boosts, m_seen, events)


def sample_hitting_times(
    n: int,
    high_count: int,
    replicas: int,
    seed: int,
    horizon: float,
    c_const: float,
) -> list[ReversedRun]:
    if replicas < 1:
        raise ValueError("need at least one replica")
    if not horizon >= 0:
        raise ValueError("horizon must be non-negative")
    chain = build_tagged_pair_chain(n, high_count)
    return [
        simulate_reversed_hitting(chain, replica_seed, horizon, c_const, rng=rng)
        for replica_seed, rng in replica_generators(seed, range(replicas))
    ]


@dataclass(frozen=True)
class DriftCheck:
    mean_rate: float
    stderr_rate: float
    replicas: int
    t_ref: float
    c_const: float

    @property
    def nonnegative_within_2se(self) -> bool:
        return self.mean_rate >= -2.0 * self.stderr_rate

    def as_dict(self) -> dict:
        return {
            "mean_drift_per_time": self.mean_rate,
            "stderr": self.stderr_rate,
            "replicas": self.replicas,
            "t_ref": self.t_ref,
            "c_const": self.c_const,
            "nonnegative_within_2se": self.nonnegative_within_2se,
        }


def drift_check(
    n: int,
    high_count: int,
    replicas: int,
    seed: int,
    c_const: float,
    t_ref: float = 5.0,
) -> DriftCheck:
    """Average per-time increment of the compensated ladder functional.

    The functional (ladder potential + jump account - alpha * failed boosts
    + drift compensator) stopped at the balanced set is a submartingale, so
    its mean increment over [0, t_ref] should be non-negative up to noise.
    Each run stops at min(t_ref, 1e9), its horizon.
    """
    if replicas < 2:
        raise ValueError("need at least two replicas for a standard error")
    if not 0 < t_ref < math.inf:
        raise ValueError("t_ref must be positive and finite")
    chain = build_tagged_pair_chain(n, high_count)
    increments = np.empty(replicas)
    for i, (replica_seed, rng) in enumerate(replica_generators(seed, range(replicas))):
        run = simulate_reversed_hitting(
            chain, replica_seed, 1e9, c_const, t_ref=t_ref, rng=rng
        )
        increments[i] = run.drift_increment
    mean = float(increments.mean()) / t_ref
    stderr = float(increments.std(ddof=1)) / math.sqrt(replicas) / t_ref
    return DriftCheck(
        mean_rate=mean,
        stderr_rate=stderr,
        replicas=replicas,
        t_ref=t_ref,
        c_const=c_const,
    )


# ---------------------------------------------------------------------------
# Exact transient agreement between forward and reversed hitting laws
# ---------------------------------------------------------------------------

def _float_rates(chain: TaggedPairChain) -> scipy.sparse.csr_matrix:
    """The off-diagonal rates as a float CSR matrix, column indices sorted.

    The sort runs on copies: scipy may keep the index arrays it is given,
    and the chain's own rows must keep their order.
    Each rate is correctly rounded while its num and den stay below 2**53.
    """
    rates = scipy.sparse.csr_matrix(
        (chain.num / chain.den, chain.indices.copy(), chain.indptr.copy()),
        shape=(chain.size, chain.size),
    )
    rates.sort_indices()
    return rates


def _float_generator(chain: TaggedPairChain) -> scipy.sparse.csr_matrix:
    """:func:`_float_rates` less the diagonal of its row sums."""
    rates = _float_rates(chain)
    return rates - scipy.sparse.diags(np.asarray(rates.sum(axis=1)).ravel())


@dataclass(frozen=True)
class SurvivalAgreement:
    times: tuple[float, ...]
    forward: tuple[float, ...]
    backward: tuple[float, ...]
    sup_difference: float


def survival_agreement(chain: TaggedPairChain, times) -> SurvivalAgreement:
    """Exact P(hitting time > t) under forward vs reversed dynamics, from pi.

    Both directions are started from the normalized stationary weights and
    absorbed on the balanced set; the two survival curves agree identically,
    which is the reversal identity this module is built around.  Chains
    above ``DEFAULT_MAX_CHAIN_STATES`` states are refused.
    """
    if chain.size > DEFAULT_MAX_CHAIN_STATES:
        raise CapacityError(f"{chain.size} states exceed the limit {DEFAULT_MAX_CHAIN_STATES}")
    absorbed = set(balanced_states(chain))
    keep = [i for i in range(chain.size) if i not in absorbed]
    times = np.asarray(times, dtype=float)
    pi = np.asarray(chain.pi, dtype=float)
    start = pi[keep] / pi.sum()
    curves = []
    for direction in (chain, reverse_chain(chain)):
        block = _float_generator(direction)[keep][:, keep]
        mass = _uniformize(block, start, times)
        curves.append(mass.sum(axis=1))
    fwd, rev = curves
    return SurvivalAgreement(
        times=tuple(float(t) for t in times),
        forward=tuple(float(x) for x in fwd),
        backward=tuple(float(x) for x in rev),
        sup_difference=float(np.max(np.abs(fwd - rev))),
    )


# ---------------------------------------------------------------------------
# Occupation-time events under reversal: an exact inequality check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OccupationReversalReport:
    forward: float
    reversed_max: float
    constant: float
    bound_holds: bool


def occupation_time_inequality(
    chain: TaggedPairChain,
    threshold: float,
    x_state,
    start_state,
    horizon: float,
) -> OccupationReversalReport:
    """Check P_y(occupation of x >= a) <= c * max_z P_rev_z(same event).

    The constant is c = |S| * max pi-ratio.  Both sides are exact, read from
    the uniformized occupation-time law :func:`spectral.occupation_tail` of
    the set {x}: the forward value at y and the largest reversed value over
    all starts z.  Its work grows like nnz (Lambda horizon)^2, where Lambda,
    the largest exit rate, is the merged state's, 2n C(n+j-1, j).  Threshold
    events are measurable from occupation times alone, which is the event
    class the inequality covers.  Chains above ``DEFAULT_MAX_CHAIN_STATES``
    states are refused.
    """
    if chain.size > DEFAULT_MAX_CHAIN_STATES:
        raise CapacityError(f"{chain.size} states exceed the limit {DEFAULT_MAX_CHAIN_STATES}")
    in_x = np.arange(chain.size) == chain.state_index(x_state)
    y_idx = chain.state_index(start_state)
    forward = float(occupation_tail(_float_generator(chain), in_x, horizon, threshold)[y_idx])
    reversed_max = float(
        occupation_tail(_float_generator(reverse_chain(chain)), in_x, horizon, threshold).max()
    )
    pis = [float(p) for p in chain.pi]
    constant = chain.size * max(pis) / min(pis)
    return OccupationReversalReport(
        forward=forward,
        reversed_max=reversed_max,
        constant=constant,
        bound_holds=forward <= constant * reversed_max,
    )
