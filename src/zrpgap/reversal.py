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
Rates are built as integer numerators (move counts or closed-form
products) and become a ``Fraction`` once, at the end, equal values sharing
one object; the balance and rate-bound checks sum integer numerators over
a common denominator.

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
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import sparse

from .configurations import enumerate_configurations
from .errors import CapacityError
from .seeding import derive_seed, make_generator
from .spectral import UNIFORMIZATION_TAIL, _uniformize
from .stats import MCEstimate

MERGED = "merged"

DEFAULT_MAX_CHAIN_STATES = 20_000


@dataclass
class TaggedPairChain:
    """Finite chain over (eta, s, t) states plus the merged tag-collision state."""

    n: int
    high_count: int
    states: tuple
    rates: tuple  # rates[i] = {j: Fraction rate}
    pi: tuple  # integer stationary weights, merged state has weight 1
    kind: str = "forward"

    @property
    def size(self) -> int:
        return len(self.states)

    def state_index(self, state) -> int:
        return self._index[state]

    def __post_init__(self):
        self._index = {s: i for i, s in enumerate(self.states)}

    def exit_rate(self, i) -> Fraction:
        return sum(self.rates[i].values(), Fraction(0))

    def as_dict(self) -> dict:
        def enc(state):
            if state == MERGED:
                return {"merged": True}
            eta, s, t = state
            return {"eta": list(eta), "s": s, "t": t}

        return {
            "n": self.n,
            "high_count": self.high_count,
            "kind": self.kind,
            "states": [enc(s) for s in self.states],
            "pi": list(self.pi),
            "rates": [
                {
                    "from": i,
                    "to": j,
                    "num": q.numerator,
                    "den": q.denominator,
                }
                for i, row in enumerate(self.rates)
                for j, q in sorted(row.items())
            ],
        }


def _tagged_space(n: int, high_count: int, max_states: int):
    """States (merged first), their index, and the integer weights pi.

    Proper states are (eta, s, t): tags on distinct vertices, highs
    anywhere, n (n-1) C(n+j-1, j) of them; the count is checked against
    ``max_states`` before any state is built.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if high_count < 0:
        raise ValueError("high_count must be non-negative")
    size = n * (n - 1) * math.comb(n + high_count - 1, high_count) + 1
    if size > max_states:
        raise CapacityError(f"{size} chain states exceed the limit {max_states}")
    highs = enumerate_configurations(n, high_count, limit=max_states)
    states = [MERGED]
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            for high in highs:
                eta = list(high)
                eta[s] += 1
                eta[t] += 1
                states.append((tuple(eta), s, t))
    index = {state: i for i, state in enumerate(states)}
    pi = tuple(
        1 if state == MERGED else state[0][state[1]] * state[0][state[2]]
        for state in states
    )
    return states, index, pi


def _highs(state) -> list[int]:
    """High-particle count per vertex: the occupancy minus the two tags."""
    eta, s, t = state
    high = list(eta)
    high[s] -= 1
    high[t] -= 1
    return high


def _rate_maker():
    """``Fraction`` that builds each distinct (numerator, denominator) once.

    A rate table repeats a few dozen values over thousands of entries, so
    its rows share these immutable objects; the cache lives as long as the
    table being built.
    """
    return functools.lru_cache(maxsize=None)(Fraction)


def _moved(eta, v: int, w: int) -> tuple[int, ...]:
    moved = list(eta)
    moved[v] -= 1
    moved[w] += 1
    return tuple(moved)


def build_tagged_pair_chain(
    n: int, high_count: int, max_states: int = DEFAULT_MAX_CHAIN_STATES
) -> TaggedPairChain:
    """Forward chain: ranked dynamics restricted to the tagged encoding.

    A firing vertex expels a high particle when one is present (highs
    outrank both tags), otherwise the resident tag moves; the first tag
    outranks the second.  Moves landing a tag on the other tag's vertex go
    to the merged state.  The merged state exits toward every proper state
    at rate 2/(n-1): the unique design under which the product weights
    pi(eta, s, t) = eta(s) eta(t), pi(merged) = 1 solve the balance
    equations exactly (every proper state's within-pair deficit is
    2/(n-1) regardless of its tagged occupancies, because both tag moves
    between singly occupied tagged vertices land in the merged class).
    """
    states, index, pi = _tagged_space(n, high_count, max_states)
    rate = _rate_maker()
    rates = [dict() for _ in states]

    for i, state in enumerate(states[1:], start=1):
        eta, s, t = state
        high = _highs(state)
        for v in range(n):
            if eta[v] == 0:
                continue
            for w in range(n):
                if w == v:
                    continue
                moved = _moved(eta, v, w)
                if high[v] > 0:
                    target = (moved, s, t)
                elif v == s:
                    target = MERGED if w == t else (moved, w, t)
                else:  # v == t holds: eta[v] > 0 with no high means a tag is here
                    target = MERGED if w == s else (moved, s, w)
                j = index[target]
                rates[i][j] = rates[i].get(j, 0) + 1
        row = rates[i]
        for j, moves in row.items():
            row[j] = rate(moves, n - 1)

    # designed exit rates from the merged state (forced by stationarity of
    # the product weights; see the docstring)
    exit_rate = rate(2, n - 1)
    rates[0] = {i: exit_rate for i in range(1, len(states))}
    return TaggedPairChain(
        n=n,
        high_count=high_count,
        states=tuple(states),
        rates=tuple(rates),
        pi=pi,
        kind="forward",
    )


def balance_residuals(chain: TaggedPairChain, weights=None) -> list[Fraction]:
    """Exact inflow-minus-outflow at every non-merged state under ``weights``.

    With the product weights these are all exactly zero; any perturbed
    weight vector leaves nonzero residuals somewhere.  ``weights`` holds
    ints or ``Fraction`` values, one per state.
    """
    pi = chain.pi if weights is None else list(weights)
    # integer weights and rates scaled by the lcm of their denominators
    weight_den = math.lcm(*(w.denominator for w in pi))
    rate_den = math.lcm(*(q.denominator for row in chain.rates for q in row.values()))
    net = [0] * chain.size  # inflow minus outflow, times weight_den * rate_den
    for i, row in enumerate(chain.rates):
        weight = pi[i].numerator * (weight_den // pi[i].denominator)
        out = 0
        for j, q in row.items():
            flux = weight * q.numerator * (rate_den // q.denominator)
            net[j] += flux
            out += flux
        net[i] -= out
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
    """
    rate = _rate_maker()
    rates = [dict() for _ in chain.states]
    merged_idx = chain.states.index(MERGED)
    for i, row in enumerate(chain.rates):
        if suppress_merged and i == merged_idx:
            continue  # forward exits of merged reverse into it
        # a row names each target once, so rates[j][i] is set once
        for j, q in row.items():
            rates[j][i] = rate(chain.pi[i] * q.numerator, chain.pi[j] * q.denominator)
    if suppress_merged:
        rates[merged_idx] = {}
    kind = "reversed_nomerge" if suppress_merged else "reversed"
    return TaggedPairChain(
        n=chain.n,
        high_count=chain.high_count,
        states=chain.states,
        rates=tuple(rates),
        pi=chain.pi,
        kind=kind,
    )


def reversed_attempt_rates(n: int, high_count: int) -> TaggedPairChain:
    """Closed-form reversed rates from the attempt description.

    For each ordered (v, w), attempts arrive at rate
    ((eta(w)+1)/(high(w)+1))/(n-1); a uniformly chosen particle at v moves,
    high particles always, tagged ones only onto empty vertices.  Used as an
    independent construction to cross-check :func:`reverse_chain`.
    """
    states, index, pi = _tagged_space(n, high_count, DEFAULT_MAX_CHAIN_STATES)
    rate = _rate_maker()
    rates = [dict() for _ in states]
    for i, state in enumerate(states[1:], start=1):
        eta, s, t = state
        high = _highs(state)
        for v in range(n):
            if eta[v] == 0:
                continue
            for w in range(n):
                if w == v:
                    continue
                # attempt rate (eta(w)+1)/((high(w)+1)(n-1)) times the chance
                # that the chosen particle at v is of the kind that moves;
                # each (v, w) and kind reaches its own target, once per row
                attempt_den = (high[w] + 1) * (n - 1) * eta[v]
                moved = _moved(eta, v, w)
                if high[v] > 0:
                    j = index[(moved, s, t)]
                    rates[i][j] = rate((eta[w] + 1) * high[v], attempt_den)
                if v in (s, t):
                    # the tag at v moves with probability 1/eta(v), onto empty w
                    if eta[w] == 0:
                        target = (moved, w, t) if v == s else (moved, s, w)
                        j = index[target]
                        rates[i][j] = rate(eta[w] + 1, attempt_den)
    return TaggedPairChain(
        n=n,
        high_count=high_count,
        states=tuple(states),
        rates=tuple(rates),
        pi=pi,
        kind="reversed_nomerge",
    )


def balanced_states(chain: TaggedPairChain) -> list[int]:
    """Indices of the hitting set: equal tagged occupancies, plus merged."""
    out = []
    for i, state in enumerate(chain.states):
        if state == MERGED:
            out.append(i)
        else:
            eta, s, t = state
            if eta[s] == eta[t]:
                out.append(i)
    return out


def reversed_rate_bounds_hold(n: int, high_count: int) -> bool:
    """Per-state rate bounds of the reversed dynamics, checked exactly.

    Away from the balanced set, every occupied vertex v loses mass at total
    rate >= 1 - 1/eta(v) and receives attempts at total rate <= 1 + 1/eta(v).
    """
    chain = reversed_attempt_rates(n, high_count)
    for i, state in enumerate(chain.states):
        if state == MERGED:
            continue
        eta, s, t = state
        if eta[s] == eta[t]:
            continue
        high = _highs(state)
        # expel[v]: total rate of moves out of v, over the row's common
        # denominator; a move's source is the vertex whose occupancy drops
        row = chain.rates[i]
        den = math.lcm(*(q.denominator for q in row.values()))
        expel = [0] * n
        for j, q in row.items():
            target = chain.states[j]
            if target == MERGED:
                continue
            moved = target[0]
            v = next(x for x in range(n) if moved[x] < eta[x])
            expel[v] += q.numerator * (den // q.denominator)
        for v in range(n):
            if eta[v] == 0:
                continue
            # attempts in: (eta(v)+1)/(high(v)+1) > 1 + 1/eta(v) iff eta(v) > high(v)+1
            if eta[v] > high[v] + 1:
                return False
            # expel < 1 - 1/eta(v), cleared of denominators
            if expel[v] * eta[v] < (eta[v] - 1) * den:
                return False
    return True


# ---------------------------------------------------------------------------
# Drift bookkeeping for the reversed hitting-time simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriftParams:
    """Ladder potential parameters derived from the density and a constant.

    ``scale`` = 64 (rho + 1) / c_const and ``alpha`` = 1/(scale (scale+1)).
    Rung weights w(k) = -max(1/(k(k-1)), alpha) for k >= 2 saturate at
    -alpha once k exceeds the scale; their partial sums form the bounded
    non-increasing ladder potential.
    """

    density: float
    c_const: float

    @property
    def scale(self) -> float:
        return 64.0 * (self.density + 1.0) / self.c_const

    @property
    def alpha(self) -> float:
        s = self.scale
        return 1.0 / (s * (s + 1.0))

    def rung(self, k: int) -> float:
        if k < 2:
            raise ValueError("rungs start at 2")
        return -max(1.0 / (k * (k - 1.0)), self.alpha)

    def ladder(self, k: int) -> float:
        """Sum of rung weights 2..k (zero for k <= 1)."""
        total = 0.0
        for i in range(2, k + 1):
            total += self.rung(i)
        return total


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


def _sample_start(chain: TaggedPairChain, rng) -> int:
    weights = np.asarray(chain.pi, dtype=float)
    cum = np.cumsum(weights)
    u = rng.random() * cum[-1]
    return int(np.searchsorted(cum, u, side="right"))


def simulate_reversed_hitting(
    chain: TaggedPairChain,
    seed: int,
    horizon: float,
    c_const: float,
    t_ref: float | None = None,
    start=None,
    check_identity: bool = False,
) -> ReversedRun:
    """Run the reversed attempt dynamics until the balanced set is hit.

    ``chain`` must be the forward chain; its stationary weights provide the
    default start law.  ``t_ref`` stops the run early at a fixed time, which
    is what the averaged drift check wants (the compensated functional is
    evaluated at min(t_ref, hitting time)).  Horizon censoring is flagged,
    never silently dropped.  ``check_identity`` re-derives the potential as
    ladder(max) + jump account after every event and fails hard on any
    mismatch.
    """
    if chain.kind != "forward":
        raise ValueError("pass the forward chain; the reversal is built internally")
    n = chain.n
    rng = make_generator(seed)
    if start is None:
        idx = _sample_start(chain, rng)
        state = chain.states[idx]
    else:
        state = start
    density = (chain.high_count + 2) / n
    params = DriftParams(density=density, c_const=c_const)

    if state == MERGED:
        return ReversedRun(seed, True, 0.0, False, 0.0, 0.0, 0, 0, 0)
    eta = list(state[0])
    s, t = state[1], state[2]
    if eta[s] == eta[t]:
        y0 = params.ladder(eta[s])
        return ReversedRun(seed, True, 0.0, False, y0, y0, 0, eta[s], 0)

    max_occ = max(eta[s], eta[t])
    ladder_val = params.ladder(max_occ)
    jumps = 0.0
    potential = ladder_val  # invariant: potential == ladder(max_occ) + jumps
    boosts = 0
    alpha = params.alpha
    drift_rate = 4.0 * alpha / params.scale
    y_start = potential
    m_seen = max_occ

    clock = 0.0
    events = 0
    stop = min(horizon, t_ref) if t_ref is not None else horizon
    hit = False
    high = _highs(state)

    while True:
        weights = [(eta[w] + 1) / (high[w] + 1) for w in range(n)]
        total = math.fsum(weights)
        dt = rng.standard_exponential() / total
        if clock + dt >= stop:
            clock = stop
            break
        clock += dt
        events += 1
        u = rng.random() * total
        acc = 0.0
        w = n - 1
        for cand in range(n):
            acc += weights[cand]
            if u < acc:
                w = cand
                break
        v = int(rng.integers(n - 1))
        if v >= w:
            v += 1
        fuller = s if eta[s] > eta[t] else t
        if eta[v] == 0:
            if w == fuller:
                boosts += 1
            continue
        moved = False
        if rng.random() < high[v] / eta[v]:
            # a high particle moves unconditionally
            high[v] -= 1
            high[w] += 1
            eta[v] -= 1
            eta[w] += 1
            moved = True
        else:
            # the tag at v moves only onto an empty vertex
            if eta[w] == 0:
                eta[v] -= 1
                eta[w] += 1
                if v == s:
                    s = w
                else:
                    t = w
                moved = True
        if not moved:
            continue
        new_max = max(eta[s], eta[t])
        if new_max > max_occ:
            if new_max != max_occ + 1:
                raise RuntimeError("tagged maximum jumped up by more than one")
            potential += params.rung(new_max)
        elif new_max < max_occ:
            # downward jump: ladder gains back rungs new_max+1..max_occ but the
            # skipped rungs below the top are charged to the jump account
            for k in range(new_max + 1, max_occ):
                jumps += params.rung(k)
            potential -= params.rung(max_occ)
        max_occ = new_max
        m_seen = max(m_seen, new_max)
        if check_identity and abs(potential - (params.ladder(max_occ) + jumps)) > 1e-9:
            raise RuntimeError(
                "drift bookkeeping broken: potential != ladder(max) + jumps"
            )
        if eta[s] == eta[t]:
            hit = True
            break

    y_final = potential - alpha * boosts + drift_rate * clock
    censored = (not hit) and (t_ref is None or clock < t_ref)
    return ReversedRun(
        seed=seed,
        hit=hit,
        stop_time=clock,
        censored=censored,
        y_start=y_start,
        y_final=y_final,
        failed_boosts=boosts,
        max_occ_seen=m_seen,
        events=events,
    )


def sample_hitting_times(
    n: int,
    high_count: int,
    replicas: int,
    seed: int,
    horizon: float,
    c_const: float,
) -> list[ReversedRun]:
    chain = build_tagged_pair_chain(n, high_count)
    return [
        simulate_reversed_hitting(chain, derive_seed(seed, i), horizon, c_const)
        for i in range(replicas)
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
    horizon: float = 1e9,
) -> DriftCheck:
    """Average per-time increment of the compensated ladder functional.

    The functional (ladder potential + jump account - alpha * failed boosts
    + drift compensator) stopped at the balanced set is a submartingale, so
    its mean increment over [0, t_ref] should be non-negative up to noise.
    """
    chain = build_tagged_pair_chain(n, high_count)
    increments = np.empty(replicas)
    for i in range(replicas):
        run = simulate_reversed_hitting(
            chain, derive_seed(seed, i), horizon, c_const, t_ref=t_ref
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

def _float_rates(chain: TaggedPairChain) -> sparse.csr_matrix:
    """The off-diagonal rates as a float CSR matrix, column indices sorted."""
    indptr = [0]
    indices = []
    data = []
    for row in chain.rates:
        for j in sorted(row):
            indices.append(j)
            data.append(float(row[j]))
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr)),
        shape=(chain.size, chain.size),
    )


@dataclass(frozen=True)
class SurvivalAgreement:
    times: tuple[float, ...]
    forward: tuple[float, ...]
    backward: tuple[float, ...]
    sup_difference: float

    def as_dict(self) -> dict:
        return {
            "times": list(self.times),
            "forward_survival": list(self.forward),
            "reversed_survival": list(self.backward),
            "sup_difference": self.sup_difference,
        }


def survival_agreement(
    chain: TaggedPairChain, times, max_states: int = DEFAULT_MAX_CHAIN_STATES
) -> SurvivalAgreement:
    """Exact P(hitting time > t) under forward vs reversed dynamics, from pi.

    Both directions are started from the normalized stationary weights and
    absorbed on the balanced set; the two survival curves agree identically,
    which is the reversal identity this module is built around.
    """
    if chain.size > max_states:
        raise CapacityError(f"{chain.size} states exceed the limit {max_states}")
    absorbed = set(balanced_states(chain))
    keep = [i for i in range(chain.size) if i not in absorbed]
    times = np.asarray(times, dtype=float)
    pi = np.asarray(chain.pi, dtype=float)
    start = pi[keep] / pi.sum()
    curves = []
    for direction in (chain, reverse_chain(chain)):
        rates = _float_rates(direction)
        generator = rates - sparse.diags(np.asarray(rates.sum(axis=1)).ravel())
        block = generator[keep][:, keep]
        mass = _uniformize(block, start, times, UNIFORMIZATION_TAIL, 1_000_000)
        curves.append(mass.sum(axis=1))
    fwd, rev = curves
    return SurvivalAgreement(
        times=tuple(float(t) for t in times),
        forward=tuple(float(x) for x in fwd),
        backward=tuple(float(x) for x in rev),
        sup_difference=float(np.max(np.abs(fwd - rev))) if times.size else 0.0,
    )


# ---------------------------------------------------------------------------
# Occupation-time events under reversal: Monte Carlo inequality check
# ---------------------------------------------------------------------------

def _jump_rows(rates: sparse.csr_matrix) -> list:
    """Per state: total exit rate, targets and cumulative target rates."""
    rows = []
    for i in range(rates.shape[0]):
        lo, hi = rates.indptr[i], rates.indptr[i + 1]
        cum = np.cumsum(rates.data[lo:hi]).tolist()
        rows.append((cum[-1] if cum else 0.0, rates.indices[lo:hi].tolist(), cum))
    return rows


def _simulate_occupation(rows: list, start_idx: int, x_idx: int,
                         horizon: float, rng) -> float:
    """Occupation time of one state up to the horizon, one trajectory."""
    state = start_idx
    clock = 0.0
    occupied = 0.0
    while clock < horizon:
        total, targets, cum = rows[state]
        if total <= 0.0:
            if state == x_idx:
                occupied += horizon - clock
            break
        dt = rng.standard_exponential() / total
        stay = min(dt, horizon - clock)
        if state == x_idx:
            occupied += stay
        clock += dt
        if clock >= horizon:
            break
        u = rng.random() * total
        state = targets[bisect.bisect_right(cum, u)]
    return occupied


@dataclass(frozen=True)
class OccupationReversalReport:
    forward: MCEstimate
    reversed_max: MCEstimate
    constant: float
    bound_holds_within_2se: bool

    def as_dict(self) -> dict:
        return {
            "forward": self.forward.as_dict(),
            "reversed_max": self.reversed_max.as_dict(),
            "constant": self.constant,
            "bound_holds_within_2se": self.bound_holds_within_2se,
        }


def occupation_time_inequality(
    chain: TaggedPairChain,
    threshold: float,
    x_state,
    start_state,
    replicas: int,
    seed: int,
    horizon: float,
) -> OccupationReversalReport:
    """Check P_y(occupation of x >= a) <= c * max_z P_rev_z(same event).

    The constant is c = |S| * max pi-ratio.  Both sides are Monte Carlo
    estimates with binomial standard errors; the check allows two standard
    errors of combined slack.  Threshold events are measurable from
    occupation times alone, which is the event class the inequality covers.
    """
    if replicas < 1000:
        raise ValueError("need at least 1000 replicas for a meaningful check")
    x_idx = chain.state_index(x_state)
    y_idx = chain.state_index(start_state)
    rows = _jump_rows(_float_rates(chain))
    rng = make_generator(derive_seed(seed, 1))
    hits = sum(
        _simulate_occupation(rows, y_idx, x_idx, horizon, rng) >= threshold
        for _ in range(replicas)
    )
    forward = MCEstimate.binomial(hits, replicas, seed)

    rev_rows = _jump_rows(_float_rates(reverse_chain(chain)))
    reversed_max = None
    per_start = max(replicas // chain.size, 200)
    for z_idx in range(chain.size):
        rng_z = make_generator(derive_seed(seed, 100 + z_idx))
        hits_z = sum(
            _simulate_occupation(rev_rows, z_idx, x_idx, horizon, rng_z) >= threshold
            for _ in range(per_start)
        )
        estimate = MCEstimate.binomial(hits_z, per_start, seed)
        if reversed_max is None or estimate.value > reversed_max.value:
            reversed_max = estimate

    pis = [float(p) for p in chain.pi]
    constant = chain.size * max(pis) / min(pis)
    slack = 2.0 * (forward.stderr + constant * reversed_max.stderr)
    holds = forward.value <= constant * reversed_max.value + slack
    return OccupationReversalReport(
        forward=forward,
        reversed_max=reversed_max,
        constant=constant,
        bound_holds_within_2se=holds,
    )
