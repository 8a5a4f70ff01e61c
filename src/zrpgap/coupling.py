"""Two-copy coupling of the ranked-particle process on the complete graph.

Both copies run the same dynamics: every vertex fires at rate 1 (implemented
by uniformization at total rate n: an exponential clock plus a uniform
(vertex, destination) draw, with firings of empty vertices wasted), and a
firing vertex expels its highest-ranking particle, rank 1 being highest.

The coupling proceeds in stages 0..r-1.  Entering stage j, ranks 1..j (the
"matched" particles) occupy identical vertices in both copies, and rank j+1
is the "active" particle.  Each stage has two phases:

* Phase 1 feeds the identical draw to both copies until the two active
  particles sit with equally many matched particles, i.e. the matched count
  at the active vertex agrees across copies.
* Phase 2 freezes the pair (a, b) = (active vertex in copy one, active
  vertex in copy two) and mirrors draws through the transposition a <-> b:
  copy two receives the swapped vertex and destination.  Throughout, the
  rank <= j+1 occupancies of copy two equal those of copy one composed with
  the swap, so once copy one holds equally many top particles at a and b the
  stage is complete and ranks 1..j+1 agree everywhere.

Lower ranks (j+2..r) just follow each copy's own dynamics; they move only
when no higher rank shares their vertex, so they never disturb the matched
structure.  The stage index never decreases, and after stage r-1 the two
configurations are equal: the coupling time bounds the total-variation
distance, and an exponential tail fit of sampled coupling times yields an
upper estimate of the relaxation time.

Only occupancy counts drive every rule above, so each copy is stored as
(matched counts, active vertex, low counts); individual rank labels within
the matched or low groups are interchangeable and are not tracked.  The
event kernel moves one matched table for both copies: copy two's equals
copy one's in phase 1 and equals it through the swap in phase 2, where copy
two's active vertex is the swap of copy one's.  It walks each phase in one
loop and writes copy two's table and both active vertices back before every
call out (settling the markers, checking the pairing) and on return.

Draw contract: a run draws its events in chunks of 128, 256, ... doubling
up to 8192 draws.  Each chunk makes three calls on the run's generator, in
this order: ``integers(0, n, size)`` for the firing vertices,
``integers(0, n - 1, size)`` for the destinations (a draw ``u`` stands for
vertex ``u + (u >= v)``, skipping the firing vertex ``v``) and
``standard_exponential(size) * (1 / n)`` for the holding times.  Whatever
is left of the last chunk when the run ends is discarded.  Keeping this
schedule keeps fixed-seed results byte-identical, whatever bookkeeping is
done around the draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .configurations import random_configuration, validate_configuration
from .seeding import make_generator, replica_generators
from .stats import TailFit, fit_exponential_tail


class _Copy:
    """One coupled copy: matched counts, active vertex, low-rank counts."""

    __slots__ = ("matched", "active", "low")

    def __init__(self, matched, active, low):
        self.matched = matched
        self.active = active
        self.low = low

    @classmethod
    def from_configuration(cls, occ):
        # deterministic initial ranking: by vertex index; the active (rank 1)
        # particle starts at the lowest occupied vertex
        active = next(v for v, k in enumerate(occ) if k > 0)
        low = list(occ)
        low[active] -= 1
        return cls([0] * len(occ), active, low)

    def occupancy(self):
        occ = list(self.matched)
        if self.active >= 0:
            occ[self.active] += 1
        for v, k in enumerate(self.low):
            occ[v] += k
        return tuple(occ)

    def top_count(self, v):
        return self.matched[v] + (1 if self.active == v else 0)


class CoupledState:
    """Mutable working state of one coupling run."""

    __slots__ = (
        "n",
        "r",
        "stage",
        "phase",
        "a",
        "b",
        "clock",
        "one",
        "two",
        "coalesced",
        "coalesced_at",
        "events",
        "stage_durations",
        "phase1_durations",
        "check_invariants",
        "rng",
        "_stage_start",
    )

    def __init__(self, n, r, one, two, rng=None, check_invariants=False):
        self.n = n
        self.r = r
        self.stage = 0
        self.phase = 1
        self.a = -1
        self.b = -1
        self.clock = 0.0
        self.one = one
        self.two = two
        self.coalesced = False
        self.coalesced_at = None
        self.events = 0
        self.stage_durations = []
        self.phase1_durations = []
        self.check_invariants = check_invariants
        self.rng = rng
        self._stage_start = 0.0
        _settle(self)


def _settle(state: CoupledState) -> None:
    """Advance phase/stage markers while their end conditions already hold."""
    one, two = state.one, state.two
    m = one.matched
    while not state.coalesced:
        x = one.active
        if state.phase == 1:
            if m[x] != two.matched[two.active]:
                return
            state.a = x
            state.b = two.active
            state.phase = 2
            state.phase1_durations.append(state.clock - state._stage_start)
        else:
            a, b = state.a, state.b
            if m[a] + (x == a) != m[b] + (x == b):
                return
            _finish_stage(state)


def _finish_stage(state: CoupledState) -> None:
    one, two = state.one, state.two
    one.matched[one.active] += 1
    two.matched[two.active] += 1
    if state.check_invariants and one.matched != two.matched:
        raise RuntimeError(
            "coupling invariant broken: matched occupancies diverged at stage end"
        )
    state.stage_durations.append(state.clock - state._stage_start)
    state._stage_start = state.clock
    state.stage += 1
    state.phase = 1
    if state.stage == state.r:
        one.active = -1
        two.active = -1
        state.coalesced = True
        state.coalesced_at = state.clock
        return
    for copy in (one, two):
        # promote the low particle at the lowest-indexed occupied vertex
        low = copy.low
        v = 0
        while not low[v]:
            v += 1
        copy.active = v
        low[v] -= 1


def _assert_pairing(state: CoupledState) -> None:
    one, two = state.one, state.two
    if state.phase == 1:
        if one.matched != two.matched:
            raise RuntimeError("coupling invariant broken: matched counts differ "
                               "during phase 1")
    else:
        a, b = state.a, state.b
        for x in range(state.n):
            sx = b if x == a else a if x == b else x
            if one.top_count(x) != two.top_count(sx):
                raise RuntimeError(
                    "coupling invariant broken: swapped top occupancies differ "
                    "during phase 2"
                )


def _write_back(state: CoupledState, x1: int, x2: int) -> None:
    """Store the active vertices and copy two's matched counts: copy one's,
    seen through the a <-> b swap in phase 2, where copy two's active
    vertex is the swap of ``x1`` and ``x2`` is not read."""
    one, two = state.one, state.two
    m2 = two.matched
    m2[:] = one.matched
    if state.phase == 2:
        a, b = state.a, state.b
        m2[a], m2[b] = m2[b], m2[a]
        x2 = b if x1 == a else a if x1 == b else x1
    one.active, two.active = x1, x2


def _advance(state: CoupledState, vs, ws, times, start: int, stop: int) -> int:
    """Apply events ``start..stop-1``: copy one fires ``vs[i]`` toward
    ``ws[i]`` at clock ``times[i]``; return the index after the last event
    applied, which is before ``stop`` only when an event coalesces the pair.

    Copy two gets the identical move in phase 1, which also covers a
    coalesced pair, and the move mirrored through the a <-> b swap in
    phase 2.  Only copy one's matched table moves, so a matched move is
    applied once (see the module docstring for the write-back).  Each phase
    is one loop over the events; in phase 2 a move of low particles alone
    takes its own branch and skips the end test, which it cannot meet.
    ``_settle`` runs only when the end condition holds: that is the first
    test ``_settle`` makes, so the markers, durations and draws are those of
    settling after every event.  With ``check_invariants`` the events go one
    at a time and the pairing is checked after each.
    """
    if not state.check_invariants:
        return _walk(state, vs, ws, times, start, stop)
    for i in range(start, stop):
        coalesced = state.coalesced
        _walk(state, vs, ws, times, i, i + 1)
        _assert_pairing(state)
        if state.coalesced and not coalesced:
            return i + 1
    return stop


def _walk(state: CoupledState, vs, ws, times, start: int, stop: int) -> int:
    """:func:`_advance` without the pairing check."""
    one, two = state.one, state.two
    m1, l1, l2 = one.matched, one.low, two.low
    x1, x2 = one.active, two.active
    i = start
    while not state.coalesced:
        if state.phase == 1:
            for i in range(i, stop):
                v = vs[i]
                w = ws[i]
                # the best-ranked particle at v moves to w; an empty v
                # wastes the firing
                if m1[v]:
                    m1[v] -= 1
                    m1[w] += 1
                else:
                    if x1 == v:
                        x1 = w
                    elif l1[v]:
                        l1[v] -= 1
                        l1[w] += 1
                    if x2 == v:
                        x2 = w
                    elif l2[v]:
                        l2[v] -= 1
                        l2[w] += 1
                if m1[x1] == m1[x2]:
                    break
            else:
                break
        else:
            a, b = state.a, state.b
            swap = list(range(state.n))
            swap[a], swap[b] = b, a
            for i in range(i, stop):
                v = vs[i]
                if m1[v]:
                    m1[v] -= 1
                    m1[ws[i]] += 1
                elif x1 == v:
                    x1 = ws[i]
                else:
                    if l1[v]:
                        l1[v] -= 1
                        l1[ws[i]] += 1
                    v = swap[v]
                    if l2[v]:
                        l2[v] -= 1
                        l2[swap[ws[i]]] += 1
                    continue
                if m1[a] + (x1 == a) == m1[b] + (x1 == b):
                    break
            else:
                break
        # event i ended the phase
        _write_back(state, x1, x2)
        state.clock = float(times[i])
        _settle(state)
        x1, x2 = one.active, two.active
        i += 1
        if state.coalesced:
            stop = i
            break
    else:
        # entered coalesced: every particle is matched, the pair moves as one
        for i in range(i, stop):
            v = vs[i]
            if m1[v]:
                m1[v] -= 1
                m1[ws[i]] += 1
    _write_back(state, x1, x2)
    if stop > start:
        state.clock = float(times[stop - 1])
        state.events += stop - start
    return stop


class _Start:
    """Copy one's start, validated once: a configuration on n >= 3 vertices
    with r >= 1 particles, and its ranked form, copied for each run."""

    __slots__ = ("n", "r", "copy")

    def __init__(self, eta0):
        eta0 = validate_configuration(eta0)
        self.n = len(eta0)
        self.r = sum(eta0)
        if self.n < 3:
            raise ValueError("the coupling needs at least 3 vertices")
        if self.r < 1:
            raise ValueError("need at least one particle")
        self.copy = _Copy.from_configuration(eta0)

    def fresh(self) -> _Copy:
        return _Copy(self.copy.matched[:], self.copy.active, self.copy.low[:])


def init_coupling(
    eta0,
    seed: int,
    eta_prime0=None,
    check_invariants: bool = False,
    *,
    rng=None,
) -> CoupledState:
    """Set up the coupled pair: copy one at ``eta0``, copy two uniform.

    The pair draws from ``rng`` when given, else from
    ``make_generator(seed)``.  The samplers pass, in place of the
    configuration ``eta0``, a start they validated once for all replicas.

    Needs n >= 3: on two vertices the swap phase waits for the occupancy
    difference at the special pair to vanish, but every move changes that
    difference by 2, so an odd imbalance would never resolve.  Two-vertex
    instances are handled by the exact spectral route instead.
    """
    start = eta0 if isinstance(eta0, _Start) else _Start(eta0)
    n, r = start.n, start.r
    if rng is None:
        rng = make_generator(seed)
    if eta_prime0 is None:
        eta_prime0 = random_configuration(n, r, rng)
    else:
        eta_prime0 = validate_configuration(eta_prime0)
        if len(eta_prime0) != n or sum(eta_prime0) != r:
            raise ValueError("copies must share the vertex set and particle count")
    return CoupledState(
        n,
        r,
        start.fresh(),
        _Copy.from_configuration(eta_prime0),
        rng=rng,
        check_invariants=check_invariants,
    )


@dataclass(frozen=True)
class CouplingRun:
    """Outcome of one run: coupling time, per-stage timing, bookkeeping."""

    seed: int
    coupling_time: float | None
    censored: bool
    horizon: float
    stage_durations: tuple[float, ...]
    phase1_durations: tuple[float, ...]
    events: int
    final_eta: tuple[int, ...]
    final_eta_prime: tuple[int, ...]
    observations: tuple = ()


def default_horizon(n: int, r: int, replicas: int) -> float:
    """Censoring horizon far beyond the expected coupling-time tail."""
    if replicas < 1:
        raise ValueError("need at least one replica")
    rho = r / n
    return 200.0 * (rho + 1.0) ** 2 * max(1.0, math.log(replicas))


def run_to_coalescence(
    eta0,
    seed: int,
    horizon: float,
    eta_prime0=None,
    observe_times=(),
    check_invariants: bool = False,
    *,
    rng=None,
) -> CouplingRun:
    """Run one coupling to coalescence (or the censoring horizon).

    ``observe_times`` collects both configurations at the given times, even
    past coalescence (the merged pair keeps evolving as a single process),
    so marginal-law checks can be read off the same machinery.  ``rng``, when
    given, must be ``make_generator(seed)``'s stream (see :func:`init_coupling`).
    """
    if not horizon >= 0:
        raise ValueError(f"horizon must be >= 0, got {horizon!r}")
    pending = sorted(float(t) for t in observe_times)
    if not all(0.0 <= t < math.inf for t in pending):
        raise ValueError(f"observe times must be finite and >= 0, got {pending}")
    state = init_coupling(eta0, seed, eta_prime0, check_invariants, rng=rng)
    rng = state.rng
    n = state.n
    inv_n = 1.0 / n
    observations = []

    chunk = 64
    i = size = 0
    # a coalesced pair keeps evolving, past the horizon, while observed
    while not state.coalesced or pending:
        if i == size:
            chunk = min(chunk * 2, 8192)
            vs = rng.integers(0, n, chunk)
            us = rng.integers(0, n - 1, chunk)
            dts = rng.standard_exponential(chunk) * inv_n
            # a sequential sum: each time is bitwise the clock + dt recurrence
            dts[0] += state.clock
            times = np.add.accumulate(dts)
            ws = (us + (us >= vs)).tolist()
            vs = vs.tolist()
            # events before index `within` happen no later than the horizon
            within = int(times.searchsorted(horizon, "right"))
            i = 0
            size = chunk
        # an observation inside the run's lifetime sees the state before the
        # first event after it
        if pending and (state.coalesced or pending[0] <= horizon):
            cut = int(times.searchsorted(pending[0], "right"))
        else:
            cut = size
        stop = min(cut, size if state.coalesced else within)
        i = _advance(state, vs, ws, times, i, stop)
        if i == cut < size:
            observations.append(
                (pending.pop(0), state.one.occupancy(), state.two.occupancy())
            )
        elif i == within < size and not state.coalesced:
            state.clock = horizon
            break

    censored = not state.coalesced
    return CouplingRun(
        seed=seed,
        coupling_time=None if censored else state.coalesced_at,
        censored=censored,
        horizon=horizon,
        stage_durations=tuple(state.stage_durations),
        phase1_durations=tuple(state.phase1_durations),
        events=state.events,
        final_eta=state.one.occupancy(),
        final_eta_prime=state.two.occupancy(),
        observations=tuple(observations),
    )


def point_mass(n: int, r: int) -> tuple[int, ...]:
    """All particles on the first vertex: the extreme default start."""
    return (r,) + (0,) * (n - 1)


def sample_coupling_times(
    n: int,
    r: int,
    replicas: int,
    seed: int,
    horizon: float | None = None,
) -> list[CouplingRun]:
    """Independent coupling runs with per-replica derived seeds.

    Copy one starts with all particles on one vertex (:func:`point_mass`),
    copy two from a fresh uniform sample each replica.  Results depend only
    on (master seed, replica index), never on scheduling order.
    """
    if replicas < 1:
        raise ValueError("need at least one replica")
    if horizon is None:
        horizon = default_horizon(n, r, replicas)
    eta0 = _Start(point_mass(n, r))
    return [
        run_to_coalescence(eta0, replica_seed, horizon, rng=rng)
        for replica_seed, rng in replica_generators(seed, range(replicas))
    ]


def sample_marginal(
    n: int,
    r: int,
    at_time: float,
    replicas: int,
    seed: int,
) -> dict[tuple[int, ...], int]:
    """Empirical law of copy one at a fixed time, across replicas, started
    from :func:`point_mass`."""
    if replicas < 1:
        raise ValueError("need at least one replica")
    if not 0.0 <= at_time < math.inf:
        raise ValueError(f"at_time must be finite and >= 0, got {at_time!r}")
    eta0 = _Start(point_mass(n, r))
    counts: dict[tuple[int, ...], int] = {}
    horizon = at_time + 1.0
    for replica_seed, rng in replica_generators(seed, range(replicas)):
        run = run_to_coalescence(
            eta0, replica_seed, horizon, observe_times=(at_time,), rng=rng
        )
        occ = run.observations[0][1]
        counts[occ] = counts.get(occ, 0) + 1
    return counts


@dataclass(frozen=True)
class RelaxationEstimate:
    """Tail-rate summary of coupling times: an upper relaxation estimate.

    A finite exponential moment of order gamma for the coupling time forces
    the relaxation time below 1/gamma, so the fitted tail rate converts
    directly into the reported upper bound.
    """

    gamma: float
    relaxation_upper: float
    relaxation_ci: tuple[float, float]
    censored_fraction: float
    n_runs: int
    fit: TailFit = field(repr=False)

    def as_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "relaxation_upper": self.relaxation_upper,
            "relaxation_ci95": list(self.relaxation_ci),
            "censored_fraction": self.censored_fraction,
            "n_runs": self.n_runs,
            "fit": self.fit.as_dict(),
        }


def estimate_relaxation(
    runs,
    min_uncensored: int = 1000,
    bootstrap: int = 1000,
    seed: int = 0,
) -> RelaxationEstimate:
    """Fit the exponential tail of sampled coupling times; more than 5%
    censored runs is too many for a tail fit."""
    times = [run.coupling_time for run in runs if not run.censored]
    censored = sum(1 for run in runs if run.censored)
    if len(times) < min_uncensored:
        raise ValueError(
            f"need at least {min_uncensored} uncensored runs, got {len(times)}"
        )
    frac = censored / len(runs)
    if frac > 0.05:
        raise ValueError(f"censoring rate {frac:.3f} too high for a tail fit")
    fit = fit_exponential_tail(times, n_censored=censored, bootstrap=bootstrap, seed=seed)
    return RelaxationEstimate(
        gamma=fit.gamma,
        relaxation_upper=1.0 / fit.gamma,
        relaxation_ci=(1.0 / fit.ci_high, 1.0 / fit.ci_low),
        censored_fraction=frac,
        n_runs=len(runs),
        fit=fit,
    )
