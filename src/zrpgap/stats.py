"""Occupancy-time statistics, exact Poisson-difference tails, random-walk
no-return estimates, and exponential tail fitting.

The simulation pieces all run on the complete graph in the attempt
formalism: every ordered vertex pair (u, v) attempts a move at rate
1/(n-1), and the attempt fails when the source is empty.  That keeps every
vertex's attempt rate at exactly 1 in each direction and makes empty-time
bookkeeping exact between events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy  # scipy.special loads on first use, not at start-up

from .configurations import random_configuration, validate_configuration
from .errors import CapacityError
from .seeding import derive_seed, make_generator, replica_generators


# ---------------------------------------------------------------------------
# Exact stationary occupancy facts (uniform law over configurations)
# ---------------------------------------------------------------------------

def empty_probability_exact(n: int, r: int) -> Fraction:
    """P(a given vertex is empty) under the uniform configuration law.

    Equals #{eta : eta(v) = 0} / #configurations = (n-1)/(n+r-1).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if r < 0:
        raise ValueError("need r >= 0")
    return Fraction(n - 1, n + r - 1)


def occupancy_marginal_moments(n: int, r: int) -> tuple[Fraction, Fraction]:
    """Exact (E[eta(v)], E[eta(v)^2]) for one vertex under the uniform law.

    E[eta] = r/n by exchangeability, and E[eta^2] = r(n+2r-1)/(n(n+1))
    follows from E[(eta+1)(eta+2)] = 2(n+r)(n+r+1)/(n(n+1)), a Vandermonde
    sum over the marginal P(eta(v) = k) = C(n+r-k-2, r-k) / C(n+r-1, r).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return Fraction(r, n), Fraction(r * (n + 2 * r - 1), n * (n + 1))


# ---------------------------------------------------------------------------
# Event-driven occupancy traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OccupancyTrace:
    """Per-vertex empty time accumulated by an exact event-driven run."""

    n: int
    r: int
    horizon: float
    seed: int
    start: tuple[int, ...]
    empty_time: tuple[float, ...]
    window_length: float
    truncation: float
    window_means: tuple[float, ...]
    events: int
    path: tuple | None = None  # ((time, occupancy), ...) when recorded

    @property
    def mean_empty_time(self) -> float:
        return float(np.mean(self.empty_time))

    @property
    def empty_fraction(self) -> float:
        return self.mean_empty_time / self.horizon

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "horizon": self.horizon,
            "seed": self.seed,
            "start": list(self.start),
            "empty_time": list(self.empty_time),
            "empty_fraction": self.empty_fraction,
            "window_length": self.window_length,
            "truncation": self.truncation,
            "window_means": list(self.window_means),
            "events": self.events,
        }


# draws per refill of the event stream; the bounded-integer draws consume a
# variable part of the generator, so the refill size fixes the results
_CHUNK = 8192
# draws turned into Python lists at a time, so short runs convert little
_SUB_BLOCK = 256
# (piece, vertex) cells per accumulation block: bounds the chunk temporaries
_BLOCK_CELLS = 1 << 13


def occupancy_stats(
    n: int,
    r: int,
    horizon: float,
    seed: int,
    start="stationary",
    m_param: float = 1.0,
    record_path: bool = False,
    *,
    rng=None,
) -> OccupancyTrace:
    """Simulate the process on K_n and accumulate exact per-vertex empty time.

    Also reports windowed, truncated empty-time averages: the horizon is cut
    into windows of length (rho+1)^2 and each vertex's empty time within a
    window is capped at m_param*(rho+1) before averaging over vertices.

    With ``record_path`` the trace's ``path`` holds the start and every
    move as (time, occupancy), for cross-checking accumulators.

    The event walk is plain Python; numpy runs once per chunk of draws.
    Results equal those of a loop adding each piece's length to the masked
    empty vertices event by event: the draws come in the same order, each
    constant-state piece is split at window boundaries by the same float
    recurrences, and every per-vertex total is a sequential
    ``np.add.accumulate`` over the pieces in order, adding 0.0 where the
    vertex is occupied (``x + 0.0 == x``).  The run draws from ``rng`` when
    given, else from ``make_generator(seed)``.
    """
    if n < 2 or r < 0:
        raise ValueError("need n >= 2 and r >= 0")
    if not 0 < horizon < math.inf:
        raise ValueError("horizon must be positive and finite")
    if not m_param >= 0:
        raise ValueError("m_param must be non-negative")
    if rng is None:
        rng = make_generator(seed)
    if start == "stationary":
        occ = list(random_configuration(n, r, rng))
    else:
        occ = list(validate_configuration(start))
        if len(occ) != n or sum(occ) != r:
            raise ValueError("start configuration does not match (n, r)")
    start_occ = tuple(occ)

    rho = r / n
    window_length = (rho + 1.0) ** 2
    truncation = m_param * (rho + 1.0)

    sums = _EmptyTimes(n, truncation)
    next_boundary = window_length
    path = [(0.0, tuple(occ))] if record_path else None

    t = 0.0
    t_accum = 0.0  # sum of the pieces; window splits make it drift from t
    events = 0
    # attempt formalism: total attempt rate n, source/destination uniform
    inv_rate = 1.0 / n
    running = True
    while running:
        draws_v = rng.integers(0, n, _CHUNK)
        draws_u = rng.integers(0, n - 1, _CHUNK)
        draws_e = rng.standard_exponential(_CHUNK)
        start_chunk = np.array(occ)
        lengths = []  # constant-state pieces, in time order
        closes = []  # piece counts at which a window closes
        moves = []  # flat (piece index, v, w): the move precedes that piece
        add_piece = lengths.append
        for lo in range(0, _CHUNK, _SUB_BLOCK):
            hi = lo + _SUB_BLOCK
            for dt, v, u in zip((draws_e[lo:hi] * inv_rate).tolist(),
                                draws_v[lo:hi].tolist(), draws_u[lo:hi].tolist()):
                t_next = t + dt
                if t_next >= horizon:
                    dt = horizon - t
                    running = False
                # split the constant-state interval across window boundaries
                while dt > 0.0:
                    room = next_boundary - t_accum
                    if room > dt:
                        add_piece(dt)
                        t_accum += dt
                        break
                    add_piece(room)
                    t_accum += room
                    dt -= room
                    closes.append(len(lengths))
                    next_boundary += window_length
                if not running:
                    break
                t = t_next
                events += 1
                if occ[v] > 0:
                    w = u + 1 if u >= v else u
                    occ[v] -= 1
                    occ[w] += 1
                    moves += (len(lengths), v, w)
                    if record_path:
                        path.append((t, tuple(occ)))
            if not running:
                break
        sums.add_chunk(start_chunk, lengths, closes, moves)

    return OccupancyTrace(
        n=n,
        r=r,
        horizon=float(horizon),
        seed=seed,
        start=start_occ,
        empty_time=tuple(float(x) for x in sums.empty),
        window_length=window_length,
        truncation=truncation,
        window_means=tuple(sums.window_means),
        events=events,
        path=tuple(path) if record_path else None,
    )


class _EmptyTimes:
    """Per-vertex empty time, in total and in the open window.

    ``add_chunk`` takes a chunk's constant-state pieces and rebuilds each
    piece's empty vertices from the start occupancy and the moves (an
    integer cumsum), in blocks of at most ``_BLOCK_CELLS`` cells.  Closing a
    window appends the mean over vertices of its empty times capped at
    ``truncation`` and restarts them from zero.
    """

    def __init__(self, n: int, truncation: float):
        self.n = n
        self.truncation = truncation
        self.empty = np.zeros(n)
        self.window = np.zeros(n)
        self.window_means: list[float] = []

    def add_chunk(self, occupancy, lengths, closes, moves) -> None:
        n = self.n
        count = len(lengths)
        lengths = np.array(lengths)
        moves = np.array(moves, dtype=np.int64).reshape(-1, 3)
        block = max(1, _BLOCK_CELLS // n)
        ci = 0
        for b0 in range(0, count, block):
            b1 = min(b0 + block, count)
            m = b1 - b0
            # moves preceding pieces b0..b1-1; one after the chunk's last
            # piece is already in the next chunk's start occupancy
            lo, hi = np.searchsorted(moves[:, 0], (b0, b1))
            cells = (moves[lo:hi, 0] - b0) * n
            delta = (np.bincount(cells + moves[lo:hi, 2], minlength=m * n)
                     - np.bincount(cells + moves[lo:hi, 1], minlength=m * n))
            occ = occupancy + np.cumsum(delta.reshape(m, n), axis=0)
            occupancy = occ[-1]
            # row 0 carries the running sum, row i + 1 piece b0 + i's increments
            rows = np.empty((m + 1, n))
            np.multiply(occ == 0, lengths[b0:b1, None], out=rows[1:])
            rows[0] = self.empty
            self.empty = np.add.accumulate(rows, axis=0)[-1]
            s = 0
            while ci < len(closes) and closes[ci] <= b1:
                e = closes[ci] - b0
                ci += 1
                rows[s] = self.window
                closed = np.add.accumulate(rows[s:e + 1], axis=0)[-1]
                self.window_means.append(
                    float(np.mean(np.minimum(closed, self.truncation)))
                )
                self.window = np.zeros(n)
                s = e
            if s < m:
                rows[s] = self.window
                self.window = np.add.accumulate(rows[s:], axis=0)[-1]


# estimate_window_constant() with its default arguments, pinned so that
# callers do not re-simulate its 800 windows for a fixed number
WINDOW_CONSTANT = 0.5957828255027163
# replica indices reserved per grid case of estimate_window_constant
_CASE_STRIDE = 100_003


def estimate_window_constant(
    grid=((4, 1), (4, 2), (8, 1), (8, 2)),
    replicas: int = 200,
    seed: int = 20260809,
) -> float:
    """Empirical lower constant for truncated window empty times.

    For each (n, rho) grid point, runs ``replicas`` windows of length
    (rho+1)^2 from stationary starts and averages min(empty time,
    rho+1)/(rho+1), the default truncation of :func:`occupancy_stats`,
    over vertices whose initial occupancy is at most 2(rho+1).  Returns the
    grid minimum: the best constant C such that the truncated mean empty
    time is >= C*(rho+1) held on the whole grid.  Grid case k runs replica
    indices k*100,003 onwards, so ``replicas`` may not exceed 100,003.
    """
    if not 1 <= replicas <= _CASE_STRIDE:
        raise ValueError(f"replicas must be between 1 and {_CASE_STRIDE}")
    best = math.inf
    case = 0
    for n, rho in grid:
        r = int(round(rho * n))
        cap = 2.0 * (rho + 1.0)
        values = []
        first = case * _CASE_STRIDE
        for replica_seed, rng in replica_generators(seed, range(first, first + replicas)):
            trace = occupancy_stats(n, r, (rho + 1.0) ** 2, replica_seed, rng=rng)
            for v in range(n):
                if trace.start[v] <= cap:
                    values.append(
                        min(trace.empty_time[v], trace.truncation) / (rho + 1.0)
                    )
        case += 1
        best = min(best, float(np.mean(values)))
    return best


# ---------------------------------------------------------------------------
# The Poisson law, from scipy.special
# ---------------------------------------------------------------------------
# These four give the same floats as the pmf, cdf, sf and isf of SciPy's
# ``poisson`` distribution at integer points: the same special functions,
# clips and masks.  Importing SciPy's statistics module for them would more
# than double the package's import time.

def poisson_pmf(k, mu):
    """P(X = k) for X ~ Poisson(mu), integer k >= 0, mu >= 0."""
    return np.clip(np.exp(scipy.special.xlogy(k, mu) - scipy.special.gammaln(k + 1) - mu), 0, 1)


def poisson_cdf(k, mu):
    """P(X <= k) at integer k; 0 below the support, where pdtr gives nan."""
    k = np.asarray(k)
    return np.where(k < 0, 0.0, np.clip(scipy.special.pdtr(np.maximum(k, 0), mu), 0, 1))[()]


def poisson_sf(k, mu):
    """P(X > k) at integer k; 1 below the support, where pdtrc gives nan."""
    k = np.asarray(k)
    return np.where(k < 0, 1.0, np.clip(scipy.special.pdtrc(np.maximum(k, 0), mu), 0, 1))[()]


def poisson_isf(q, mu):
    """Smallest integer k with P(X > k) <= q, for 0 < q < 1."""
    p = 1.0 - q
    vals = np.ceil(scipy.special.pdtrik(p, mu))
    below = np.maximum(vals - 1, 0)
    return np.where(scipy.special.pdtr(below, mu) >= p, below, vals)[()]


def poisson_truncation(mean: float, tail: float, max_terms: int) -> int:
    """The ``tail`` quantile of Poisson(``mean``) from :func:`poisson_isf`,
    refused as a CapacityError above ``max_terms``.

    The quantile is never below the mean for the tails used here, so a mean
    above the budget is refused before the quantile is computed: it turns
    to nan near a mean of 1e12.
    """
    if not math.isfinite(mean) or mean < 0:
        raise ValueError(f"Poisson mean must be finite and non-negative, got {mean!r}")
    kmax = int(poisson_isf(tail, mean)) if mean <= max_terms else math.inf
    if kmax > max_terms:
        raise CapacityError(
            f"truncating Poisson mean {mean:.6g} at tail {tail:.3g} needs more "
            f"than the {max_terms} term budget"
        )
    return kmax


# ---------------------------------------------------------------------------
# Poisson-difference (Skellam) tables
# ---------------------------------------------------------------------------

def skellam_tail(lam: float, m: int) -> float:
    """Exact P(X - Y >= m) for independent X, Y ~ Poisson(lam).

    Direct double series: sum_x P(X=x) P(Y <= x-m), truncated where the
    Poisson tail drops below 1e-14.  Bessel evaluation is available as a
    cross-check in :func:`skellam_tail_bessel`.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    kmax = poisson_truncation(lam, 1e-14 / 4.0, 10_000_000 - 2) + 2
    xs = np.arange(kmax + 1)
    px = poisson_pmf(xs, lam)
    cdf = poisson_cdf(xs - m, lam)
    return float(np.sum(px * cdf))


def skellam_tail_bessel(lam: float, m: int) -> float:
    """Bessel-series oracle for P(X - Y >= m); P(X-Y=k) = e^{-2 lam} I_k(2 lam)."""
    if m == 0:
        # half the off-atom mass plus the atom, by symmetry of the difference
        return 0.5 * (1.0 + float(scipy.special.ive(0, 2.0 * lam)))
    if m < 0:
        # P(D >= m) = 1 - P(D <= m-1) = 1 - P(D >= 1-m)
        return 1.0 - skellam_tail_bessel(lam, 1 - m)
    total = 0.0
    k = m
    while True:
        term = float(scipy.special.ive(k, 2.0 * lam))
        total += term
        if term < 1e-18 and k > 2 * lam + m:
            return total
        k += 1


def poisson_concentration(lam: float) -> float:
    """Exact P(|X - lam| >= lam/2) for X ~ Poisson(lam)."""
    if not 0 < lam < math.inf:
        raise ValueError("lam must be positive and finite")
    lo = math.floor(lam / 2.0)
    hi = math.ceil(1.5 * lam)
    return float(poisson_cdf(lo, lam) + poisson_sf(hi - 1, lam))


@dataclass(frozen=True)
class SkellamTable:
    lam: float
    tails: tuple[tuple[int, float], ...]
    concentration: float

    def as_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "tails": [{"m": m, "probability": p} for m, p in self.tails],
            "concentration_half": self.concentration,
        }


def skellam_table(lam: float, ms) -> SkellamTable:
    tails = tuple((int(m), skellam_tail(lam, int(m))) for m in ms)
    return SkellamTable(lam=lam, tails=tails, concentration=poisson_concentration(lam))


# ---------------------------------------------------------------------------
# Continuous-time simple random walk: no-return probability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MCEstimate:
    value: float
    stderr: float
    ci_low: float
    ci_high: float
    replicas: int
    seed: int

    @classmethod
    def binomial(cls, hits: int, replicas: int, seed: int) -> "MCEstimate":
        """Hit frequency, its binomial standard error and normal 95% interval."""
        p = hits / replicas
        se = math.sqrt(max(p * (1.0 - p), 1e-300) / replicas)
        return cls(p, se, p - 1.96 * se, p + 1.96 * se, replicas, seed)

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "stderr": self.stderr,
            "ci95": [self.ci_low, self.ci_high],
            "replicas": self.replicas,
            "seed": self.seed,
        }


# Walkers one sweep of the no-return estimate treats at a time: its per-block
# temporaries stay below a megabyte however many walkers run
RW_BLOCK = 2**15
# Walkers one estimate may run: each holds 17 bytes (int64 up-step count,
# float64 time, one flag), so the largest estimate holds 1.7 GB
RW_MAX_REPLICAS = 100_000_000


def rw_no_return_probability(r: float, replicas: int, seed: int) -> MCEstimate:
    """Monte Carlo estimate of P_0(X_t != 0 for all t in [1, r^2]).

    X is the continuous-time simple symmetric walk on the integers jumping
    in each direction at rate 1.  The event fails as soon as some holding
    interval with X = 0 intersects [1, r^2].

    Draw contract: the m walkers still running make one sweep at a time, in
    walker order.  A sweep first draws all m holding times as
    ``0.5 * standard_exponential`` (the values of ``exponential(0.5, m)``),
    then all m steps as ``integers(0, 2)`` in int64, 1 a step up.  Walkers are
    treated ``RW_BLOCK`` at a time, which splits the draw calls but never
    reorders the draws.  More than ``RW_MAX_REPLICAS`` walkers is a
    ``CapacityError`` before anything is allocated.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    if replicas < 1:
        raise ValueError("need at least one replica")
    if replicas > RW_MAX_REPLICAS:
        raise CapacityError(
            f"{replicas} walkers exceed the limit {RW_MAX_REPLICAS} "
            f"(17 bytes each)"
        )
    rng = make_generator(seed)
    # times are kept doubled, which is exact: a doubled holding time is the
    # standard exponential draw itself, and the window [1, r^2] is [2, end]
    end = 2.0 * (float(r) * float(r))
    ups = np.zeros(replicas, dtype=np.int64)  # position is 2 * ups - sweep
    t = np.zeros(replicas)  # twice the start of each walker's holding interval
    keep = np.empty(replicas, dtype=bool)
    hold = np.empty(min(replicas, RW_BLOCK))
    survived = 0
    m = replicas
    sweep = 0
    while m:
        for a in range(0, m, RW_BLOCK):
            b = min(a + RW_BLOCK, m)
            h = hold[: b - a]
            rng.standard_exponential(out=h)
            # a running walker's interval [t, t + h) starts no later than the
            # window closes (or the walker is done), so it kills the event
            # when it holds 0 and ends after the window opens; by parity no
            # walker is at 0 after an odd number of steps
            tb = t[a:b]
            tb += h
            done = tb > end
            if sweep % 2:
                survived += int(np.count_nonzero(done))
                np.logical_not(done, out=keep[a:b])
                continue
            dead = ups[a:b] == sweep // 2
            dead &= tb > 2.0
            done &= ~dead
            survived += int(np.count_nonzero(done))
            np.logical_not(dead | done, out=keep[a:b])
        # compact the running walkers to the front; the write index never
        # passes the read index, and each block is gathered before written
        w = 0
        for a in range(0, m, RW_BLOCK):
            b = min(a + RW_BLOCK, m)
            up = rng.integers(0, 2, b - a)  # int64 draws: 1 steps up
            k = keep[a:b]
            if w == a and k.all():
                ups[a:b] += up
                w = b
                continue
            moved = ups[a:b][k]
            moved += up[k]
            c = moved.size
            ups[w : w + c] = moved
            t[w : w + c] = t[a:b][k]
            w += c
        m = w
        sweep += 1
    return MCEstimate.binomial(survived, replicas, seed)


def rw_no_return_exact(r: float) -> float:
    """Exact value of what :func:`rw_no_return_probability` estimates.

    By the reflection principle for the skip-free walk, a walk at x != 0
    avoids 0 for a further time t exactly with probability
    P(-|x| < S_t <= |x|), S_t ~ Skellam(t, t) its increment.  Summed over
    X_1 = x, P(X_1 = x) = e^{-2} I_x(2), with t = r^2 - 1.  Positions
    |x| > 20 at time 1 carry mass below 1e-19 and are left out.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    t = float(r) * float(r) - 1.0
    total = 0.0
    for x in range(1, 21):
        stay = 1.0 if t == 0.0 else skellam_tail(t, 1 - x) - skellam_tail(t, x + 1)
        total += 2.0 * float(scipy.special.ive(x, 2.0)) * stay
    return total


# ---------------------------------------------------------------------------
# Exponential tail fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailFit:
    """Least-squares exponential decay rate of an empirical survival tail."""

    gamma: float
    ci_low: float
    ci_high: float
    window_low: float
    window_high: float
    r_squared: float
    n_uncensored: int
    n_censored: int
    heavy_tail_flag: bool

    def as_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "gamma_ci95": [self.ci_low, self.ci_high],
            "fit_window": [self.window_low, self.window_high],
            "r_squared": self.r_squared,
            "n_uncensored": self.n_uncensored,
            "n_censored": self.n_censored,
            "heavy_tail_flag": self.heavy_tail_flag,
        }


def _survival_windows(samples, n_censored, q_low, q_high):
    """Per row of ``samples``: the [q_low, q_high] sample-quantile window
    ``(lo, hi)`` and the sorted times inside it with their log-survival."""
    rows = np.sort(samples, axis=1)
    m = rows.shape[1]
    lows, highs = np.quantile(rows, [q_low, q_high], axis=1)
    # survival just above each sorted point; censored samples (all at the
    # horizon, beyond any fit point) count as "still running"
    surv = (m - 1 - np.arange(m) + n_censored) / (m + n_censored)
    positive = surv > 0
    log_surv = np.zeros(m)
    log_surv[positive] = np.log(surv[positive])
    inside = (rows >= lows[:, None]) & (rows <= highs[:, None]) & positive
    for row, keep, lo, hi in zip(rows, inside, lows.tolist(), highs.tolist()):
        yield lo, hi, row[keep], log_surv[keep]


def _survival_slope(ts, ys):
    """Least-squares decay rate of log-survival ``ys`` at times ``ts``, and
    the fraction of variance the line explains."""
    if ts.size < 10 or ts.max() <= ts.min():
        raise ValueError("fit window too narrow; need more samples")
    slope, intercept = np.polyfit(ts, ys, 1)
    fitted = slope * ts + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return -slope, r2


# bootstrap indices drawn per block: at most 2**15 of them at a time
_BOOTSTRAP_BLOCK = 1 << 15


def fit_exponential_tail(
    samples,
    n_censored: int = 0,
    window=(0.5, 0.99),
    bootstrap: int = 1000,
    seed: int = 0,
) -> TailFit:
    """Fit an exponential rate to the upper tail of positive samples.

    The empirical log-survival curve is fitted by least squares over the
    [q50, q99] sample-quantile window (by default); earlier times are
    transient-dominated and later ones noise-dominated.  ``n_censored``
    right-censored observations (at a horizon beyond the fit window) enter
    the survival denominator.  The confidence interval is a nonparametric
    bootstrap percentile interval, and a heavy-tail flag is raised when the
    window fit explains less than 98% of the variance.
    """
    values = np.asarray(samples, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("samples must be a non-empty 1-d array")
    q_low, q_high = window
    ((lo, hi, ts, ys),) = _survival_windows(values[None, :], n_censored, q_low, q_high)
    gamma, r2 = _survival_slope(ts, ys)

    gammas = []
    if bootstrap > 0:
        rng = make_generator(derive_seed(seed, 0xB0075))
        m = values.size
        # one draw of (rows, m) indices equals `rows` draws of m in turn
        per_block = max(1, _BOOTSTRAP_BLOCK // m)
        for done in range(0, bootstrap, per_block):
            picks = rng.integers(0, m, (min(per_block, bootstrap - done), m))
            for _, _, ts, ys in _survival_windows(values[picks], n_censored, q_low, q_high):
                try:
                    gammas.append(_survival_slope(ts, ys)[0])
                except ValueError:
                    continue
    if gammas:
        ci_low, ci_high = np.quantile(gammas, [0.025, 0.975])
    else:
        ci_low = ci_high = gamma

    return TailFit(
        gamma=float(gamma),
        ci_low=float(ci_low),
        ci_high=float(ci_high),
        window_low=lo,
        window_high=hi,
        r_squared=float(r2),
        n_uncensored=int(values.size),
        n_censored=int(n_censored),
        heavy_tail_flag=bool(r2 < 0.98),
    )
