"""Generator construction and spectral analysis on the configuration space.

The process generator is a sparse symmetric matrix over all configurations
(symmetry comes from the constant rate on a regular graph), so the uniform
distribution is stationary and the spectrum is real.  The spectral gap is
the smallest nonzero eigenvalue of the negated generator; its inverse, the
relaxation time, is the asymptotic rate in

    gap = min_x lim_t -(1/t) log || P_t(x, .) - Uniform ||_TV,

which :func:`tv_curve` plus :func:`fit_decay_rate` verify numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy  # scipy.sparse loads on first use, not at start-up

from .configurations import (
    DEFAULT_MAX_CONFIGURATIONS,
    configuration_count,
    enumerate_configurations,
    move_kernel,
    random_configuration,
    rank_configuration,
    validate_configuration,
)
from .errors import CapacityError, SolverConvergenceError
from .graphs import GraphSpec, Torus
from .seeding import make_generator
from .stats import (
    empty_probability_exact,
    occupancy_marginal_moments,
    poisson_pmf,
    poisson_truncation,
)

# Dense ``eigh`` and the Lanczos solve of ``exact_gap`` cost the same (1-2
# ms) between about 120 and 170 states on one thread of a 2-core x86 machine;
# above that the cubic dense solve loses fast (3.3 ms against 1.5 ms at 220
# states, 21 ms against 2.6 ms at 462).  The threshold stays where it was
# set, so small spaces keep their method and their outputs.
DENSE_THRESHOLD = 200
# The iterative gap solve fails as a SolverConvergenceError at the Lanczos
# step where twice the steps so far pass this cap, so the cap stops pass one
# at half its value (one matrix-vector product per step).  The step count
# grows like sqrt(c / gap): Complete(2) r=5,000 takes 5,000 steps and
# Complete(3) r=630 about 1,500.
LANCZOS_MAX_MATVECS = 20_000
# Bytes of Lanczos vectors the iterative gap solve keeps from pass one for
# pass two (8 per state and vector; the start vector is always kept)
LANCZOS_BASIS_BYTES = 16 * 2**20
# The iterative solve stops once the Ritz residual estimate of its top pair
# is at most LANCZOS_TOL times the shift c.  It checks every
# LANCZOS_CHECK_EVERY steps or every tenth of the steps so far, whichever is
# more (a check at step k costs O(k)), and at any step whose beta is at most
# LANCZOS_BREAKDOWN times c: on a symmetric space the Krylov space can close
# within a dozen steps, and going on past it only adds rounding.
LANCZOS_CHECK_EVERY = 10
LANCZOS_BREAKDOWN = 1e-6
LANCZOS_TOL = 1e-12
# Poisson mass left out of a uniformization series, and the most terms it
# may take before the run is refused as a capacity error
UNIFORMIZATION_TAIL = 1e-12
UNIFORMIZATION_MAX_TERMS = 1_000_000
# Poisson weights are evaluated this many terms at a time, and powers summed
# into the result this many states at a time, so neither table grows with a run
UNIFORMIZATION_BLOCK = 1024
# Most float cells (8 bytes each) any table of one uniformization run may
# hold: a distribution per time, a Poisson weight per time for each term of
# a block, and up to one power of the kernel per time
UNIFORMIZATION_MAX_CELLS = 10**8


@dataclass
class Generator:
    """Sparse symmetric rate matrix over the configurations of ``particles``
    particles on ``graph``.  Index i is the configuration of rank i in
    lexicographic order, so ranks and rows follow from the graph and the
    particle count, and the matrix is the only array kept.
    """

    graph: GraphSpec
    particles: int
    matrix: scipy.sparse.csr_matrix

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @property
    def occupancies(self) -> np.ndarray:
        """The ``(N, n)`` array whose row i is the configuration of index i,
        enumerated afresh on each read."""
        return enumerate_configurations(self.graph.vertex_count, self.particles,
                                        limit=self.dimension)

    @property
    def configurations(self) -> list[tuple[int, ...]]:
        """The rows of ``occupancies`` as tuples, in index order."""
        return [tuple(row) for row in self.occupancies.tolist()]

    def config_index(self, occ) -> int:
        occ = validate_configuration(occ, self.graph)
        if sum(occ) != self.particles:
            raise ValueError(f"{occ} is not a configuration of this generator")
        return rank_configuration(occ)


def build_generator(graph: GraphSpec, r: int, max_states: int = DEFAULT_MAX_CONFIGURATIONS) -> Generator:
    """Assemble the generator of the r-particle process on ``graph``.

    Each ordered neighbor pair (v, w) moves one particle from v to w on every
    configuration with v occupied, at rate 1/degree; repeated neighbors (the
    degenerate torus) add up to one entry.  The diagonal is minus the row
    sum, taken as the sequential sum of the row's degree x (occupied
    vertices) copies of 1/degree.  The configurations are enumerated for the
    assembly only and freed when it returns.

    The CSR arrays are written directly, each row's columns in ascending
    order, with no sort, in one pass over the moves v -> w with v < w: v
    ascending, w descending.  Rows are in lexicographic order.  Such a move
    lowers a configuration first at v, so it lands below the diagonal, and
    in this order its columns rise; it is written forward from the start of
    the source row.  Its reverse w -> v out of the target raises it first at
    v, so it lands above the diagonal, and in this order its columns fall;
    it is written backward from the end of the target row.  The diagonal
    takes the one slot left between the two.
    """
    n = graph.vertex_count
    occ = enumerate_configurations(n, r, limit=max_states)
    dim = len(occ)
    # each neighbor's copies in a neighbor list: two on the degenerate torus
    copies = 2 if graph.degenerate else 1
    # sums[k]: k copies of 1/degree added one after another, from +0.0
    sums = np.zeros(graph.degree * n + 1)
    np.cumsum(np.full(graph.degree * n, 1.0 / graph.degree), out=sums[1:])
    occupied = np.count_nonzero(occ, axis=1)
    per_vertex = graph.degree // copies
    nnz = dim + per_vertex * int(occupied.sum())
    index = np.int32 if nnz <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(dim + 1, dtype=index)
    np.cumsum(1 + per_vertex * occupied, out=indptr[1:])
    indices = np.empty(nnz, dtype=index)
    data = np.full(nnz, sums[copies])
    lower, upper = indptr[:-1].copy(), indptr[1:] - 1
    moves = move_kernel(occ)
    for v, ws in enumerate(graph.neighbor_table):
        src, ranks = moves(v, sorted({w for w in ws if w > v}, reverse=True))
        at = lower[src]
        # one move is a bijection, so a row appears once among its targets
        for targets in ranks:
            indices[at] = targets
            at += 1
            indices[upper[targets]] = src
            upper[targets] -= 1
        lower[src] = at
    indices[lower] = np.arange(dim)
    data[lower] = 0.0 - sums[graph.degree * occupied]
    matrix = scipy.sparse.csr_matrix((data, indices, indptr), shape=(dim, dim))
    return Generator(graph=graph, particles=r, matrix=matrix)


@dataclass(frozen=True)
class SpectralReport:
    gap: float
    relaxation_time: float
    method: str
    residual: float
    dimension: int

    def as_dict(self) -> dict:
        return {
            "gap": self.gap,
            "relaxation_time": self.relaxation_time,
            "method": self.method,
            "residual": self.residual,
            "dimension": self.dimension,
        }


def _lanczos(shifted, q, q_prev, beta):
    """Yield ``(q_k, alpha_k, beta_k)``, k = j, j + 1, ..., of the three-term
    Lanczos recurrence of ``shifted`` from its state at step j: the unit
    vector ``q = q_j``, ``q_prev = q_{j-1}`` and ``beta = beta_{j-1}``
    (zeros and 0.0 at j = 0).

    The constant vector is projected out of every product, so the
    recurrence runs on its orthogonal complement if ``q`` does.  There is
    no reorthogonalization: that keeps the extreme Ritz pair accurate
    (Paige 1976) and the recurrence at a few vectors.  Each step costs one
    sparse product and in-place level-1 BLAS updates.  The recurrence
    never writes a vector it has yielded, and each ``q_k`` after the first
    is a fresh array, so a caller may keep them.
    """
    from scipy.linalg.blas import daxpy, ddot, dnrm2, dscal

    while True:
        w = shifted @ q
        w -= w.mean()
        daxpy(q_prev, w, a=-beta)
        alpha = ddot(q, w)
        daxpy(q, w, a=-alpha)
        beta = dnrm2(w)
        yield q, alpha, beta
        q_prev, q = q, dscal(1.0 / beta, w)


def _top_eigenvector(gen: Generator) -> np.ndarray:
    """Unit eigenvector of the largest eigenvalue of ``Q + c I`` on the
    complement of the constant vector, ``c`` twice the largest exit rate.

    Pass one builds the tridiagonal ``T_k`` and stops once the Ritz
    residual ``beta_k |y_k|`` of its top pair is small enough, or when the
    basis spans the complement.  It keeps the Lanczos vectors while they
    fit in ``LANCZOS_BASIS_BYTES`` (at least the start vector), and the
    recurrence's state at the first vector it does not keep.  Pass two sums
    the Ritz vector over the kept vectors and, if steps remain, over the
    recurrence resumed from that state: k products for k steps when the
    basis fits, 2k - K when only K vectors do, and the same floats either
    way.
    """
    from scipy.linalg import eigh_tridiagonal
    from scipy.linalg.blas import daxpy, dnrm2, dscal

    dim = gen.dimension
    c = 2.0 * float(-gen.matrix.diagonal().min())
    tol = LANCZOS_TOL * c
    shifted = gen.matrix + c * scipy.sparse.identity(dim, format="csr")
    start = np.random.default_rng(0).standard_normal(dim)
    start -= start.mean()
    dscal(1.0 / dnrm2(start), start)
    keep = max(1, LANCZOS_BASIS_BYTES // start.nbytes)
    basis, resume = [], None
    alphas, betas = [], []
    next_check = LANCZOS_CHECK_EVERY
    for k, (q, alpha, beta) in enumerate(_lanczos(shifted, start, np.zeros(dim), 0.0), start=1):
        if 2 * k > LANCZOS_MAX_MATVECS:
            raise SolverConvergenceError(
                f"eigensolver did not converge on dimension {dim} in {k - 1} Lanczos steps, "
                f"the most that the cap of {LANCZOS_MAX_MATVECS} matrix-vector products "
                f"allows at two per step"
            )
        if k <= keep:
            basis.append(q)
        elif resume is None:
            resume = (q, basis[-1], betas[-1])
        alphas.append(alpha)
        betas.append(beta)
        if k >= next_check or beta <= LANCZOS_BREAKDOWN * c or k == dim - 1:
            next_check = k + max(LANCZOS_CHECK_EVERY, k // 10)
            _, ritz = eigh_tridiagonal(
                np.array(alphas), np.array(betas[:-1]), select="i", select_range=(k - 1, k - 1)
            )
            ritz = ritz[:, 0]
            if beta * abs(ritz[-1]) <= tol or k == dim - 1:
                break
    weights = ritz.tolist()
    vec = np.zeros(dim)
    for weight, q in zip(weights, basis):
        daxpy(q, vec, a=weight)
    if resume is not None:
        for weight, (q, _, _) in zip(weights[keep:], _lanczos(shifted, *resume)):
            daxpy(q, vec, a=weight)
    return vec / np.linalg.norm(vec)


def exact_gap(gen: Generator, method: str = "auto") -> SpectralReport:
    """Smallest nonzero eigenvalue of the negated generator.

    Dense symmetric eigendecomposition up to ``DENSE_THRESHOLD`` states; it
    raises ``SolverConvergenceError`` unless the zero eigenvalue is simple.
    Above it, Lanczos with no factorization: a plain Lanczos, which keeps
    its basis up to ``LANCZOS_BASIS_BYTES`` and recomputes only the rest in
    a second pass, finds the eigenvector of the largest eigenvalue of
    ``Q + c I`` off the constant vector (the zero mode), where ``c`` is
    twice the largest exit rate, so that ``c`` bounds the spectrum of -Q by
    Gershgorin.  On both paths the gap is the Rayleigh quotient of -Q at
    the second eigenvector: not ``c - theta``, whose subtraction cancels
    when the gap is small against ``c``, and not the dense eigenvalue,
    whose last digits move with the BLAS thread count.
    The start vector is fixed, so repeated solves return the same floats
    whatever the budget; a solve whose first pass needs more than half of
    ``LANCZOS_MAX_MATVECS`` steps raises ``SolverConvergenceError``.  The
    2-norm residual of the computed eigenpair is reported either way.
    """
    dim = gen.dimension
    if dim < 2:
        raise ValueError("gap undefined on a single-configuration space")
    if method == "auto":
        method = "dense" if dim <= DENSE_THRESHOLD else "iterative"
    if method == "dense":
        neg = -gen.matrix.toarray()
        values, vectors = np.linalg.eigh(neg)
        # the zero mode must be simple: a second eigenvalue at zero means a
        # reducible generator (or a failed solve), which has no gap; zero
        # here is within 1e-9 of the largest exit rate
        tol = 1e-9 * float(neg.diagonal().max())
        if abs(values[0]) > tol or values[1] - values[0] <= tol:
            raise SolverConvergenceError(
                f"no simple zero mode on dimension {dim}: lowest eigenvalues "
                f"{values[0]:.3g} and {values[1]:.3g}"
            )
        vec = vectors[:, 1]
    elif method == "iterative":
        if dim < 3:
            raise ValueError("the iterative solver needs at least 3 configurations")
        vec = _top_eigenvector(gen)
    else:
        raise ValueError(f"unknown method {method!r}")
    dirichlet, variance = _rayleigh_parts(gen, vec)
    gap = dirichlet / variance
    residual = float(np.linalg.norm(gen.matrix @ vec + gap * vec))
    if gap <= 0:
        raise SolverConvergenceError(
            f"computed gap {gap} is not positive (dimension {dim}, residual {residual:.3g})"
        )
    return SpectralReport(
        gap=gap,
        relaxation_time=1.0 / gap,
        method=method,
        residual=residual,
        dimension=dim,
    )


# ---------------------------------------------------------------------------
# Transient analysis by uniformization
# ---------------------------------------------------------------------------

def uniformization_terms(rate: float, t_max: float, points: int, states: int,
                         tail=UNIFORMIZATION_TAIL, max_terms=UNIFORMIZATION_MAX_TERMS) -> int:
    """Last term of a uniformization series at ``rate`` to time ``t_max``,
    cut at Poisson tail ``tail``, kept at ``points`` times over ``states``
    states.  Refused as a CapacityError when its tables would pass
    ``UNIFORMIZATION_MAX_CELLS`` or, checked second, its terms ``max_terms``."""
    cells = points * max(states, UNIFORMIZATION_BLOCK)
    if cells > UNIFORMIZATION_MAX_CELLS:
        raise CapacityError(
            f"{points} times over {states} states need {cells} table cells, "
            f"over the budget of {UNIFORMIZATION_MAX_CELLS}"
        )
    return poisson_truncation(rate * t_max, tail, max_terms - 1) + 1


def _uniformization(matrix, times, tail=UNIFORMIZATION_TAIL, max_terms=UNIFORMIZATION_MAX_TERMS):
    """Lambda, the largest exit rate of the generator ``matrix``; the last
    term of its series to the latest of the array ``times``, refused by
    :func:`uniformization_terms` before any product; and the kernel
    I + Q/Lambda, the identity when nothing exits."""
    if not times.size or not np.all(np.isfinite(times)) or np.any(times < 0):
        raise ValueError("times must be non-empty, finite and non-negative")
    lam = 0.0 - float(matrix.diagonal().min(initial=0.0))
    kmax = uniformization_terms(lam, times.max(), times.size, matrix.shape[0], tail, max_terms)
    return lam, kmax, scipy.sparse.identity(matrix.shape[0], format="csr") + matrix / (lam or 1.0)


def _uniformize(
    matrix, start_vector, times, tail_tol=UNIFORMIZATION_TAIL, max_terms=UNIFORMIZATION_MAX_TERMS
) -> np.ndarray:
    """Row vector ``start_vector @ exp(t Q)`` at each time, ``Q = matrix``:
    the Poisson(Lambda t) mixture of powers of the :func:`_uniformization`
    kernel, cut at Poisson tail ``tail_tol``.  A sub-generator (rows summing
    to at most zero) evolves the mass that has not yet left its block.

    Two ``(points, states)`` tables are held at once: the accumulator with
    the powers ``mu_k`` (``min(points, UNIFORMIZATION_BLOCK)`` rows), then
    with its C-ordered copy.  Each table of powers is summed into it as
    ``powers.T @ weights``, ``UNIFORMIZATION_BLOCK`` states per product:
    that orientation read the same bits under one and two OpenBLAS threads
    on every shape tried (6 to 50,388 states, 1 to 200 times), where
    ``weights.T @ powers`` did not.
    """
    times = np.asarray(times, dtype=float)
    lam, kmax, kernel = _uniformization(matrix, times, tail_tol, max_terms)
    kernel, dim = kernel.T.tocsr(), matrix.shape[0]
    powers = np.empty((min(times.size, UNIFORMIZATION_BLOCK), dim))
    acc = np.zeros((dim, times.size))
    mu = np.array(start_vector, dtype=float)
    for first in range(0, kmax + 1, UNIFORMIZATION_BLOCK):
        ks = np.arange(first, min(first + UNIFORMIZATION_BLOCK, kmax + 1))
        weights = poisson_pmf(ks[:, None], lam * times[None, :])
        for lo in range(0, ks.size, len(powers)):
            terms = ks[lo:lo + len(powers)]
            for row, k in enumerate(terms):
                powers[row] = mu
                if k < kmax:
                    mu = kernel @ mu
            for s in range(0, dim, UNIFORMIZATION_BLOCK):
                slab = slice(s, s + UNIFORMIZATION_BLOCK)
                acc[slab] += powers[:terms.size, slab].T @ weights[lo:lo + terms.size]
    del powers  # before the copy, so the two are never held together
    return np.ascontiguousarray(acc.T)


def transient_distribution(gen: Generator, start, times) -> np.ndarray:
    """Distribution at each requested time from the configuration ``start``.

    Computed by uniformization; the result is left unnormalized, biasing
    each probability by at most ``UNIFORMIZATION_TAIL``.
    """
    point = np.zeros(gen.dimension)
    point[gen.config_index(start)] = 1.0
    return _uniformize(gen.matrix, point, times)


def occupation_tail(matrix, in_set, horizon: float, threshold) -> np.ndarray:
    """P_z(time in the states of the mask ``in_set`` during [0, horizon] >=
    a) under the generator ``matrix`` for every start z: a vector for one
    threshold a, a (states, thresholds) table for an array of them.

    Uniformized by :func:`_uniformization`, a path makes N ~ Poisson(Lambda
    horizon) jumps, and given N its N + 1 holding pieces are ``horizon``
    times Dirichlet(1, ..., 1) spacings: if k of the N + 1 visited states
    lie in the set, the time there is ``horizon * Beta(k, N + 1 - k)``, an
    atom at 0 or ``horizon`` for k = 0 or N + 1 (de Souza e Silva and Gail
    1986; Sericola 2000).  One backward recursion over the first jump gives
    the law of k given N and z, one sparse product per term on a states x
    counts table (work like nnz (Lambda horizon)^2), and every threshold is
    mixed from it.  Thresholds <= 0 read exactly 1, above the horizon 0.
    Terms, then tables, are refused before any product.
    """
    in_set = np.asarray(in_set, dtype=bool)
    a = np.asarray(threshold, dtype=float).ravel()
    if np.isnan(a).any():
        raise ValueError("thresholds must not be nan")
    lam, terms, kernel = _uniformization(matrix, np.array([horizon], dtype=float))
    dim = matrix.shape[0]
    cells = dim * (terms + 2) + (dim + terms) * a.size  # counts, result and beta tables
    if cells > UNIFORMIZATION_MAX_CELLS:
        raise CapacityError(f"{terms} terms over {dim} states and {a.size} thresholds need "
                            f"{cells} table cells, over the budget of {UNIFORMIZATION_MAX_CELLS}")
    weights = poisson_pmf(np.arange(terms + 1), lam * horizon)
    # P(horizon * Beta(k, N + 1 - k) >= a) = I_{1 - a/horizon}(N + 1 - k, k), 0 < a <= horizon
    u = np.clip(1.0 - a / (horizon or 1.0), 0.0, 1.0)
    counts = np.zeros((dim, terms + 2))
    counts[np.arange(dim), in_set.astype(np.intp)] = 1.0
    tail = np.tile(weights[0] * counts[:, 1:2], a.size)
    for big_n in range(1, terms + 1):
        moved = kernel @ counts[:, :big_n + 1]
        counts[:, :big_n + 1] = moved
        counts[in_set, 0] = 0.0
        counts[in_set, 1:big_n + 2] = moved[in_set]
        k = np.arange(1, big_n + 1)[:, None]
        inside = scipy.special.betainc(big_n + 1 - k, k, u)
        tail += weights[big_n] * (counts[:, 1:big_n + 1] @ inside + counts[:, big_n + 1:big_n + 2])
    tail[:, a <= 0.0] = 1.0
    tail[:, a > horizon] = 0.0
    return tail.reshape((dim,) + np.shape(threshold))


@dataclass(frozen=True)
class TVCurve:
    times: tuple[float, ...]
    values: tuple[float, ...]
    start: tuple[int, ...]

    def as_dict(self) -> dict:
        return {
            "start": list(self.start),
            "points": [{"time": t, "tv": v} for t, v in zip(self.times, self.values)],
        }


def tv_curve(gen: Generator, start, times) -> TVCurve:
    """Total variation distance to uniform at each time, from a point start."""
    start = validate_configuration(start, gen.graph)
    dists = transient_distribution(gen, start, times)
    uniform = 1.0 / gen.dimension
    tv = 0.5 * np.abs(dists - uniform).sum(axis=1)
    return TVCurve(
        times=tuple(float(t) for t in np.asarray(times, dtype=float)),
        values=tuple(float(v) for v in tv),
        start=start,
    )


def fit_decay_rate(curve: TVCurve, t_min: float, t_max: float) -> float:
    """Least-squares slope of -log TV(t) over the window [t_min, t_max]."""
    ts = np.asarray(curve.times)
    vs = np.asarray(curve.values)
    mask = (ts >= t_min) & (ts <= t_max) & (vs > 0)
    if mask.sum() < 2:
        raise ValueError("need at least two positive TV points in the window")
    slope, _ = np.polyfit(ts[mask], -np.log(vs[mask]), 1)
    return float(slope)


# ---------------------------------------------------------------------------
# Variational bounds
# ---------------------------------------------------------------------------

def _rayleigh_parts(gen: Generator, values: np.ndarray) -> tuple[float, float]:
    """Dirichlet form and variance of ``values`` under the uniform law."""
    centered = values - values.mean()
    variance = float(centered @ centered) / gen.dimension
    if variance <= 1e-300:
        raise ValueError("test function has zero variance under the uniform law")
    dirichlet = -float(centered @ (gen.matrix @ centered)) / gen.dimension
    return dirichlet, variance


def rayleigh_quotient(gen: Generator, f) -> float:
    """Dirichlet form over variance of ``f`` under the uniform law.

    Equals (1/2) sum_{x != y} pi(x) q(x, y) (f(y) - f(x))^2 / Var(f); by the
    variational principle this is an upper bound on the spectral gap, with
    equality at the second eigenvector.  ``f`` is a function of a
    configuration or a vector of one value per state.
    """
    if callable(f):
        values = np.array([float(f(c)) for c in gen.configurations])
    else:
        values = np.asarray(f, dtype=float)
        if values.shape != (gen.dimension,):
            raise ValueError("test-function vector has the wrong length")
    dirichlet, variance = _rayleigh_parts(gen, values)
    return dirichlet / variance


WILSON_VARIANTS = ("half_wave", "full_wave")


def wilson_profile(graph: Torus, variant: str) -> np.ndarray:
    """Per-vertex cosine weights along the first torus axis.

    half_wave uses cos(pi x1 / L) (discontinuous across the wrap edge);
    full_wave uses cos(2 pi x1 / L), the periodic choice.  Both are kept and
    reported side by side.
    """
    if not isinstance(graph, Torus):
        raise ValueError("wilson profiles are defined on the torus family")
    if variant not in WILSON_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    factor = math.pi if variant == "half_wave" else 2.0 * math.pi
    return np.array(
        [math.cos(factor * graph.coords(v)[0] / graph.L) for v in range(graph.vertex_count)]
    )


def wilson_test_function(graph: Torus, variant: str):
    """The cosine statistic occ -> sum_v phi(v) occ(v) as a plain function."""
    phi = wilson_profile(graph, variant)
    return lambda occ: float(np.dot(phi, occ))


@dataclass(frozen=True)
class WilsonBound:
    variant: str
    mode: str
    quotient: float
    dirichlet: float
    variance: float
    stderr: float | None = None
    samples: int | None = None

    def as_dict(self) -> dict:
        out = {
            "variant": self.variant,
            "mode": self.mode,
            "gap_upper_bound": self.quotient,
            "relaxation_lower_bound": 1.0 / self.quotient,
            "dirichlet": self.dirichlet,
            "variance": self.variance,
        }
        if self.stderr is not None:
            out["stderr"] = self.stderr
            out["samples"] = self.samples
        return out


def _linear_statistic_variance(graph: GraphSpec, r: int, phi: np.ndarray) -> float:
    """Exact Var(sum_v phi(v) eta(v)) under the uniform configuration law.

    Site occupancies are exchangeable with pairwise covariance
    -Var(eta(v))/(n-1), forced by the conservation of the particle total.
    """
    n = graph.vertex_count
    e1, e2 = occupancy_marginal_moments(n, r)
    var_site = float(e2 - e1 * e1)
    cov = -var_site / (n - 1)
    sum_sq = float(np.dot(phi, phi))
    total = float(phi.sum())
    return var_site * sum_sq + cov * (total * total - sum_sq)


def _vertex_dirichlet_terms(graph: GraphSpec, phi: np.ndarray) -> np.ndarray:
    """Per-vertex share sum_w (phi(w) - phi(v))^2 / (2 degree) of the
    Dirichlet sum; vertex v's share counts only while v is occupied."""
    terms = np.zeros(graph.vertex_count)
    for v in range(graph.vertex_count):
        acc = 0.0
        for w in graph.neighbor_table[v]:
            diff = phi[w] - phi[v]
            acc += diff * diff
        terms[v] = acc / (2.0 * graph.degree)
    return terms


def _wilson_terms(occ: np.ndarray, phi: np.ndarray, shares: np.ndarray):
    """Dirichlet share and statistic value of each configuration in ``occ``
    (one occupancy row, or a table of rows): the ``shares`` of its occupied
    vertices summed, and sum_v phi(v) occ(v), each by a row-wise reduction."""
    return np.where(occ > 0, shares, 0.0).sum(axis=-1), (occ * phi).sum(axis=-1)


def wilson_bound(
    graph: Torus,
    r: int,
    variant: str = "full_wave",
    mode: str = "auto",
    samples: int = 20_000,
    seed: int | None = None,
    max_states: int = DEFAULT_MAX_CONFIGURATIONS,
) -> WilsonBound:
    """Rayleigh quotient of the chosen cosine test function: a gap upper
    bound, hence a relaxation-time lower bound.

    The Dirichlet sum only sees which vertices are occupied, so
    ``enumerate`` and ``monte_carlo`` average one per-configuration formula
    (:func:`_wilson_terms`) over the occupancy rows of the whole space or
    of uniform samples, the latter with a standard error.  ``closed_form``
    uses the exact occupancy-marginal formulas valid for any linear
    statistic (P(eta(v) > 0) = r/(n+r-1)).  ``auto`` enumerates small
    spaces and otherwise uses the closed form.
    """
    if r < 1:
        raise ValueError("need at least one particle")
    phi = wilson_profile(graph, variant)
    shares = _vertex_dirichlet_terms(graph, phi)
    n = graph.vertex_count
    if mode == "auto":
        mode = "enumerate" if configuration_count(n, r) <= max_states else "closed_form"

    if mode == "closed_form":
        dirichlet = float(1 - empty_probability_exact(n, r)) * float(shares.sum())
        variance = _linear_statistic_variance(graph, r, phi)
    elif mode == "enumerate":
        dir_values, f_values = _wilson_terms(
            enumerate_configurations(n, r, limit=max_states), phi, shares
        )
    elif mode == "monte_carlo":
        if seed is None:
            raise ValueError("monte_carlo mode needs a seed")
        if samples < 2:
            raise ValueError("monte_carlo mode needs at least two samples")
        rng = make_generator(seed)
        dir_values = np.empty(samples)
        f_values = np.empty(samples)
        for i in range(samples):
            occ = np.array(random_configuration(n, r, rng))
            dir_values[i], f_values[i] = _wilson_terms(occ, phi, shares)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if mode != "closed_form":
        dirichlet = float(dir_values.mean())
        variance = float(f_values.var(ddof=1 if mode == "monte_carlo" else 0))
    if variance <= 1e-300:
        raise ValueError("zero-variance test function")
    quotient = dirichlet / variance
    if mode != "monte_carlo":
        return WilsonBound(variant, mode, quotient, dirichlet, variance)
    se_d = float(dir_values.std(ddof=1)) / math.sqrt(samples)
    centered = f_values - f_values.mean()
    se_v = float((centered**2).std(ddof=1)) / math.sqrt(samples)
    stderr = quotient * math.sqrt((se_d / dirichlet) ** 2 + (se_v / variance) ** 2)
    return WilsonBound(
        variant, mode, quotient, dirichlet, variance, stderr=stderr, samples=samples
    )
