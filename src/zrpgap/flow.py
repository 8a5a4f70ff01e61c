"""Multicommodity-flow comparison between the torus and the complete graph.

One unit of flow is routed between every ordered pair of distinct torus
vertices, spread evenly over all shortest paths.  The per-edge load of that
flow controls the congestion constant in the relaxation-time comparison

    tau_torus <= 2d * congestion * length * tau_complete <= 2 d^2 L^2 tau_complete,

where congestion is the maximum (undirected) edge load normalized by
L^d - 1 and length is the longest flow-carrying path, bounded by the
diameter <= dL.  All loads are exact rationals: the flow share of a
directed edge (a, b) for the pair (u, v) is N(u,a) N(b,v) / N(u,v) in
shortest-path counts, so no path enumeration is needed for the loads
themselves.  Summed over targets v, these shares obey a backward recursion
over the shortest-path DAG of u (Brandes, J. Math. Sociol. 25, 2001).  The
torus is the Cayley graph of (Z/L)^d, so the shares from source u are those
from source 0 translated by u: the load of every edge a -> a + delta sums
source 0's shares over all edges x -> x + delta.  One BFS and one backward
pass give every load, and each directed edge (each parallel copy when
L = 2) carries L^(d-1) floor(L^2/4) / 2.  The configuration-level check
below *does* enumerate paths from every source, as an independent route to
the same numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import graphs
from .configurations import configuration_count, enumerate_configurations, move_kernel
from .errors import CapacityError
from .graphs import Torus, all_pairs_bfs

# Most directed torus edges :func:`edge_loads` admits.  Its time and memory
# grow like n times the degree: in a fresh process on one thread of a 2-core
# x86 machine (Python 3.11), Torus(3,40), 384,000 edges, takes 0.3 s and a
# peak RSS of 63 MB, and Torus(15,2), 491,520 edges at degree 30, 0.35 s
# and 79 MB, the neighbor table included.
EDGE_LOADS_MAX_EDGES = 500_000


@dataclass(frozen=True)
class EdgeLoadReport:
    graph: Torus
    slots: tuple[Fraction, ...]  # slot j: the load of every a -> neighbor_table[a][j]
    max_directed: Fraction
    max_undirected: Fraction
    uniform: bool
    bound: int
    max_distance: int  # the graph diameter, from the same BFS

    def load(self, a: int, b: int) -> Fraction:
        """Load of the directed edge a -> b (of each parallel copy on L = 2)."""
        return self.slots[self.graph.neighbor_table[a].index(b)]

    def as_dict(self) -> dict:
        return {
            "graph": self.graph.as_json(),
            "max_directed_load": _frac_json(self.max_directed),
            "max_undirected_load": _frac_json(self.max_undirected),
            "all_edges_equal": self.uniform,
            "load_bound": self.bound,
            "degenerate_torus": self.graph.degenerate,
        }


def _frac_json(value: Fraction) -> dict:
    return {
        "num": value.numerator,
        "den": value.denominator,
        "decimal": float(value),
    }


def edge_loads(graph: Torus) -> EdgeLoadReport:
    """Exact per-edge load of the uniform shortest-path flow.

    For each directed edge the load sums, over ordered vertex pairs (u, v),
    the fraction of shortest u->v paths passing through it.  The undirected
    load adds both directions, and every axis and sign is checked to carry
    the same one.  A torus of more than ``EDGE_LOADS_MAX_EDGES`` directed
    edges is refused as a CapacityError before the BFS.
    """
    if not isinstance(graph, Torus):
        raise ValueError("edge loads are defined for the torus family")
    # distinct neighbors per vertex: on L = 2 the +1 and -1 steps coincide
    edges = graph.vertex_count * (graph.d if graph.degenerate else 2 * graph.d)
    if edges > EDGE_LOADS_MAX_EDGES:
        raise CapacityError(
            f"{edges} directed torus edges exceed the edge-load limit "
            f"{EDGE_LOADS_MAX_EDGES}"
        )
    return _edge_loads(graph, *graphs.bfs_distance_counts(graph, 0))


def _edge_loads(graph: Torus, dist, count) -> EdgeLoadReport:
    """:func:`edge_loads` from the BFS distances and path counts of vertex 0.

    With M the lcm of the path counts, source 0 contributes
    N(0,a) * D(b) / M to edge (a, b) when b is one step further out than a,
    where D(b) = M * sum_v N(b,v) / N(0,v) over the v reached through b, and
    D(b) = M / N(0,b) + sum of D(c) over the neighbors c one step further
    out (repeats included, so parallel edges of an L = 2 torus count once
    each).  Neighbor slot j of every vertex x is x + delta_j, so translating
    by u carries these shares onto source u's: the load of a -> a + delta_j
    is source 0's share summed over all edges x -> x + delta_j.
    """
    n = graph.vertex_count
    neighbors = graph.neighbor_table
    common = math.lcm(*count)
    slots = [0] * len(neighbors[0])
    below = [0] * n
    # the source's own entry is never read: no edge leads into it
    for b in sorted(range(n), key=dist.__getitem__, reverse=True):
        step = dist[b] + 1
        cb = count[b]
        acc = common // cb
        for j, c in enumerate(neighbors[b]):
            if dist[c] == step:
                acc += below[c]
                slots[j] += cb * below[c]
        below[b] = acc
    per_slot = tuple(Fraction(num, common) for num in slots)
    # slot j ^ 1 steps back along slot j's axis, so each sum is the
    # undirected load of one axis
    undirected = [load + per_slot[j ^ 1] for j, load in enumerate(per_slot)]
    return EdgeLoadReport(
        graph=graph,
        slots=per_slot,
        max_directed=max(per_slot),
        max_undirected=max(undirected),
        uniform=all(v == undirected[0] for v in undirected),
        bound=graph.L * (n - 1),
        max_distance=max(dist),
    )


@dataclass(frozen=True)
class ComparisonCertificate:
    d: int
    L: int
    congestion: Fraction
    length: int
    bound_factor: Fraction
    headline_factor: int
    tau2: float | None
    tau1_bound: float | None
    degenerate: bool

    def as_dict(self) -> dict:
        out = {
            "d": self.d,
            "L": self.L,
            "congestion": _frac_json(self.congestion),
            "length": self.length,
            "bound_factor": _frac_json(self.bound_factor),
            "headline_factor": self.headline_factor,
            "degenerate_torus": self.degenerate,
        }
        if self.tau2 is not None:
            out["tau2"] = self.tau2
            out["tau1_bound"] = self.tau1_bound
        return out


def comparison_certificate(
    graph: Torus, tau2: float | None = None, loads: EdgeLoadReport | None = None
) -> ComparisonCertificate:
    """Congestion/length certificate for the torus-vs-complete comparison."""
    if tau2 is not None and not tau2 >= 0:
        raise ValueError("tau2 must be a non-negative relaxation time")
    if loads is None:
        loads = edge_loads(graph)
    elif loads.graph != graph:
        raise ValueError("the edge loads belong to another graph")
    n = graph.vertex_count
    congestion = loads.max_undirected / (n - 1)
    length = loads.max_distance
    bound_factor = 2 * graph.d * congestion * length
    headline = 2 * graph.d * graph.d * graph.L * graph.L
    tau1_bound = float(bound_factor) * tau2 if tau2 is not None else None
    return ComparisonCertificate(
        d=graph.d,
        L=graph.L,
        congestion=congestion,
        length=length,
        bound_factor=bound_factor,
        headline_factor=headline,
        tau2=tau2,
        tau1_bound=tau1_bound,
        degenerate=graph.degenerate,
    )


def all_shortest_paths(graph, u, v, dists):
    """Every shortest u->v path as a vertex tuple (exhaustive; small graphs).

    Only the distance rows ``dists[u]`` and ``dists[v]`` are read (the
    graphs are undirected, so dist(w, v) = dist(v, w)).
    """
    from_u, from_v = dists[u], dists[v]
    neighbors = graph.neighbor_table
    paths = []

    def extend(x, acc):
        if x == v:
            paths.append(tuple(acc))
            return
        for w in set(neighbors[x]):
            if from_u[w] == from_u[x] + 1 and from_v[w] == from_v[x] - 1:
                acc.append(w)
                extend(w, acc)
                acc.pop()

    extend(u, [u])
    assert all(len(p) == from_u[v] + 1 for p in paths)
    return paths


@dataclass(frozen=True)
class InducedFlowCheck:
    graph: Torus
    r: int
    config_edges: int
    max_config_flow: Fraction
    predicted_flow: Fraction
    per_edge_equal: bool
    congestion_config: Fraction
    congestion_vertex: Fraction


def induced_flow_check(graph: Torus, r: int) -> InducedFlowCheck:
    """Route the induced flow explicitly on the configuration graph.

    Every ordered complete-graph transition (eta, eta') moving one particle
    u -> v is routed through configurations zeta + chi_w along each shortest
    u->v vertex path (zeta = eta with the moving particle removed), with the
    unit split evenly over paths.  The resulting per-configuration-edge flow
    must exactly equal the vertex-level directed edge load, for every edge.
    On an L = 2 torus every edge has two parallel copies: a vertex path of
    k steps stands for 2**k parallel-edge paths, half of which pass through
    each copy of a step, as the per-copy vertex load counts them.

    Flows are integer numerators over M, the lcm of the path counts
    N(u, v).  The configuration edge a step (a, b) is lifted to depends on
    zeta but not on the target v, so each source's paths are first collapsed
    into one numerator per vertex edge.  Configuration edges are kept apart
    by the neighbor slot of their vertex edge and compared to its load.

    Instances with more than 2,000,000 routed (configuration, u, v) pairs or
    50,000 configurations are refused before any configuration is built.
    """
    if not isinstance(graph, Torus):
        raise ValueError("induced flows are defined for the torus family")
    if r < 1:
        raise ValueError("need at least one particle")
    n = graph.vertex_count
    pair_count = configuration_count(n, r) * n * (n - 1)
    if pair_count > 2_000_000:
        raise CapacityError(f"{pair_count} routed pairs exceed the capacity limit")
    occ = enumerate_configurations(n, r, limit=50_000)
    dists, counts = all_pairs_bfs(graph)
    common = math.lcm(*(c for row in counts for c in row))
    copies = 2 if graph.degenerate else 1
    neighbors = graph.neighbor_table

    routed = []  # per source u: (slot, vertex edge, flow numerator summed over targets)
    for u in range(n):
        shares: dict[tuple[int, int], int] = {}
        for v in range(n):
            if v == u:
                continue
            weight = common // counts[u][v]
            for path in all_shortest_paths(graph, u, v, dists):
                share = weight * copies ** (len(path) - 2)
                for e in zip(path, path[1:]):
                    shares[e] = shares.get(e, 0) + share
        routed.append(
            [(neighbors[a].index(b), a, b, share) for (a, b), share in shares.items()]
        )

    loads = _edge_loads(graph, dists[0], counts[0])
    # integral: each slot's denominator divides the lcm of vertex 0's counts
    targets = [int(load * common) for load in loads.slots]
    flows: list[dict[tuple[int, int], int]] = [{} for _ in targets]
    # one row per configuration with u occupied; lifted[w] is the index of
    # zeta + chi_w, the configuration after the particle moves u -> w
    moves = move_kernel(occ)
    for u in range(n):
        _, ranks = moves(u, range(n))
        for lifted in ranks.T.tolist():
            for j, a, b, share in routed[u]:
                edge = (lifted[a], lifted[b])
                flows[j][edge] = flows[j].get(edge, 0) + share

    per_edge_equal = all(
        flow == target for slot, target in zip(flows, targets) for flow in slot.values()
    )
    max_flow = Fraction(max(flow for slot in flows for flow in slot.values()), common)

    return InducedFlowCheck(
        graph=graph,
        r=r,
        config_edges=sum(map(len, flows)),
        max_config_flow=max_flow,
        predicted_flow=loads.max_directed,
        per_edge_equal=per_edge_equal,
        congestion_config=2 * max_flow / (n - 1),
        congestion_vertex=loads.max_undirected / (n - 1),
    )
