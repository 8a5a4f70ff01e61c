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
themselves.  Summed over targets v, these shares obey a per-source backward
recursion over the shortest-path DAG of u (Brandes, J. Math. Sociol. 25,
2001), so each source costs one BFS plus one pass over the edges, all in
integer numerators over a common denominator.  The configuration-level
check below *does* enumerate paths, as an independent route to the same
numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .configurations import enumerate_configurations
from .errors import CapacityError
from .graphs import Torus, bfs_distance_counts


def _all_pairs(graph):
    dists = []
    counts = []
    for u in range(graph.vertex_count):
        d, c = bfs_distance_counts(graph, u)
        dists.append(d)
        counts.append(c)
    return dists, counts


def _directed_edges(graph):
    out = []
    for a in range(graph.vertex_count):
        for b in set(graph.neighbors(a)):
            out.append((a, b))
    return out


@dataclass(frozen=True)
class EdgeLoadReport:
    graph: Torus
    directed: dict
    undirected: dict
    max_directed: Fraction
    max_undirected: Fraction
    uniform: bool
    bound: int
    max_distance: int  # the graph diameter, from the same BFS

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


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def edge_loads(graph: Torus) -> EdgeLoadReport:
    """Exact per-edge load of the uniform shortest-path flow.

    For each directed edge the load sums, over ordered vertex pairs (u, v),
    the fraction of shortest u->v paths passing through it.  The undirected
    load adds both directions; by vertex-transitivity every undirected edge
    carries the same load, which is also verified here.
    """
    if not isinstance(graph, Torus):
        raise ValueError("edge loads are defined for the torus family")
    return _edge_loads(graph, *_all_pairs(graph))


def _edge_loads(graph: Torus, dists, counts) -> EdgeLoadReport:
    """:func:`edge_loads` from an all-pairs BFS already run.

    With M the lcm of all path counts, the source u contributes
    N(u,a) * D_u(b) / M to edge (a, b) when b is one step further from u
    than a, where D_u(b) = M * sum_v N(b,v) / N(u,v) over the v reached from
    u through b, and D_u(b) = M / N(u,b) + sum of D_u(c) over the
    neighbors c one step further out (repeats included, so parallel edges
    of an L = 2 torus count once each).  Every directed edge is summed on
    its own, so the uniformity check below stays a real check.
    """
    n = graph.vertex_count
    neighbors = [graph.neighbors(x) for x in range(n)]
    edges = _directed_edges(graph)
    common = math.lcm(*(c for row in counts for c in row))
    numerators = [0] * len(edges)
    below = [0] * n
    for du, cu in zip(dists, counts):
        # the source's own entry is never read: no edge leads into it
        for b in sorted(range(n), key=du.__getitem__, reverse=True):
            step = du[b] + 1
            acc = common // cu[b]
            for c in neighbors[b]:
                if du[c] == step:
                    acc += below[c]
            below[b] = acc
        for k, (a, b) in enumerate(edges):
            if du[b] == du[a] + 1:
                numerators[k] += cu[a] * below[b]
    directed = {edge: Fraction(num, common) for edge, num in zip(edges, numerators)}
    undirected = {}
    for (a, b), load in directed.items():
        if a < b:
            undirected[(a, b)] = load + directed[(b, a)]
    values = list(undirected.values())
    uniform = all(v == values[0] for v in values)
    return EdgeLoadReport(
        graph=graph,
        directed=directed,
        undirected=undirected,
        max_directed=max(directed.values()),
        max_undirected=max(values),
        uniform=uniform,
        bound=graph.L * (n - 1),
        max_distance=max(max(row) for row in dists),
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

    def csv_row(self) -> str:
        return ",".join(
            [
                str(self.d),
                str(self.L),
                format_rational(self.congestion),
                str(self.length),
                format_rational(self.bound_factor),
                str(self.headline_factor),
            ]
        )


CERTIFICATE_CSV_HEADER = "d,L,congestion,length,bound_factor,headline_factor"


def comparison_certificate(
    graph: Torus, tau2: float | None = None, loads: EdgeLoadReport | None = None
) -> ComparisonCertificate:
    """Congestion/length certificate for the torus-vs-complete comparison."""
    if loads is None:
        loads = edge_loads(graph)
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


def all_shortest_paths(graph, u, v, dists=None):
    """Every shortest u->v path as a vertex tuple (exhaustive; small graphs)."""
    if dists is None:
        dists = _all_pairs(graph)[0]
    target_dist = dists[u][v]
    paths = []

    def extend(x, acc):
        if x == v:
            paths.append(tuple(acc))
            return
        for w in set(graph.neighbors(x)):
            if dists[u][w] == dists[u][x] + 1 and dists[w][v] == dists[x][v] - 1:
                acc.append(w)
                extend(w, acc)
                acc.pop()

    extend(u, [u])
    assert all(len(p) == target_dist + 1 for p in paths)
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

    def as_dict(self) -> dict:
        return {
            "graph": self.graph.as_json(),
            "r": self.r,
            "config_edges": self.config_edges,
            "max_config_flow": _frac_json(self.max_config_flow),
            "predicted_flow": _frac_json(self.predicted_flow),
            "per_edge_equal": self.per_edge_equal,
            "congestion_config": _frac_json(self.congestion_config),
            "congestion_vertex": _frac_json(self.congestion_vertex),
        }


def induced_flow_check(graph: Torus, r: int, max_states: int = 50_000) -> InducedFlowCheck:
    """Route the induced flow explicitly on the configuration graph.

    Every ordered complete-graph transition (eta, eta') moving one particle
    u -> v is routed through configurations zeta + chi_w along each shortest
    u->v vertex path (zeta = eta with the moving particle removed), with the
    unit split evenly over paths.  The resulting per-configuration-edge flow
    must exactly equal the vertex-level directed edge load, for every edge.
    On an L = 2 torus a vertex path stands for the product of its edge
    multiplicities in parallel-edge paths, and its share on (a, b) is split
    over the mult(a, b) parallel copies, as the per-copy vertex load is.

    Flows are integer numerators over M, the lcm of the path counts
    N(u, v).  The configuration edge a step (a, b) is lifted to depends on
    zeta but not on the target v, so each source's paths are first collapsed
    into one numerator per vertex edge.
    """
    if r < 1:
        raise ValueError("need at least one particle")
    n = graph.vertex_count
    configs = enumerate_configurations(n, r, limit=max_states)
    index = {c: i for i, c in enumerate(configs)}
    pair_count = len(configs) * n * (n - 1)
    if pair_count > 2_000_000:
        raise CapacityError(f"{pair_count} routed pairs exceed the capacity limit")
    dists, counts = _all_pairs(graph)
    common = math.lcm(*(c for row in counts for c in row))
    mult = {(a, b): graph.neighbors(a).count(b) for a, b in _directed_edges(graph)}

    routed = []  # per source u: (vertex edge, flow numerator summed over targets)
    for u in range(n):
        shares: dict[tuple[int, int], int] = {}
        for v in range(n):
            if v == u:
                continue
            weight = common // counts[u][v]
            for path in all_shortest_paths(graph, u, v, dists):
                steps = list(zip(path, path[1:]))
                copies = math.prod(mult[e] for e in steps)
                for e in steps:
                    shares[e] = shares.get(e, 0) + weight * (copies // mult[e])
        routed.append(list(shares.items()))

    flows: dict[tuple[int, int], int] = {}
    for occ in configs:
        for u in range(n):
            if occ[u] == 0:
                continue
            base = list(occ)
            base[u] -= 1
            lifted = []  # lifted[w]: index of the configuration zeta + chi_w
            for w in range(n):
                base[w] += 1
                lifted.append(index[tuple(base)])
                base[w] -= 1
            for (a, b), share in routed[u]:
                edge = (lifted[a], lifted[b])
                flows[edge] = flows.get(edge, 0) + share

    loads = _edge_loads(graph, dists, counts)
    targets = {edge: load * common for edge, load in loads.directed.items()}
    per_edge_equal = True
    for (i, k), flow in flows.items():
        diff = [x - y for x, y in zip(configs[k], configs[i])]
        a = diff.index(-1)
        b = diff.index(1)
        if flow != targets[(a, b)]:
            per_edge_equal = False
    max_flow = Fraction(max(flows.values()), common)

    return InducedFlowCheck(
        graph=graph,
        r=r,
        config_edges=len(flows),
        max_config_flow=max_flow,
        predicted_flow=loads.max_directed,
        per_edge_equal=per_edge_equal,
        congestion_config=2 * max_flow / (n - 1),
        congestion_vertex=loads.max_undirected / (n - 1),
    )
