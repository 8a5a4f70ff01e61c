import tracemalloc
from fractions import Fraction

import pytest

from zrpgap import flow, graphs
from zrpgap.errors import CapacityError
from zrpgap.flow import (
    all_shortest_paths,
    comparison_certificate,
    edge_loads,
    induced_flow_check,
)
from zrpgap.graphs import Complete, Torus, all_pairs_bfs, bfs_distance_counts


@pytest.mark.parametrize(
    "d,L,expected",
    [(1, 3, 2), (1, 4, 4), (1, 5, 6), (2, 3, 6)],
)
def test_edge_load_values(d, L, expected):
    report = edge_loads(Torus(d, L))
    assert report.max_undirected == Fraction(expected)
    assert report.uniform
    assert report.max_undirected <= report.bound
    assert report.bound == L * (L**d - 1)


def reference_directed_loads(graph):
    """Directed loads by the pairwise formula: sum over (u, v) of
    N(u,a) N(b,v) / N(u,v) for every shortest u->v path through (a, b)."""
    n = graph.vertex_count
    dists, counts = zip(*(bfs_distance_counts(graph, x) for x in range(n)))
    directed = {}
    for a in range(n):
        for b in set(graph.neighbors(a)):
            load = Fraction(0)
            for u in range(n):
                for v in range(n):
                    if u != v and dists[u][a] + 1 + dists[b][v] == dists[u][v]:
                        load += Fraction(counts[u][a] * counts[b][v], counts[u][v])
            directed[(a, b)] = load
    return directed


def report_directed_loads(report):
    """The report's load of every directed edge, read through ``load(a, b)``
    over each vertex's distinct neighbors."""
    return {
        (a, b): report.load(a, b)
        for a, row in enumerate(report.graph.neighbor_table)
        for b in set(row)
    }


@pytest.mark.parametrize(
    "d,L",
    [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3)],
)
def test_edge_loads_match_pairwise_formula(d, L):
    graph = Torus(d, L)
    expected = reference_directed_loads(graph)
    report = edge_loads(graph)
    assert list(report_directed_loads(report).items()) == list(expected.items())
    assert report.uniform


def test_edge_loads_need_torus():
    with pytest.raises(ValueError):
        edge_loads(Complete(4))


def test_edge_load_report_holds_one_load_per_slot():
    graph = Torus(2, 3)
    report = edge_loads(graph)
    assert report.slots == (Fraction(3),) * 4
    for a, row in enumerate(graph.neighbor_table):
        for j, b in enumerate(row):
            assert report.load(a, b) == report.slots[j]
    with pytest.raises(ValueError):
        report.load(0, 4)  # not a neighbor


def test_edge_loads_hold_no_per_edge_container():
    # 40,000 directed edges: a dict with one entry per edge peaks above 4 MB
    # under tracemalloc, while the backward pass holds a few integers per
    # vertex (the neighbor table and the BFS are built beforehand)
    graph = Torus(2, 100)
    graph.neighbor_table
    dist, count = bfs_distance_counts(graph, 0)
    tracemalloc.start()
    try:
        report = flow._edge_loads(graph, dist, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.uniform and report.max_directed == Fraction(100 * 2500, 2)
    assert peak < 2_000_000, peak


def test_directed_loads_symmetric():
    report = edge_loads(Torus(1, 5))
    for (a, b), load in report_directed_loads(report).items():
        assert report.load(b, a) == load
        assert 2 * load == report.max_undirected


def test_pair_flow_conservation():
    """Each commodity ships one unit from u to v, conserved elsewhere."""
    for graph in (Torus(1, 4), Torus(2, 3)):
        n = graph.vertex_count
        dists = [bfs_distance_counts(graph, x)[0] for x in range(n)]
        counts = [bfs_distance_counts(graph, x)[1] for x in range(n)]
        for u in range(n):
            for v in range(n):
                if u == v:
                    continue
                net = [Fraction(0)] * n
                for a in range(n):
                    for b in set(graph.neighbors(a)):
                        if dists[u][a] + 1 + dists[b][v] == dists[u][v]:
                            share = Fraction(
                                counts[u][a] * counts[b][v], counts[u][v]
                            )
                            net[a] -= share
                            net[b] += share
                for x in range(n):
                    expected = Fraction(0)
                    if x == u:
                        expected = Fraction(-1)
                    elif x == v:
                        expected = Fraction(1)
                    assert net[x] == expected


def test_antipodal_flow_splits_evenly():
    graph = Torus(1, 4)
    dists = [bfs_distance_counts(graph, x)[0] for x in range(4)]
    counts = [bfs_distance_counts(graph, x)[1] for x in range(4)]
    # the 0 -> 2 unit splits half through each arc
    assert dists[0][2] == 2 and counts[0][2] == 2
    share_through_01 = Fraction(counts[0][0] * counts[1][2], counts[0][2])
    share_through_03 = Fraction(counts[0][0] * counts[3][2], counts[0][2])
    assert share_through_01 == share_through_03 == Fraction(1, 2)


def test_certificate_values():
    cert3 = comparison_certificate(Torus(1, 3))
    assert cert3.congestion == Fraction(1)
    assert cert3.length == 1
    assert cert3.bound_factor == Fraction(2)
    assert cert3.headline_factor == 18

    cert4 = comparison_certificate(Torus(1, 4), tau2=0.75)
    assert cert4.congestion == Fraction(4, 3)
    assert cert4.length == 2
    assert cert4.bound_factor == Fraction(16, 3)
    assert cert4.headline_factor == 32
    assert cert4.tau1_bound == pytest.approx(4.0)


@pytest.mark.parametrize("d,L", [(1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4)])
def test_bound_factor_below_headline(d, L):
    cert = comparison_certificate(Torus(d, L))
    assert cert.congestion <= L
    assert cert.length <= d * L
    assert cert.bound_factor <= cert.headline_factor


def test_certificate_refuses_loads_of_another_graph():
    graph = Torus(1, 4)
    with pytest.raises(ValueError, match="another graph"):
        comparison_certificate(graph, loads=edge_loads(Torus(2, 5)))
    with_loads = comparison_certificate(graph, loads=edge_loads(Torus(1, 4)))
    assert with_loads == comparison_certificate(graph)


def test_certificate_without_tau2():
    cert = comparison_certificate(Torus(1, 5))
    assert cert.tau2 is None and cert.tau1_bound is None


@pytest.mark.parametrize("bad", [-3.0, float("nan")])
def test_certificate_rejects_bad_tau2(bad):
    with pytest.raises(ValueError, match="tau2"):
        comparison_certificate(Torus(1, 4), tau2=bad)
    assert comparison_certificate(Torus(1, 4), tau2=0.0).tau1_bound == 0.0


@pytest.mark.parametrize(
    "d,L,r",
    [
        pytest.param(1, 3, 1, id="3-1"),
        pytest.param(1, 3, 2, id="3-2"),
        pytest.param(1, 4, 2, id="4-2"),
        # L = 2: parallel edges, each carrying the per-copy vertex load
        (1, 2, 1),
        (1, 2, 3),
        (2, 2, 2),
        (3, 2, 1),
    ],
)
def test_induced_flow_identity(d, L, r):
    check = induced_flow_check(Torus(d, L), r)
    assert check.per_edge_equal
    assert check.max_config_flow == check.predicted_flow
    assert check.congestion_config == check.congestion_vertex


def test_induced_flow_refuses_before_enumerating(monkeypatch):
    # Torus(2, 4) with r = 5: 15,504 configurations, 3.7 M routed pairs
    def refuse(*args, **kwargs):
        raise AssertionError("configurations enumerated before the capacity check")

    monkeypatch.setattr(flow, "enumerate_configurations", refuse)
    with pytest.raises(CapacityError, match="routed pairs"):
        induced_flow_check(Torus(2, 4), 5)
    # 5,424 digits of routed pairs, past what str() converts
    with pytest.raises(CapacityError, match=r"^about 10\^5424 routed pairs"):
        induced_flow_check(Torus(1, 9000), 9000)


def test_induced_flow_needs_torus(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("configurations enumerated before the graph check")

    monkeypatch.setattr(flow, "enumerate_configurations", refuse)
    with pytest.raises(ValueError, match="defined for the torus family"):
        induced_flow_check(Complete(4), 1)


def test_all_shortest_paths_enumeration():
    ring, complete = Torus(1, 4), Complete(5)
    paths = all_shortest_paths(ring, 0, 2, all_pairs_bfs(ring)[0])
    assert sorted(paths) == [(0, 1, 2), (0, 3, 2)]
    assert all_shortest_paths(complete, 1, 3, all_pairs_bfs(complete)[0]) == [(1, 3)]


@pytest.fixture
def bfs_sources(monkeypatch):
    """The sources of every BFS run, wherever in zrpgap it is called from."""
    calls = []

    def counted(graph, source):
        calls.append(source)
        return bfs_distance_counts(graph, source)

    monkeypatch.setattr(graphs, "bfs_distance_counts", counted)
    return calls


@pytest.mark.parametrize("d,L,load", [(2, 4, 8), (2, 2, 1)])
def test_directed_loads_are_pinned(d, L, load):
    # every directed edge of the torus, from coordinates; on L = 2 the two
    # axis directions reach the same vertex, so each pair is listed once
    graph = Torus(d, L)
    edges = set()
    for a in range(graph.vertex_count):
        x = [(a // L**k) % L for k in range(d)]
        for axis in range(d):
            for step in (1, -1):
                y = list(x)
                y[axis] = (y[axis] + step) % L
                edges.add((a, sum(c * L**k for k, c in enumerate(y))))
    assert report_directed_loads(edge_loads(graph)) == {
        edge: Fraction(load) for edge in edges
    }


def test_every_edge_load_has_the_closed_form():
    # every directed edge carries L^(d-1) floor(L^2/4) / 2 (per parallel copy
    # on L = 2), and the diameter is d floor(L/2)
    for d in range(1, 6):
        for L in range(2, 12):
            if L**d > 5_000:
                break
            report = edge_loads(Torus(d, L))
            load = Fraction(L ** (d - 1) * (L * L // 4), 2)
            assert set(report_directed_loads(report).values()) == {load}, (d, L)
            assert report.max_distance == d * (L // 2), (d, L)
            assert report.uniform and report.max_undirected == 2 * load


def test_edge_loads_run_one_bfs(bfs_sources):
    for graph in (Torus(2, 5), Torus(3, 2)):
        bfs_sources.clear()
        edge_loads(graph)
        assert bfs_sources == [0]


def test_edge_load_limit_counts_directed_edges(monkeypatch):
    def no_bfs(*args):
        raise AssertionError("BFS run before the edge-load limit")

    monkeypatch.setattr(graphs, "bfs_distance_counts", no_bfs)
    monkeypatch.setattr(flow, "EDGE_LOADS_MAX_EDGES", 24)
    # Torus(3, 2): 8 vertices with 3 distinct neighbors each, at the limit
    with pytest.raises(AssertionError, match="BFS run"):
        edge_loads(Torus(3, 2))
    for graph, edges in ((Torus(1, 13), 26), (Torus(4, 2), 64)):
        with pytest.raises(CapacityError, match=f"^{edges} directed torus edges"):
            edge_loads(graph)


def test_neighbor_lists_are_built_once_per_graph(monkeypatch):
    calls = []
    neighbors = Torus.neighbors

    def counted(graph, v):
        calls.append(v)
        return neighbors(graph, v)

    monkeypatch.setattr(Torus, "neighbors", counted)
    graph = Torus(2, 4)
    loads = flow._edge_loads(graph, *bfs_distance_counts(graph, 0))
    assert loads.uniform
    assert sorted(calls) == list(range(graph.vertex_count))
    flow.edge_loads(graph)
    assert len(calls) == graph.vertex_count


def test_induced_flow_runs_one_all_pairs_bfs(bfs_sources):
    check = induced_flow_check(Torus(2, 3), 1)
    assert check.per_edge_equal
    assert sorted(bfs_sources) == list(range(9))


def test_all_shortest_paths_runs_two_bfs(bfs_sources):
    # the enumeration reads only the distance rows of its two endpoints and
    # runs no BFS of its own
    graph = Torus(2, 3)
    dists = [None] * graph.vertex_count
    for u in (0, 4):
        dists[u] = graphs.bfs_distance_counts(graph, u)[0]
    paths = all_shortest_paths(graph, 0, 4, dists)
    assert sorted(paths) == [(0, 1, 4), (0, 3, 4)]
    assert sorted(bfs_sources) == [0, 4]
