from fractions import Fraction

import pytest

from zrpgap import flow
from zrpgap.flow import (
    CERTIFICATE_CSV_HEADER,
    all_shortest_paths,
    comparison_certificate,
    edge_loads,
    format_rational,
    induced_flow_check,
)
from zrpgap.graphs import Complete, Torus, bfs_distance_counts


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


@pytest.mark.parametrize(
    "d,L",
    [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3)],
)
def test_edge_loads_match_pairwise_formula(d, L):
    graph = Torus(d, L)
    expected = reference_directed_loads(graph)
    report = edge_loads(graph)
    assert list(report.directed.items()) == list(expected.items())
    assert report.uniform


def test_edge_loads_need_torus():
    with pytest.raises(ValueError):
        edge_loads(Complete(4))


def test_directed_loads_symmetric():
    report = edge_loads(Torus(1, 5))
    for (a, b), load in report.directed.items():
        assert report.directed[(b, a)] == load
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
    assert cert4.csv_row() == "1,4,4/3,2,16/3,32"
    assert CERTIFICATE_CSV_HEADER.startswith("d,L,")


@pytest.mark.parametrize("d,L", [(1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4)])
def test_bound_factor_below_headline(d, L):
    cert = comparison_certificate(Torus(d, L))
    assert cert.congestion <= L
    assert cert.length <= d * L
    assert cert.bound_factor <= cert.headline_factor


def test_certificate_without_tau2():
    cert = comparison_certificate(Torus(1, 5))
    assert cert.tau2 is None and cert.tau1_bound is None


def test_format_rational():
    assert format_rational(Fraction(4, 3)) == "4/3"
    assert format_rational(Fraction(6, 3)) == "2"


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


def test_all_shortest_paths_enumeration():
    paths = all_shortest_paths(Torus(1, 4), 0, 2)
    assert sorted(paths) == [(0, 1, 2), (0, 3, 2)]
    assert all_shortest_paths(Complete(5), 1, 3) == [(1, 3)]


def test_induced_flow_runs_one_all_pairs_bfs(monkeypatch):
    calls = []

    def counted(graph, source):
        calls.append(source)
        return bfs_distance_counts(graph, source)

    monkeypatch.setattr(flow, "bfs_distance_counts", counted)
    check = induced_flow_check(Torus(2, 3), 1)
    assert check.per_edge_equal
    assert sorted(calls) == list(range(9))
