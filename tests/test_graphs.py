import json
import math
from itertools import product

import pytest

from zrpgap.flow import all_shortest_paths
from zrpgap.graphs import (
    Complete,
    Torus,
    all_pairs_bfs,
    bfs_distance_counts,
    graph_from_json,
)


def test_torus_basic_structure():
    g = Torus(d=2, L=3)
    assert g.vertex_count == 9
    assert g.degree == 4
    assert not g.degenerate
    for v in range(9):
        assert g.vertex(g.coords(v)) == v
        nbrs = g.neighbors(v)
        assert len(nbrs) == 4
        assert v not in nbrs


def test_torus_degenerate_side_two():
    g = Torus(d=1, L=2)
    assert g.degenerate
    assert g.neighbors(0) == (1, 1)
    assert g.degree == 2


@pytest.mark.parametrize("d,L", [(d, L) for d in range(1, 5) for L in range(2, 8)])
def test_torus_neighbors_match_coordinate_steps(d, L):
    # reference: step each coordinate by +1 then -1 and re-encode the tuple
    g = Torus(d, L)
    for v in range(g.vertex_count):
        c = list(g.coords(v))
        expected = []
        for axis in range(d):
            for step in (1, -1):
                moved = c.copy()
                moved[axis] += step
                expected.append(g.vertex(moved))
        assert g.neighbors(v) == tuple(expected)
    with pytest.raises(ValueError):
        g.neighbors(g.vertex_count)


def test_complete_structure():
    g = Complete(5)
    assert g.vertex_count == 5
    assert g.degree == 4
    assert g.neighbors(2) == (0, 1, 3, 4)
    assert not g.degenerate


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        Torus(d=0, L=3)
    with pytest.raises(ValueError):
        Torus(d=1, L=1)
    with pytest.raises(ValueError):
        Complete(1)
    with pytest.raises(ValueError):
        Complete(3).neighbors(3)


def dist_count(graph, u, v):
    """Distance from u to v and the number of shortest paths, from u's BFS."""
    dist, count = bfs_distance_counts(graph, u)
    return dist[v], count[v]


def test_shortest_path_examples():
    assert dist_count(Torus(1, 5), 0, 2) == (2, 1)
    assert dist_count(Torus(1, 4), 0, 2) == (2, 2)
    t = Torus(2, 3)
    assert dist_count(t, t.vertex((0, 0)), t.vertex((1, 1))) == (2, 2)
    assert dist_count(Complete(6), 1, 4) == (1, 1)
    assert dist_count(Torus(1, 5), 3, 3) == (0, 1)


@pytest.mark.parametrize("graph", [Torus(1, 4), Torus(1, 5), Torus(2, 3), Complete(5)])
def test_path_counts_match_exhaustive_enumeration(graph):
    dists, counts = all_pairs_bfs(graph)
    for u in range(graph.vertex_count):
        for v in range(graph.vertex_count):
            if u == v:
                continue
            paths = all_shortest_paths(graph, u, v, dists)
            assert len(paths) == counts[u][v]


def test_torus_counts_match_closed_form():
    # multinomial over per-axis step counts, doubled for each antipodal axis
    g = Torus(2, 4)
    dists, counts = all_pairs_bfs(g)
    for u in range(g.vertex_count):
        for v in range(g.vertex_count):
            cu, cv = g.coords(u), g.coords(v)
            steps = []
            arcs = 1
            for a, b in zip(cu, cv):
                delta = (b - a) % g.L
                k = min(delta, g.L - delta)
                steps.append(k)
                if k > 0 and 2 * k == g.L:
                    arcs *= 2
            total = sum(steps)
            expected = arcs * math.factorial(total)
            for k in steps:
                expected //= math.factorial(k)
            assert (dists[u][v], counts[u][v]) == (total, expected)


def test_shortest_path_symmetry():
    for graph in (Torus(1, 6), Torus(2, 3), Complete(4)):
        dists, counts = all_pairs_bfs(graph)
        for u, v in product(range(graph.vertex_count), repeat=2):
            assert (dists[u][v], counts[u][v]) == (dists[v][u], counts[v][u])


def test_diameter():
    def diameter(graph):
        return max(map(max, all_pairs_bfs(graph)[0]))

    assert diameter(Torus(1, 3)) == 1
    assert diameter(Torus(1, 4)) == 2
    assert diameter(Torus(2, 3)) == 2
    assert diameter(Complete(7)) == 1


def test_json_roundtrip():
    for graph in (Torus(1, 4), Torus(3, 2), Complete(5)):
        blob = json.dumps(graph.as_json())
        assert graph_from_json(json.loads(blob)) == graph
    with pytest.raises(ValueError):
        graph_from_json({"family": "hypercube", "n": 3})
