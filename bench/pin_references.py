"""Recompute the pinned reference values in ``bench/references.json``.

    PYTHONPATH=src python3 bench/pin_references.py

Gaps come from ``exact_gap(..., method="dense")``.  The one space too large
for a dense solve (the Wilson instance, 50,388 states) gets its gap from a
factorization-free Lanczos solve on ``c*I - (-Q)`` with the constant vector
projected out, and its residual is recorded.  Max edge loads are the exact
values of ``edge_loads``; the K4 r=3 law at t=1 is ``transient_distribution``
from the point mass.  Run it only when a reference must change, and say why
in the change that does.
"""

import json
import os
from fractions import Fraction

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh

from zrpgap import coupling, flow, spectral
from zrpgap.graphs import Complete, Torus
from workloads import gap_key, load_key

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

DENSE_CASES = [
    (Torus(1, 7), 7), (Complete(9), 6), (Torus(2, 3), 6), (Torus(1, 10), 6),
    (Torus(1, 6), 12), (Complete(2), 2), (Complete(4), 4),
    # smoke-test scale
    (Torus(1, 5), 5), (Torus(1, 10), 5), (Torus(1, 6), 6),
] + [
    # the README sweep grid, L in 3..6 and rho in {1/3, 1, 2}
    (Torus(1, L), round(rho * L)) for L in (3, 4, 5, 6)
    for rho in (Fraction(1, 3), Fraction(1), Fraction(2))
]
LANCZOS_CASES = [(Torus(1, 8), 12)]
LOAD_CASES = [Torus(2, 10), Torus(3, 5), Torus(2, 3), Torus(1, 4)]


def lanczos_gap(gen):
    q = gen.matrix.tocsr()
    c = 2.0 * float((-q.diagonal()).max())

    def matvec(x):
        y = np.ravel(x) - np.mean(x)
        return c * y + q @ y

    op = LinearOperator(q.shape, matvec=matvec, dtype=float)
    values, vectors = eigsh(op, k=1, which="LA", tol=1e-14, ncv=64, maxiter=100_000)
    gap = c - float(values[0])
    vec = vectors[:, 0]
    residual = float(np.linalg.norm(-(q @ vec) - gap * vec))
    return gap, residual


def main():
    refs = {"gaps": {}, "lanczos_residuals": {}, "max_loads": {}}
    for graph, r in DENSE_CASES:
        if gap_key(graph, r) in refs["gaps"]:
            continue
        report = spectral.exact_gap(spectral.build_generator(graph, r), method="dense")
        refs["gaps"][gap_key(graph, r)] = report.gap
        print(gap_key(graph, r), report.gap, report.residual, flush=True)
    for graph, r in LANCZOS_CASES:
        gap, residual = lanczos_gap(spectral.build_generator(graph, r))
        refs["gaps"][gap_key(graph, r)] = gap
        refs["lanczos_residuals"][gap_key(graph, r)] = residual
        print(gap_key(graph, r), gap, residual, flush=True)
    for graph in LOAD_CASES:
        load = flow.edge_loads(graph).max_undirected
        assert load.denominator == 1
        refs["max_loads"][load_key(graph)] = load.numerator
    gen = spectral.build_generator(Complete(4), 3)
    law = spectral.transient_distribution(gen, coupling.point_mass(4, 3), [1.0])[0]
    refs["marginal_k4_r3_t1"] = {
        "configurations": [list(c) for c in gen.configurations],
        "probabilities": [float(p) for p in law],
    }
    with open(OUT, "w") as handle:
        json.dump(refs, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
