"""Output checks shared by the workloads.

Each check returns a list of failure messages (empty = pass).  Nothing here
compares against a stored digest: a kernel rewrite may legitimately consume
its random numbers differently, so compressed graphs are checked against
the Table 3 predicates of ``repro.theory.bounds`` and results against an
in-process recomputation of the same seed.
"""

from __future__ import annotations

import math

import numpy as np

from repro import build_scheme, connected_components, count_triangles
from repro.theory import bounds

#: Schemes whose output is a subgraph of the input (Table 3 footnote), so
#: edge and triangle counts can only fall.
SUBGRAPH_SCHEMES = frozenset(
    {"uniform", "spanner", "triangle_reduction", "cut_sparsifier", "low_degree"}
)

#: Expectation bounds get a 2x slack (6 sigma for ``uniform_edges``): the
#: benchmark checks hundreds of compressions per proof, and a 3-sigma bound
#: would fail one of them by chance.
EXPECTATION_SLACK = 2.0


class GraphFacts:
    """Lazily computed properties of the original graph, reused across checks."""

    def __init__(self, graph):
        self.graph = graph
        self._triangles = None
        self._components = None

    @property
    def triangles(self) -> int:
        if self._triangles is None:
            self._triangles = int(count_triangles(self.graph))
        return self._triangles

    @property
    def components(self) -> int:
        if self._components is None:
            self._components = connected_components(self.graph).num_components
        return self._components


def bound_failures(spec, facts: GraphFacts, compressed) -> list[str]:
    """The Table 3 predicates that apply to ``spec``'s output ``compressed``."""
    scheme = build_scheme(spec)
    params = scheme.params()
    original = facts.graph
    m0, m1 = original.num_edges, compressed.num_edges
    checks = []
    if scheme.name in SUBGRAPH_SCHEMES:
        checks.append(bounds.subgraph_monotone_edges(m0, m1))
        checks.append(
            bounds.subgraph_monotone_triangles(
                facts.triangles, int(count_triangles(compressed))
            )
        )
    if scheme.name == "spanner":
        checks.append(bounds.spanner_edges(original.n, m1, params["k"]))
        checks.append(
            bounds.spanner_components(
                facts.components, connected_components(compressed).num_components
            )
        )
    elif scheme.name == "uniform":
        checks.append(
            bounds.uniform_edges(m0, m1, params["p"], slack=EXPECTATION_SLACK)
        )
    elif scheme.name == "summarization":
        checks.append(bounds.summary_edges(m0, m1, params["epsilon"]))
    return [
        f"{spec}: {c.name} violated (observed {c.observed}, bound {c.bound})"
        for c in checks
        if not c.holds
    ]


def at(index: int, messages) -> list[tuple[int, str]]:
    """Failure messages tagged with the op they belong to."""
    return [(index, m) for m in messages]


def cell_map(table) -> dict:
    """``(scheme, algorithm, metric) -> (value, compression_ratio)`` of a table."""
    return {
        (c.scheme, c.algorithm, c.metric): (c.value, c.compression_ratio)
        for c in table
    }


def nonfinite_cells(cells: dict, where: str) -> list[str]:
    return [
        f"{where}: {key} = {value!r} is not finite"
        for key, (value, _) in cells.items()
        if not math.isfinite(value)
    ]


def cells_differ(got: dict, want: dict, where: str) -> list[str]:
    """Exact equality of two cell maps (values and compression ratios)."""
    if got.keys() != want.keys():
        return [f"{where}: cell sets differ ({sorted(got)} vs {sorted(want)})"]
    return [
        f"{where}: {key} = {got[key]} but expected {want[key]}"
        for key in sorted(want)
        if got[key] != want[key]
    ]


def same_graph(a, b) -> bool:
    """Bit-identical edge lists (the determinism contract of a scheme)."""
    return (
        a.n == b.n
        and np.array_equal(a.edge_src, b.edge_src)
        and np.array_equal(a.edge_dst, b.edge_dst)
    )
