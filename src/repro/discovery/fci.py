"""The FCI algorithm (Supplementary Algs. 3–4; Spirtes et al., Zhang 2008).

Pipeline: PC-style skeleton → v-structures (R0) → Possible-D-SEP pruning →
re-orientation from scratch → rules R1–R10 to fixpoint.  The CI test is
injected, so the same code runs with the m-separation oracle (exactness
tests) and with statistical tests on data (benchmarks).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Hashable, Sequence

from repro import obs
from repro.discovery.orientation import apply_fci_rules
from repro.discovery.skeleton import (
    SepsetMap,
    SkeletonResult,
    learn_skeleton,
    orient_colliders,
)
from repro.graph.endpoints import Endpoint
from repro.graph.mixed_graph import MixedGraph
from repro.independence.base import CITest

Node = Hashable


@dataclass
class FCIResult:
    """Learned PAG plus the artifacts of the intermediate phases."""

    pag: MixedGraph
    sepsets: SepsetMap
    tests_run: int


def possible_d_sep(graph: MixedGraph, x: Node) -> set[Node]:
    """Def. 8.2: Possible-D-SEP(x, ·) in a partially oriented graph.

    Reachability over edge-states where each traversed triple (u, v, w)
    has v a (definite) collider, or u, v, w forming a triangle with v not
    marked as a definite non-collider.
    """
    reachable: set[Node] = set()
    queue = [(x, n) for n in graph.neighbors(x)]
    visited = set(queue)
    while queue:
        prev, cur = queue.pop()
        reachable.add(cur)
        for nxt in graph.neighbors(cur):
            if nxt == prev or (cur, nxt) in visited:
                continue
            collider = graph.is_into(prev, cur) and graph.is_into(nxt, cur)
            triangle = graph.has_edge(prev, nxt) and not graph.is_definite_noncollider(
                prev, cur, nxt
            )
            if collider or triangle:
                visited.add((cur, nxt))
                queue.append((cur, nxt))
    reachable.discard(x)
    return reachable


def _possible_d_sep_prune(
    graph: MixedGraph,
    sepsets: SepsetMap,
    ci_test: CITest,
    max_cond_size: int | None,
) -> bool:
    """Alg. 3 lines 15–19: test within Ext-D-SEP, remove edges on success."""
    removed = False
    for x, y, *_ in list(graph.edges()):
        ext = (possible_d_sep(graph, x) | possible_d_sep(graph, y)) - {x, y}
        pool = sorted(ext, key=repr)
        limit = len(pool) if max_cond_size is None else min(len(pool), max_cond_size)
        found = False
        for size in range(0, limit + 1):
            for subset in combinations(pool, size):
                if ci_test.independent(x, y, subset):
                    graph.remove_edge(x, y)
                    sepsets.record(x, y, subset)
                    removed = True
                    found = True
                    break
            if found:
                break
    return removed


def fci(
    nodes: Sequence[Node],
    ci_test: CITest,
    max_depth: int | None = None,
    max_dsep_size: int | None = 3,
    complete_rules: bool = True,
    use_possible_d_sep: bool = True,
) -> FCIResult:
    """Run FCI over ``nodes`` and return the PAG.

    Parameters
    ----------
    max_depth:
        Cap on the conditioning-set size of the skeleton phase (None = ∞).
    max_dsep_size:
        Cap on the conditioning-set size in the Possible-D-SEP phase; the
        default 3 follows common practice to keep the phase tractable.
    complete_rules:
        Apply Zhang's full R1–R10 (True) or only R1–R4.

    The three phases run in ``skeleton``, ``possible_d_sep`` and
    ``orientation`` spans, the first two tagged with the CI tests they ran;
    a fit's persisted profile reads its FCI sub-phases off those spans.
    """
    start_calls = ci_test.calls
    with obs.span("skeleton") as sp:
        skel: SkeletonResult = learn_skeleton(nodes, ci_test, max_depth)
        sp.tag(tests=skel.tests_run)
    graph = skel.graph
    sepsets = skel.sepsets

    calls_before = ci_test.calls
    with obs.span("possible_d_sep") as sp:
        orient_colliders(graph, sepsets)
        if use_possible_d_sep:
            removed = _possible_d_sep_prune(graph, sepsets, ci_test, max_dsep_size)
            # Reset orientations and redo R0 with the enriched sepsets.
            if removed:
                for u, v, *_ in list(graph.edges()):
                    graph.set_mark(u, v, Endpoint.CIRCLE)
                    graph.set_mark(v, u, Endpoint.CIRCLE)
                orient_colliders(graph, sepsets)
        sp.tag(tests=ci_test.calls - calls_before)

    with obs.span("orientation"):
        apply_fci_rules(graph, sepsets, complete_rules=complete_rules)
    return FCIResult(graph, sepsets, ci_test.calls - start_calls)


def default_ci_test(table, alpha: float = 0.05) -> CITest:
    """The default discovery CI test for a Table: cached χ² over the batched
    columnar engine of :mod:`repro.independence.engine`, which skeleton
    learning drives with per-depth probe batches."""
    from repro.independence.cache import CachedCITest
    from repro.independence.engine import ChiSquaredTest

    return CachedCITest(ChiSquaredTest(table, alpha=alpha))


def fci_from_table(
    table,
    ci_test_factory=None,
    alpha: float = 0.05,
    columns: Sequence[str] | None = None,
    **kwargs,
) -> FCIResult:
    """Convenience entry point: FCI on a Table with a cached χ² test."""
    if columns is None:
        columns = table.dimensions
    if ci_test_factory is None:
        ci_test = default_ci_test(table, alpha=alpha)
    else:
        ci_test = ci_test_factory(table)
    return fci(tuple(columns), ci_test, **kwargs)
