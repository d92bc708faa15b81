"""The PC algorithm — the causal-sufficiency baseline of Table 2.

PC assumes no latent confounders: skeleton + v-structures + Meek rules
yield a CPDAG.  Included because the paper's Table 2 contrasts PC / FCI /
REAL / XLearner on orientation, FD-robustness and causal insufficiency; the
Table 2 capability bench exercises exactly these failure modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.discovery.skeleton import SepsetMap, learn_skeleton, orient_colliders
from repro.graph.endpoints import Endpoint
from repro.graph.mixed_graph import MixedGraph
from repro.independence.base import CITest

Node = Hashable

ARROW, TAIL, CIRCLE = Endpoint.ARROW, Endpoint.TAIL, Endpoint.CIRCLE


@dataclass
class PCResult:
    """Learned CPDAG (undirected edges are tail-tail) plus sepsets."""

    cpdag: MixedGraph
    sepsets: SepsetMap
    tests_run: int


def _is_undirected(g: MixedGraph, u: Node, v: Node) -> bool:
    return g.mark(u, v) is TAIL and g.mark(v, u) is TAIL


def _meek(graph: MixedGraph) -> None:
    """Meek rules M1–M3 to fixpoint over a partially directed graph."""
    changed = True
    while changed:
        changed = False
        for b in graph.nodes:
            for c in graph.neighbors(b):
                if not _is_undirected(graph, b, c):
                    continue
                if _meek_fires(graph, b, c):
                    graph.orient(b, c)
                    changed = True


def _meek_fires(g: MixedGraph, b: Node, c: Node) -> bool:
    # M1: a -> b - c, a and c non-adjacent  =>  b -> c
    for a in g.neighbors(b):
        if a != c and g.is_parent(a, b) and not g.has_edge(a, c):
            return True
    # M2: b -> a -> c with b - c  =>  b -> c
    for a in g.neighbors(b):
        if a != c and g.is_parent(b, a) and g.is_parent(a, c):
            return True
    # M3: b - a1 -> c, b - a2 -> c, a1/a2 non-adjacent  =>  b -> c
    spouses = [
        a
        for a in g.neighbors(b)
        if a != c and _is_undirected(g, b, a) and g.is_parent(a, c)
    ]
    for i, a1 in enumerate(spouses):
        for a2 in spouses[i + 1 :]:
            if not g.has_edge(a1, a2):
                return True
    # Meek's R4 only fires when background knowledge injects orientations
    # that R0 cannot produce; plain PC never triggers it, so M1–M3 are
    # complete here (Meek 1995).
    return False


def pc_from_table(
    table,
    alpha: float = 0.05,
    columns: Sequence[str] | None = None,
    workers: int | None = None,
    executor=None,
    **kwargs,
) -> PCResult:
    """Convenience entry point: PC on a Table with a cached χ² test,
    mirroring ``fci_from_table`` — including its ``workers``/``executor``
    kwargs for sharded skeleton probing."""
    from repro.discovery.fci import default_ci_test, warn_if_unsharded
    from repro.parallel import executor_scope

    if columns is None:
        columns = table.dimensions
    ci_test = default_ci_test(table, alpha=alpha)
    with executor_scope(workers, executor) as ex:
        warn_if_unsharded(ci_test, ex)
        return pc(tuple(columns), ci_test, executor=ex, **kwargs)


def pc(
    nodes: Sequence[Node],
    ci_test: CITest,
    max_depth: int | None = None,
    executor=None,
) -> PCResult:
    """Run PC-stable and return a CPDAG."""
    start_calls = ci_test.calls
    skel = learn_skeleton(nodes, ci_test, max_depth, executor=executor)
    graph = skel.graph
    orient_colliders(graph, skel.sepsets, as_cpdag=True)
    # Remaining circle marks denote undirected CPDAG edges: use tails.
    for u, v, mark_u, mark_v in list(graph.edges()):
        if mark_u is CIRCLE:
            graph.set_mark(v, u, TAIL)
        if mark_v is CIRCLE:
            graph.set_mark(u, v, TAIL)
    _meek(graph)
    return PCResult(graph, skel.sepsets, ci_test.calls - start_calls)
