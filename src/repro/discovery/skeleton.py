"""Skeleton learning — the adjacency phase shared by PC and FCI (Alg. 3).

Implements the PC-stable variant (neighbor sets frozen per depth) so the
output is independent of node iteration order, then returns the undirected
skeleton (as circle-circle edges) together with the separating sets that
the orientation phases (R0/R4) consume.

Probing comes in two flavors with identical output:

* **Sequential** — the classic inner loop: probe subsets one at a time and
  stop at the first independence (used for tests without native batching,
  e.g. the m-separation oracle).
* **Batched** — all candidate ``(x, y | Z)`` probes of a depth level are
  emitted as one batch to a vectorized engine
  (:class:`~repro.independence.engine.BatchCITester`, usually behind a
  :class:`~repro.independence.cache.CachedCITest`), then the PC-stable
  visit order is replayed over the precomputed verdicts.  Because CI tests
  are pure, evaluating probes past the first independence cannot change
  which edge is removed or which sepset is recorded — the skeleton and
  SepsetMap are byte-identical to the sequential path.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import combinations
from typing import Hashable, Iterable, Iterator, Sequence

from repro import obs
from repro.graph.endpoints import Endpoint
from repro.graph.mixed_graph import MixedGraph
from repro.independence.base import CITest

Node = Hashable

LOG = logging.getLogger("repro.discovery")


@dataclass
class SepsetMap:
    """Separating sets recorded during skeleton learning.

    Keyed on the unordered pair; ``get`` returns None when the pair was
    never separated (i.e. the edge survived).
    """

    _sets: dict[frozenset, set[Node]] = field(default_factory=dict)

    def record(self, x: Node, y: Node, z: Iterable[Node]) -> None:
        self._sets[frozenset((x, y))] = set(z)

    def get(self, x: Node, y: Node) -> set[Node] | None:
        return self._sets.get(frozenset((x, y)))

    def contains(self, x: Node, y: Node, member: Node) -> bool:
        z = self.get(x, y)
        return z is not None and member in z

    def items(self) -> Iterator[tuple[frozenset, set[Node]]]:
        """Iterate (unordered pair, separating set) — parity/inspection hook."""
        return iter(self._sets.items())

    def __len__(self) -> int:
        return len(self._sets)

    def __eq__(self, other: object) -> bool:
        """Whole-map equality: same separated pairs, same separating sets.

        The parity suites compare entire skeletons with ``==`` (graphs via
        :meth:`MixedGraph.__eq__`, sepsets via this) instead of iterating
        ``items()`` by hand.
        """
        if not isinstance(other, SepsetMap):
            return NotImplemented
        return self._sets == other._sets

    __hash__ = None  # mutable mapping: unhashable, like dict

    def to_dict(self) -> list:
        """JSON-ready payload: ``[x, y, [z...]]`` triples, sorted for
        determinism (nodes must be JSON-representable, e.g. strings)."""
        entries = []
        for pair, z in self._sets.items():
            x, y = sorted(pair, key=repr)
            entries.append([x, y, sorted(z, key=repr)])
        entries.sort(key=lambda e: (repr(e[0]), repr(e[1])))
        return entries

    @classmethod
    def from_dict(cls, payload: list) -> "SepsetMap":
        """Rebuild a SepsetMap from :meth:`to_dict` output."""
        out = cls()
        for x, y, z in payload:
            out.record(x, y, z)
        return out


@dataclass
class SkeletonResult:
    """Skeleton (all circle-circle edges) plus sepsets and test statistics."""

    graph: MixedGraph
    sepsets: SepsetMap
    tests_run: int


def _depth_visits(
    nodes: Sequence[Node],
    frozen_neighbors: dict[Node, set[Node]],
    depth: int,
) -> tuple[list[tuple[Node, Node, tuple[tuple[Node, ...], ...]]], bool]:
    """Ordered (x, y, candidate subsets) visits of one PC-stable depth."""
    visits: list[tuple[Node, Node, tuple[tuple[Node, ...], ...]]] = []
    any_candidate = False
    for x in nodes:
        for y in frozen_neighbors[x]:
            pool = frozen_neighbors[x] - {y}
            if len(pool) < depth:
                continue
            any_candidate = True
            visits.append(
                (x, y, tuple(combinations(sorted(pool, key=repr), depth)))
            )
    return visits, any_candidate


def learn_skeleton(
    nodes: Sequence[Node],
    ci_test: CITest,
    max_depth: int | None = None,
    batch: bool | None = None,
) -> SkeletonResult:
    """FCI-SL lines 1–8 (Alg. 3): depth-wise edge removal.

    Starting from the complete graph, at each depth ``d`` every surviving
    ordered pair (X, Y) is probed with all size-``d`` subsets of
    Neighbor(X)\\{Y}; the edge is deleted on the first independence found,
    and the subset recorded as Sepset(X, Y).

    ``batch=None`` (the default) selects per-depth batched probing exactly
    when ``ci_test.supports_batch`` is true; pass True/False to force a
    strategy.  Both strategies produce identical skeletons and sepsets
    (only ``tests_run`` can differ, since the batch path evaluates a pair's
    whole candidate list up front).

    Each depth runs in a ``skeleton.depth`` span tagged with its counts
    (``pairs``, ``probes``, ``edges_removed``, ``tests``, plus
    ``cache_hits`` when the CI test caches); a fit's persisted
    ``skeleton_depths`` profile is read off those spans.
    """
    graph = MixedGraph(nodes)
    for x, y in combinations(nodes, 2):
        graph.add_edge(x, y, Endpoint.CIRCLE, Endpoint.CIRCLE)
    sepsets = SepsetMap()
    start_calls = ci_test.calls
    use_batch = getattr(ci_test, "supports_batch", False) if batch is None else batch

    depth = 0
    while True:
        if max_depth is not None and depth > max_depth:
            break
        calls_before = ci_test.calls
        hits_before = getattr(ci_test, "hits", None)
        with obs.span("skeleton.depth", depth=depth) as sp:
            # PC-stable: freeze the adjacency structure for this depth.
            frozen_neighbors = {
                node: set(graph.neighbors(node)) for node in nodes
            }
            visits, any_candidate = _depth_visits(nodes, frozen_neighbors, depth)
            to_remove: list[tuple[Node, Node, set[Node]]] = []
            removed_pairs: set[frozenset] = set()

            if use_batch:
                probes = [
                    (x, y, subset)
                    for x, y, subsets in visits
                    for subset in subsets
                ]
                results = ci_test.test_batch(probes)
                verdicts = [r.independent(ci_test.alpha) for r in results]
                offset = 0
                for x, y, subsets in visits:
                    pair = frozenset((x, y))
                    if pair not in removed_pairs:
                        for k, subset in enumerate(subsets):
                            if verdicts[offset + k]:
                                to_remove.append((x, y, set(subset)))
                                removed_pairs.add(pair)
                                break
                    offset += len(subsets)
            else:
                for x, y, subsets in visits:
                    pair = frozenset((x, y))
                    if pair in removed_pairs:
                        continue
                    for subset in subsets:
                        if ci_test.independent(x, y, subset):
                            to_remove.append((x, y, set(subset)))
                            removed_pairs.add(pair)
                            break

            for x, y, z in to_remove:
                if graph.has_edge(x, y):
                    graph.remove_edge(x, y)
                sepsets.record(x, y, z)

            counts = {
                "pairs": len(visits),
                "probes": sum(len(subsets) for _, _, subsets in visits),
                "edges_removed": len(to_remove),
                "tests": ci_test.calls - calls_before,
            }
            if hits_before is not None:
                counts["cache_hits"] = getattr(ci_test, "hits", 0) - hits_before
            sp.tag(**counts)
        LOG.debug(
            "skeleton depth %d: %d probes, %d removed",
            depth,
            counts["probes"],
            counts["edges_removed"],
            extra={"event": "skeleton_depth", "depth": depth, **counts},
        )
        if not any_candidate:
            break
        depth += 1
    return SkeletonResult(graph, sepsets, ci_test.calls - start_calls)


def orient_colliders(
    graph: MixedGraph, sepsets: SepsetMap, as_cpdag: bool = False
) -> None:
    """R0 (Alg. 3 lines 10–14 / Alg. 4 lines 2–6): v-structure orientation.

    For every unshielded triple (X, Y, Z) with Y ∉ Sepset(X, Z), place
    arrowheads at Y.  With ``as_cpdag`` the far endpoints are forced to
    tails (PC's DAG-space convention); otherwise they are left as found
    (FCI keeps circles).
    """
    from repro.graph.paths import unshielded_triples

    for x, y, z in unshielded_triples(graph):
        sep = sepsets.get(x, z)
        if sep is None or y in sep:
            continue
        graph.set_mark(x, y, Endpoint.ARROW)
        graph.set_mark(z, y, Endpoint.ARROW)
        if as_cpdag:
            graph.set_mark(y, x, Endpoint.TAIL)
            graph.set_mark(y, z, Endpoint.TAIL)
