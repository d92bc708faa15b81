"""The FD-induced graph G_FD (Sec. 2.1).

``G_FD = (V, E)`` has every attribute as a node and a directed edge per FD.
The paper assumes G_FD is acyclic: cycles (mutual one-to-one FDs) imply
redundant attributes, of which only one representative is retained.  We
collapse strongly-connected components, keeping the member with the lowest
cardinality (ties broken by name for determinism) and recording the dropped
equivalents so callers can report them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.data.table import Table
from repro.errors import FDError
from repro.fd.detect import FD, find_functional_dependencies
from repro.graph.dag import validate_dag
from repro.graph.mixed_graph import MixedGraph


@dataclass(frozen=True)
class FDGraph:
    """Acyclic FD-induced graph plus the redundancy bookkeeping."""

    graph: MixedGraph
    dependencies: tuple[FD, ...]
    redundant: Mapping[str, str] = field(default_factory=dict)
    """Dropped attribute -> retained representative (one-to-one FD cycles)."""

    @property
    def nodes(self) -> tuple[str, ...]:
        return self.graph.nodes  # type: ignore[return-value]

    @property
    def fd_nodes(self) -> tuple[str, ...]:
        """Nodes with at least one incoming FD (the non-root nodes that
        trigger faithfulness violations, Sec. 3.1)."""
        return tuple(n for n in self.graph.nodes if self.graph.parents(n))

    @property
    def root_nodes(self) -> tuple[str, ...]:
        """Nodes without incoming FDs — the faithfulness-compliant subset."""
        return tuple(n for n in self.graph.nodes if not self.graph.parents(n))

    @property
    def is_empty(self) -> bool:
        return self.graph.n_edges == 0

    def has_fd(self, lhs: str, rhs: str) -> bool:
        return self.graph.is_parent(lhs, rhs)

    def to_dict(self) -> dict:
        """JSON-ready payload for model persistence."""
        return {
            "graph": self.graph.to_dict(),
            "dependencies": [[fd.lhs, fd.rhs] for fd in self.dependencies],
            "redundant": dict(self.redundant),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FDGraph":
        """Rebuild an FDGraph from :meth:`to_dict` output."""
        return cls(
            graph=MixedGraph.from_dict(payload["graph"]),
            dependencies=tuple(
                FD(lhs, rhs) for lhs, rhs in payload["dependencies"]
            ),
            redundant=dict(payload["redundant"]),
        )


def build_fd_graph(
    attributes: Sequence[str],
    dependencies: Iterable[FD],
    cardinalities: Mapping[str, int] | None = None,
) -> FDGraph:
    """Construct G_FD, collapsing one-to-one cycles to a representative.

    Parameters
    ----------
    attributes:
        Every attribute of the dataset (isolated nodes are kept — they are
        the FD-free roots that standard FCI will handle).
    cardinalities:
        Optional attribute cardinalities used to pick the cycle
        representative (lowest cardinality, mirroring the paper's
        preference for low-cardinality parents in Alg. 1).
    """
    deps = sorted(set(dependencies))
    for fd in deps:
        if fd.lhs not in attributes or fd.rhs not in attributes:
            raise FDError(f"FD {fd} mentions an unknown attribute")

    successors: dict[str, set[str]] = {attr: set() for attr in attributes}
    for fd in deps:
        successors[fd.lhs].add(fd.rhs)

    def reachable(start: str) -> set[str]:
        seen, stack = {start}, [start]
        while stack:
            for nxt in successors[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    def rank(attr: str) -> tuple:
        card = cardinalities.get(attr, 0) if cardinalities else 0
        return (card, str(attr))

    # Two attributes share a strongly-connected component exactly when each
    # reaches the other along FD edges.
    reach = {attr: reachable(attr) for attr in successors}
    representative: dict[str, str] = {}
    redundant: dict[str, str] = {}
    for attr, seen in reach.items():
        rep = min((other for other in seen if attr in reach[other]), key=rank)
        representative[attr] = rep
        if attr != rep:
            redundant[attr] = rep

    collapsed = MixedGraph(dict.fromkeys(representative[a] for a in attributes))
    kept_deps: list[FD] = []
    for fd in deps:
        lhs, rhs = representative[fd.lhs], representative[fd.rhs]
        if lhs == rhs or collapsed.has_edge(lhs, rhs):
            continue
        collapsed.add_directed_edge(lhs, rhs)
        kept_deps.append(FD(lhs, rhs))
    try:
        validate_dag(collapsed)
    except Exception as exc:  # pragma: no cover - SCC collapse guarantees DAG
        raise FDError(f"FD graph not acyclic after collapsing: {exc}") from exc
    return FDGraph(collapsed, tuple(sorted(kept_deps)), redundant)


def fd_graph_from_table(
    table: Table,
    attributes: Sequence[str] | None = None,
    tolerance: float = 0.0,
) -> FDGraph:
    """Detect FDs on a table and build the acyclic G_FD in one step."""
    if attributes is None:
        attributes = table.dimensions
    deps = find_functional_dependencies(table, attributes, tolerance)
    cards = {a: table.cardinality(a) for a in attributes}
    return build_fd_graph(tuple(attributes), deps, cards)
