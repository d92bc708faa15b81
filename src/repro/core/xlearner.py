"""XLearner (Sec. 3.1, Alg. 1): causal discovery under FDs + latents.

Three stages, literally following Alg. 1:

1. **FD sink peeling** (lines 1–9, Thm. 3.1).  Topologically sort G_FD; while
   non-root nodes remain, take the deepest node X, connect it in the
   harmonious skeleton S2 to its minimum-cardinality parent Y, and remove X.
   This sidesteps the FD-induced faithfulness violations of Ex. 3.1: the
   peeled variables never enter a CI test.
2. **Standard PAG learning** (lines 10–12).  Run FCI over the remaining
   (FD-root) variables, where faithfulness is assumed to hold, giving G1.
3. **FD orientation** (lines 13–16).  Each FD edge that appears in S2 is
   oriented along the FD (the ANM argument of suppl. 8.6: an FD admits a
   zero-noise forward ANM and almost never a backward one), giving G2.

The returned FD-augmented PAG G concatenates G1 and G2 (line 17).

FD detection and the three stages each run in one span (``fd_detect``,
``fd_peel``, ``fci``, ``fd_orient``) tagged with their counts;
:func:`repro.core.model.fit_model` reads the persisted fit profile off them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro import obs
from repro.data.table import Table
from repro.discovery.fci import FCIResult, default_ci_test, fci, warn_if_unsharded
from repro.errors import DiscoveryError
from repro.fd.graph import FDGraph, fd_graph_from_table
from repro.graph.dag import depths
from repro.graph.mixed_graph import MixedGraph
from repro.independence.base import CITest


@dataclass
class XLearnerResult:
    """The FD-augmented PAG plus every intermediate artifact of Alg. 1."""

    pag: MixedGraph
    fd_graph: FDGraph
    fd_skeleton: tuple[tuple[str, str], ...]
    """S2: (peeled node, chosen parent) pairs, in peeling order."""
    fci_result: FCIResult
    """G1: the PAG learned by FCI over the FD-root variables."""

    @property
    def graph(self) -> MixedGraph:
        return self.pag


def peel_fd_sinks(
    fd_graph: FDGraph, cardinality: dict[str, int]
) -> tuple[tuple[str, str], ...]:
    """Stage 1 (Alg. 1 lines 1–9): build the harmonious skeleton S2.

    Returns (X, Y) pairs meaning "connect peeled sink X to parent Y".
    Thm. 3.1 licenses connecting X to *any* G_FD parent; following the
    paper we use the parent with the lowest cardinality (line 6), which
    "usually aligns with human intuition".
    """
    work = fd_graph.graph.copy()
    node_depths = depths(work)
    edges: list[tuple[str, str]] = []
    non_roots = [n for n in work.nodes if work.parents(n)]
    while non_roots:
        x = max(non_roots, key=lambda n: (node_depths[n], repr(n)))
        parents = work.parents(x)
        y = min(parents, key=lambda p: (cardinality.get(p, 0), repr(p)))
        edges.append((x, y))
        work.remove_node(x)
        non_roots = [n for n in work.nodes if work.parents(n)]
    return tuple(edges)


def xlearner(
    table: Table,
    columns: Sequence[str] | None = None,
    ci_test: CITest | None = None,
    fd_graph: FDGraph | None = None,
    alpha: float = 0.05,
    max_depth: int | None = None,
    max_dsep_size: int | None = 3,
    fd_tolerance: float = 0.0,
    knowledge=None,
    workers: int | None = None,
    executor=None,
) -> XLearnerResult:
    """Learn the FD-augmented PAG of ``table`` (the offline phase of Fig. 3).

    Parameters
    ----------
    columns:
        Variables to learn over; defaults to every dimension.
    ci_test:
        Injected CI test (defaults to a cached χ² test on ``table``).
    fd_graph:
        Pre-built G_FD; detected from the data when omitted.
    knowledge:
        Optional :class:`~repro.discovery.knowledge.BackgroundKnowledge`
        applied to the final PAG (Sec. 5: combining discovery with domain
        knowledge).
    workers / executor:
        Parallel skeleton probing for the FCI stage (see
        :func:`repro.discovery.fci.fci_from_table`); the learned PAG is
        identical to a serial run.
    """
    if columns is None:
        columns = table.dimensions
    columns = tuple(columns)
    if len(columns) < 2:
        raise DiscoveryError("XLearner needs at least two variables")
    if fd_graph is None:
        with obs.span("fd_detect") as sp:
            fd_graph = fd_graph_from_table(table, columns, tolerance=fd_tolerance)
            sp.tag(fd_edges=fd_graph.graph.n_edges)
    if ci_test is None:
        # The vectorized columnar engine: skeleton learning batches its
        # probes through it depth by depth (parity with the per-stratum
        # χ² baseline is enforced by tests/test_ci_engine.py).
        ci_test = default_ci_test(table, alpha=alpha)

    cardinality = {c: table.cardinality(c) for c in columns if c in table.dimensions}

    # Stage 1: peel FD sinks into the harmonious skeleton S2.
    with obs.span("fd_peel") as sp:
        s2_edges = peel_fd_sinks(fd_graph, cardinality)
        sp.tag(peeled=len(s2_edges))
    peeled = {x for x, _ in s2_edges}

    # Stage 2: standard PAG learning over the faithfulness-compliant rest.
    from repro.parallel import executor_scope

    fci_nodes = tuple(
        n for n in fd_graph.nodes if n not in peeled
    )
    # The span holds the executor scope, so a pool's start and stop count
    # towards the phase.
    with obs.span("fci") as sp:
        with executor_scope(workers, executor) as ex:
            warn_if_unsharded(ci_test, ex)
            fci_result = fci(
                fci_nodes,
                ci_test,
                max_depth=max_depth,
                max_dsep_size=max_dsep_size,
                executor=ex,
            )
        sp.tag(tests=fci_result.tests_run, variables=len(fci_nodes))

    # Stage 3: orient S2 along the FDs and concatenate (lines 13–17).
    with obs.span("fd_orient"):
        pag = fci_result.pag.copy()
        for x, y in s2_edges:
            pag.add_node(x)
        for x, y in reversed(s2_edges):
            # S2 contains the edge X—Y; G_FD holds Y --FD--> X (Y determines X)
            # or X --FD--> Y depending on peeling direction: X was the sink, so
            # the FD runs parent → sink, i.e. Y --FD--> X, oriented Y → X.
            if not pag.has_edge(x, y):
                pag.add_directed_edge(y, x)
            else:  # pragma: no cover - S2 edges are new by construction
                pag.orient(y, x)
        if knowledge is not None and not knowledge.is_empty:
            from repro.discovery.knowledge import apply_background_knowledge

            pag = apply_background_knowledge(pag, knowledge)
    return XLearnerResult(pag, fd_graph, s2_edges, fci_result)
