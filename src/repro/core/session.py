"""The online phase as a serving session over a fitted model (Fig. 3, red).

An :class:`ExplainSession` binds one immutable
:class:`~repro.core.model.XInsightModel` to one dataset and answers Why
Queries.  It is stateless with respect to the model (many sessions can
share one model; nothing here mutates it) and caches per-session: repeated
queries against the same (measure, context) skip the candidate resolution,
XTranslator classification, and m-separation traversals they would
otherwise redo, and repeated queries reuse a memoized
:class:`~repro.data.query.QueryWorkspace` (sibling masks + candidate
profiles), so only a query's first occurrence pays the O(N) table scan.
``explain_batch`` serves a whole query stream against a single offline fit
— the fit-once / serve-many workflow the paper's two-phase architecture is
built for.
"""

from __future__ import annotations

import os
import threading
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable

from repro import obs
from repro.core.explanation import Explanation, ExplanationType
from repro.core.model import XInsightModel
from repro.core.xplainer import XPlainerConfig, check_method, explain_attribute
from repro.core.xtranslator import Translation, XDASemantics, translate
from repro.data.query import QueryWorkspace, WhyQuery, candidate_attributes
from repro.data.table import Table
from repro.graph.mixed_graph import MixedGraph
from repro.graph.separation import m_separated

# (measure, foreground, background) — everything the graph-side work of a
# query depends on; two queries sharing it differ only in subspace values.
ContextKey = tuple[str, str, tuple[str, ...]]

# Memoized QueryWorkspaces kept per session.  The cap bounds the *number*
# of resident workspaces, not bytes: each entry pins O(n_rows) masks and
# value slices, so deployments serving high-churn query streams over very
# large tables should size ``workspace_cache`` to the table (or disable it)
# rather than rely on this default.
DEFAULT_WORKSPACE_CACHE = 256


@dataclass
class XInsightReport:
    """Everything the online phase produced for one Why Query."""

    query: WhyQuery
    delta: float
    explanations: list[Explanation]
    translations: dict[str, Translation]

    def top(self, k: int = 5) -> list[Explanation]:
        return self.explanations[:k]

    def causal(self) -> list[Explanation]:
        return [e for e in self.explanations if e.type is ExplanationType.CAUSAL]

    def non_causal(self) -> list[Explanation]:
        return [e for e in self.explanations if e.type is ExplanationType.NON_CAUSAL]


@dataclass
class SessionStats:
    """Cache-effectiveness counters of one session (see ``cache_info``)."""

    queries: int = 0
    translation_hits: int = 0
    translation_misses: int = 0
    homogeneity_hits: int = 0
    homogeneity_misses: int = 0
    workspace_hits: int = 0
    workspace_misses: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


class ExplainSession:
    """Online serving object: ``explain`` / ``explain_batch`` over a model.

    Parameters
    ----------
    model:
        A fitted :class:`XInsightModel` (in-memory or loaded from disk).
    table:
        The data to serve queries against.  The discretized measure
        companions are appended once, using the model's stored bin specs.
    config:
        Default :class:`XPlainerConfig` for this session's searches.
    graph_table:
        Optional precomputed ``model.transform(table)`` result; computed
        here when omitted.
    workspace_cache:
        How many per-query :class:`~repro.data.query.QueryWorkspace`
        objects (sibling masks + candidate-attribute profiles) to keep,
        LRU-evicted.  0 disables workspace memoization — every explain
        rescans the table, which is the pre-vectorization cost profile the
        XPlainer speed harness measures against.

    **Concurrency model.**  One session is safe to share between threads:
    a coarse per-session re-entrant lock makes every ``explain`` (and every
    cache read) atomic, so the memo dicts, the LRU eviction, the mutable
    cached workspaces (whose profiles are built in place), and the
    ``SessionStats`` counters can never race or tear.  The lock
    deliberately trades intra-session parallelism for simplicity —
    concurrent callers of one session serialize.  Throughput under
    concurrency comes from *session affinity* instead: give each worker
    its own session over the shared immutable model, which is exactly what
    the :mod:`repro.parallel` executors (via ``build_state``) and the
    :mod:`repro.serve` service do.  This is the documented choice of
    "lock vs per-worker affinity": lock for safety, affinity for speed.
    """

    def __init__(
        self,
        model: XInsightModel,
        table: Table,
        config: XPlainerConfig | None = None,
        graph_table: Table | None = None,
        workspace_cache: int = DEFAULT_WORKSPACE_CACHE,
    ) -> None:
        self.model = model
        self.table = table
        self.config = config or XPlainerConfig()
        self.graph_table: Table = (
            model.transform(table) if graph_table is None else graph_table
        )
        self.stats = SessionStats()
        self._candidates: dict[ContextKey, tuple[str, ...]] = {}
        self._translations: dict[ContextKey, dict[str, Translation]] = {}
        self._homogeneity: dict[tuple[str, str, frozenset], bool] = {}
        self._workspace_cap = max(0, int(workspace_cache))
        self._workspaces: dict[WhyQuery, QueryWorkspace] = {}
        self._shard_task: "ExplainShardTask | None" = None
        # Coarse safety lock — see the class docstring's concurrency model.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Model delegation
    # ------------------------------------------------------------------

    @property
    def graph(self) -> MixedGraph:
        return self.model.pag

    def node_of(self, column: str) -> str:
        """Graph node standing for a table column (bin alias for measures)."""
        return self.model.node_of(column)

    # ------------------------------------------------------------------
    # Memoized graph-side lookups
    # ------------------------------------------------------------------

    @staticmethod
    def _context_key(query: WhyQuery) -> ContextKey:
        ctx = query.context
        return (query.measure, ctx.foreground, tuple(ctx.background))

    def candidates_for(self, query: WhyQuery) -> tuple[str, ...]:
        """Candidate explanation variables of the query (memoized)."""
        with self._lock:
            key = self._context_key(query)
            cached = self._candidates.get(key)
            if cached is None:
                cached = self._resolve_candidates(query)
                self._candidates[key] = cached
            return cached

    def _resolve_candidates(self, query: WhyQuery) -> tuple[str, ...]:
        aliases = self.model.aliases
        exclude = [self.node_of(query.measure)]
        reverse = {bin_col: measure for measure, bin_col in aliases.items()}
        candidates: list[str] = []
        for column in candidate_attributes(self.graph_table, query, exclude=exclude):
            # Derived bin columns are surfaced under their measure's name so
            # explanations read "LeadTime", not "LeadTime_bin" (Fig. 1(e)'s
            # "Mid ≤ Stress ≤ High" style).
            name = reverse.get(column, column)
            if name == query.measure:
                continue
            if self.graph.has_node(self.node_of(name)):
                candidates.append(name)
        return tuple(dict.fromkeys(candidates))

    def translations_for(self, query: WhyQuery) -> dict[str, Translation]:
        """XTranslator output for every candidate variable (memoized on the
        query's (measure, context) — repeated queries reuse the verdicts)."""
        with self._lock:
            key = self._context_key(query)
            cached = self._translations.get(key)
            if cached is not None:
                self.stats.translation_hits += 1
                return dict(cached)
            self.stats.translation_misses += 1
            out = translate(
                self.graph,
                measure=query.measure,
                context=query.context,
                variables=self.candidates_for(query),
                aliases=self.model.aliases,
            )
            self._translations[key] = out
            return dict(out)

    def is_homogeneous(self, query: WhyQuery, attribute: str) -> bool:
        """Def. 3.7: the siblings are homogeneous on ``attribute`` iff the
        attribute and the foreground are m-separated given the background
        (memoized on the resolved graph nodes)."""
        with self._lock:
            ctx = query.context
            graph = self.graph
            node_x = self.node_of(attribute)
            node_f = self.node_of(ctx.foreground)
            background = frozenset(
                self.node_of(b)
                for b in ctx.background
                if graph.has_node(self.node_of(b))
            )
            key = (node_x, node_f, background)
            cached = self._homogeneity.get(key)
            if cached is not None:
                self.stats.homogeneity_hits += 1
                return cached
            self.stats.homogeneity_misses += 1
            if not graph.has_node(node_x) or not graph.has_node(node_f):
                verdict = False
            else:
                verdict = m_separated(
                    graph, node_x, node_f, background, definite=False
                )
            self._homogeneity[key] = verdict
            return verdict

    def workspace_for(self, query: WhyQuery) -> QueryWorkspace:
        """The query's :class:`~repro.data.query.QueryWorkspace` (memoized).

        Repeated queries — the dominant shape of a serving stream — reuse
        the sibling masks, Δ(D), and every candidate-attribute profile
        already built for the query, so only the first occurrence pays the
        O(N) table scan.
        """
        with self._lock:
            if self._workspace_cap == 0:
                self.stats.workspace_misses += 1
                return QueryWorkspace(self.graph_table, query)
            cached = self._workspaces.get(query)
            if cached is not None:
                self.stats.workspace_hits += 1
                self._workspaces[query] = self._workspaces.pop(query)  # LRU touch
                return cached
            # A cached workspace for the sibling-swapped alias shares all the
            # row-level work: derive this query's workspace with a cheap swap
            # instead of rescanning the table.
            alias_key = WhyQuery(query.s2, query.s1, query.measure, query.agg)
            alias = self._workspaces.get(alias_key)
            if alias is not None:
                self.stats.workspace_hits += 1
                self._workspaces[alias_key] = self._workspaces.pop(alias_key)
                workspace = alias.swapped()
            else:
                self.stats.workspace_misses += 1
                workspace = QueryWorkspace(self.graph_table, query)
            self._cache_workspace(query, workspace)
            return workspace

    def _cache_workspace(self, query: WhyQuery, workspace: QueryWorkspace) -> None:
        if self._workspace_cap == 0:
            return
        while len(self._workspaces) >= self._workspace_cap:
            self._workspaces.pop(next(iter(self._workspaces)))
        self._workspaces[query] = workspace

    def cache_info(self) -> dict[str, int]:
        """Counters plus cache sizes — serving observability in one dict."""
        with self._lock:
            info = self.stats.as_dict()
            info["translation_entries"] = len(self._translations)
            info["homogeneity_entries"] = len(self._homogeneity)
            info["workspace_entries"] = len(self._workspaces)
            return info

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def explain(
        self,
        query: WhyQuery,
        method: str = "auto",
        config: XPlainerConfig | None = None,
    ) -> XInsightReport:
        """Answer a Why Query with ranked, typed explanations.

        Atomic under the session lock: concurrent callers serialize (see
        the class docstring's concurrency model).  An unknown ``method``
        raises :class:`~repro.errors.ExplanationError` before any work is
        done."""
        check_method(method)
        with self._lock:
            return self._explain_locked(query, method, config)

    def _explain_locked(
        self,
        query: WhyQuery,
        method: str = "auto",
        config: XPlainerConfig | None = None,
    ) -> XInsightReport:
        self.stats.queries += 1
        stats = self.stats
        with obs.span("explain") as explain_span:
            with obs.span("workspace") as sp:
                hits_before = stats.workspace_hits
                workspace = self.workspace_for(query).oriented()
                if workspace.query != query:
                    # Δ < 0 swapped the siblings.  Prefer the cached oriented
                    # workspace (it already holds this query's profiles — a
                    # fresh swap starts empty); otherwise register the swap
                    # under its own key so pre-oriented repeats hit the cache
                    # too.
                    cached = self._workspaces.get(workspace.query)
                    if cached is not None:
                        self._workspaces[workspace.query] = self._workspaces.pop(
                            workspace.query
                        )  # LRU touch
                        workspace = cached
                    else:
                        self._cache_workspace(workspace.query, workspace)
                    query = workspace.query
                if sp:
                    sp.tag(
                        cache="hit"
                        if stats.workspace_hits > hits_before
                        else "miss"
                    )
            delta = workspace.delta
            with obs.span("translation") as sp:
                hits_before = stats.translation_hits
                translations = self.translations_for(query)
                if sp:
                    sp.tag(
                        cache="hit"
                        if stats.translation_hits > hits_before
                        else "miss",
                        candidates=len(translations),
                    )
            config = config or self.config

            explainable = [
                (variable, self.node_of(variable), verdict)
                for variable, verdict in translations.items()
                if verdict.semantics is not XDASemantics.NO_EXPLAINABILITY
            ]
            # Homogeneity verdicts are pure graph lookups (memoized), so
            # hoisting them out of the search loop keeps results identical
            # while giving the phase its own span + cache accounting.
            with obs.span("homogeneity") as sp:
                hits_before = stats.homogeneity_hits
                misses_before = stats.homogeneity_misses
                homogeneous = {
                    variable: self.is_homogeneous(query, variable)
                    for variable, _, _ in explainable
                }
                if sp:
                    sp.tag(
                        cache_hits=stats.homogeneity_hits - hits_before,
                        cache_misses=stats.homogeneity_misses - misses_before,
                    )

            with obs.span("search") as sp:
                workspace.build_profiles(
                    [attribute for _, attribute, _ in explainable]
                )
                explanations: list[Explanation] = []
                for variable, attribute, verdict in explainable:
                    found = explain_attribute(
                        self.graph_table,
                        query,
                        attribute,
                        config=config,
                        method=method,
                        homogeneous=homogeneous[variable],
                        workspace=workspace,
                    )
                    if found is None:
                        continue
                    explanations.append(
                        Explanation(
                            type=ExplanationType.from_semantics(verdict.semantics),
                            predicate=found.predicate,
                            responsibility=found.responsibility,
                            attribute=variable,
                            role=verdict.role,
                            score=found.score,
                            contingency=found.contingency,
                        )
                    )
                if sp:
                    sp.tag(
                        attributes=len(explainable),
                        explanations=len(explanations),
                    )
            explanations.sort(
                key=lambda e: (e.type is not ExplanationType.CAUSAL, -e.score)
            )
            if explain_span:
                explain_span.tag(
                    delta=round(delta, 6), explanations=len(explanations)
                )
        return XInsightReport(query, delta, explanations, translations)

    def explain_batch(
        self,
        queries: Iterable[WhyQuery],
        method: str = "auto",
        config: XPlainerConfig | None = None,
        workers: int | None = None,
        executor=None,
        traces: "Iterable[obs.Trace | None] | None" = None,
        on_error: str = "raise",
    ) -> list:
        """Answer a stream of Why Queries against the one fitted model.

        Reports come back in input order; all per-context graph work is
        shared through the session caches, so a batch of queries over few
        distinct contexts costs little more than one query per context.

        ``workers`` / ``executor`` (see :mod:`repro.parallel`) select the
        sharded mode: the query list is split into balanced contiguous
        shards and fanned out across workers that each rebuild a serving
        session over this session's model artifact exactly once (for
        process workers, via the same versioned payload ``save``/``load``
        round-trips through), then the ranked reports are merged back in
        input order.  Explanations are per-query pure, so sharded output is
        identical to serial; only this session's translation/homogeneity
        cache counters stay untouched — the per-worker sessions cache
        privately.

        ``traces`` threads one optional :class:`repro.obs.Trace` per query
        through the explain: serial explains run with that trace activated
        (phase spans land under its ``attach_at``), while sharded explains
        ship the trace id across the pickle boundary and graft the span
        tree each worker returns back into the parent trace.

        ``on_error`` selects failure semantics: ``"raise"`` (default)
        propagates the first per-query exception, ``"return"`` attempts
        every query exactly once and returns the exception object in that
        query's slot — the mode the micro-batching service uses so one
        poison query neither kills its batch-mates nor double-counts
        :class:`SessionStats` on a retry.
        """
        queries = list(queries)
        if on_error not in ("raise", "return"):
            raise ValueError(f"on_error must be 'raise' or 'return', got {on_error!r}")
        trace_list = list(traces) if traces is not None else None
        if trace_list is not None and len(trace_list) != len(queries):
            raise ValueError("traces must match queries one-to-one")
        from repro.parallel import executor_scope, plan_shards

        with executor_scope(workers, executor) as ex:
            if ex.workers <= 1 or len(queries) <= 1:
                results: list = []
                for index, query in enumerate(queries):
                    trace = trace_list[index] if trace_list is not None else None
                    try:
                        with obs.activate(trace):
                            results.append(
                                self.explain(query, method=method, config=config)
                            )
                    except Exception as exc:
                        if on_error == "raise":
                            raise
                        results.append(exc)
                return results
            task = self._shard_task_for(config or self.config, method)
            shards = plan_shards(len(queries), ex.workers)
            trace_ids = [
                trace.trace_id if trace is not None else None
                for trace in (trace_list or [None] * len(queries))
            ]
            payloads = [
                TracedShard(
                    s.take(queries),
                    s.take(trace_ids),
                    return_exceptions=(on_error == "return"),
                )
                for s in shards
            ]
            flat = []
            for outcome in ex.map(task, payloads):
                for report, span_tree in zip(outcome.reports, outcome.spans):
                    trace = trace_list[len(flat)] if trace_list is not None else None
                    if trace is not None and span_tree is not None:
                        trace.graft_shard(span_tree)
                    flat.append(report)
        with self._lock:
            self.stats.queries += len(queries)
        return flat

    def explain_view(
        self,
        view,
        orientation: str = "both",
        method: str = "auto",
        config: XPlainerConfig | None = None,
        workers: int | None = None,
        executor=None,
        on_error: str = "return",
    ):
        """Summarize a whole aggregate view with one ranked report.

        ``view`` is a :class:`~repro.data.groupby.GroupByResult` or an
        untrusted ``{"by": ..., "measure": ..., "agg": ...}`` spec
        evaluated here against the session's table (the shape the wire
        fronts forward).  Every sibling Why Query of the view (see
        :func:`repro.core.view.enumerate_view_queries` for the
        ``orientation`` choices) runs through one :meth:`explain_batch`
        call, in the memoization-friendly order — pairwise comparisons
        first, then the vs-rest repeats that hit the still-warm
        :class:`~repro.data.query.QueryWorkspace` cache — and the per-pair
        reports merge into one
        :class:`~repro.core.view.ViewSummary` (deduplicated, ranked,
        per-pair provenance retained).

        ``on_error="return"`` (default) isolates poison pairs: a failing
        pair becomes one errored row of the summary, the rest of the view
        still answers.  ``"raise"`` propagates the first failure instead.
        ``workers``/``executor`` select :meth:`explain_batch`'s sharded
        mode; reports are per-query pure, so the summary is identical to
        serial.
        """
        from repro.core.view import summarize_view, view_queries

        view, specs = view_queries(view, self.table, orientation)
        reports = self.explain_batch(
            [spec.query for spec in specs],
            method=method,
            config=config,
            workers=workers,
            executor=executor,
            on_error=on_error,
        )
        return summarize_view(view, specs, reports)

    def _shard_task_for(
        self, config: XPlainerConfig, method: str
    ) -> "ExplainShardTask":
        """The shard task of this session (cached per (config, method)).

        Task identity is what a :class:`~repro.parallel.ProcessExecutor`
        keys its worker pool on, so a serving loop that calls
        ``explain_batch`` repeatedly with one caller-owned executor must
        get the *same* task object back to keep the pool (and the model
        payload shipped to each worker) alive across calls.
        """
        with self._lock:
            task = self._shard_task
            if (
                task is None
                or task.config != config
                or task.method != method
                or task.workspace_cache != self._workspace_cap
            ):
                task = ExplainShardTask(
                    self.model.to_dict(),
                    self.table,
                    config,
                    method,
                    workspace_cache=self._workspace_cap,
                )
                self._shard_task = task
            return task


@dataclass
class TracedShard:
    """The payload of every serving shard: a query slice plus its trace
    context, carried across the pickle boundary.

    ``trace_ids`` pairs one optional trace id with each query; the worker
    opens a local :class:`repro.obs.Trace` per traced query and ships the
    finished span tree back (see :meth:`repro.obs.Trace.shard_payload`)
    for the parent to graft.  ``return_exceptions`` mirrors
    ``explain_batch(on_error="return")``: per-query failures come back as
    exception objects in the report slot instead of aborting the shard.
    """

    queries: list[WhyQuery]
    trace_ids: list[str | None]
    return_exceptions: bool = False


@dataclass
class ShardOutcome:
    """What a worker returns for a :class:`TracedShard`: reports (or
    exceptions) plus one span-tree payload per traced query."""

    reports: list
    spans: list[dict[str, Any] | None] = field(default_factory=list)


class ExplainShardTask:
    """Picklable :class:`~repro.parallel.ShardTask` for sharded serving.

    Carries the model's versioned payload (the exact dict ``save`` writes)
    plus the serving table; ``build_state`` rebuilds the model and opens a
    private :class:`ExplainSession` once per worker, so per-shard pickle
    traffic is only the query slices out and the reports back — the
    fit-once / serve-many artifact crosses each worker boundary once.

    When the serving table is store-backed (``Table.from_store``), even
    that once is O(manifest): the table pickles as its store path and each
    worker re-attaches to the shared read-only column mapping instead of
    receiving row data (see :mod:`repro.data.store`).
    """

    def __init__(
        self,
        model_payload: dict,
        table: Table,
        config: XPlainerConfig,
        method: str,
        workspace_cache: int = DEFAULT_WORKSPACE_CACHE,
    ) -> None:
        self.model_payload = model_payload
        self.table = table
        self.config = config
        self.method = method
        self.workspace_cache = workspace_cache

    def build_state(self) -> ExplainSession:
        model = XInsightModel.from_dict(self.model_payload)
        return ExplainSession(
            model,
            self.table,
            config=self.config,
            workspace_cache=self.workspace_cache,
        )

    def run(self, session: ExplainSession, payload: TracedShard) -> ShardOutcome:
        reports: list = []
        spans: list[dict[str, Any] | None] = []
        for query, trace_id in zip(payload.queries, payload.trace_ids):
            trace = (
                obs.Trace(name="shard", trace_id=trace_id)
                if trace_id is not None
                else None
            )
            if trace is not None:
                trace.root.tag(pid=os.getpid())
            try:
                with obs.activate(trace):
                    result: Any = session.explain(query, method=self.method)
            except Exception as exc:
                if not payload.return_exceptions:
                    raise
                result = exc
            reports.append(result)
            spans.append(trace.shard_payload() if trace is not None else None)
        return ShardOutcome(reports, spans)
