"""Whole-view causal summaries — explain the chart, not one bar pair.

The paper's workflow starts from an aggregate view (Fig. 1(b):
``AVG(LungCancer) GROUP BY Location``); classic serving answers one
sibling Why Query at a time, so a dashboard with 20 bars costs 20
uncoordinated requests.  Following Youngmann et al., "Summarized Causal
Explanations For Aggregate Views" (PAPERS.md), this module summarizes the
*entire* view: enumerate every sibling comparison the chart affords,
explain them as one batch (shared :class:`~repro.data.query.QueryWorkspace`
and translation/homogeneity caches make the marginal pair nearly free),
then merge the per-pair reports into one ranked, deduplicated
:class:`ViewSummary`.

Enumeration (:func:`enumerate_view_queries`) is deterministic and
Δ-oriented — every query puts the higher bar on the ``s1`` side, pairs come
in chart order — and covers two orientations:

``pairwise``
    every sibling group pair (keys differing in exactly one dimension),
    in ``(i, j)`` chart order.
``vs_rest``
    one comparison per group against "the rest of the view".  A subspace
    is a conjunction of single-value filters, so the literal rest-of-view
    disjunction is not a sibling subspace; the documented proxy compares
    each group against the sibling whose aggregate is nearest the exactly
    pooled rest aggregate (AVG: Σvᵢcᵢ/Σcᵢ, SUM: Σvᵢ, COUNT: Σcᵢ).

``both`` (the default) runs pairwise first, then vs-rest: the vs-rest
queries repeat pairwise ones, so they hit the still-warm workspace cache —
the ordering is the memoization-friendly one by construction.

Merging (:func:`summarize_view`) deduplicates explanations by
``(predicate, attribute, type)``, keeps the highest-responsibility
instance's verdict, scores each by summed responsibility across the pairs
it covers plus coverage (fraction of pairs), and retains full per-pair
provenance (each :class:`ViewPair` carries its report in the stable
:func:`~repro.core.reporting.report_to_dict` schema, or the error that
felled it — one poison pair degrades one row, never the view).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Mapping, Sequence

from repro.core.explanation import Explanation
from repro.core.reporting import report_to_dict
from repro.data.aggregates import Aggregate, parse_aggregate
from repro.data.filters import Subspace
from repro.data.groupby import GroupByResult, GroupedValue, group_by
from repro.data.query import WhyQuery
from repro.data.table import Table
from repro.errors import QueryError

#: Valid ``orientation`` arguments everywhere a view is enumerated.
ORIENTATIONS = ("pairwise", "vs_rest", "both")


def view_from_spec(spec: Mapping[str, Any], table: Table) -> GroupByResult:
    """Evaluate an untrusted ``{by, measure, agg}`` view spec server-side.

    The view-spec twin of :func:`~repro.data.query.query_from_spec` — the
    validation boundary shared by the CLI, the TCP op and the HTTP route.
    ``by`` (alias ``dimensions``) is one dimension name or a list of them;
    ``agg`` defaults to AVG.  Anything malformed raises a typed
    :class:`~repro.errors.QueryError`.
    """
    if not isinstance(spec, Mapping):
        raise QueryError(
            f"view spec must be an object, got {type(spec).__name__}"
        )
    unknown = set(spec) - {"by", "dimensions", "measure", "agg"}
    if unknown:
        raise QueryError(f"unknown view spec field(s) {sorted(unknown)!r}")
    if "by" in spec and "dimensions" in spec:
        raise QueryError("view spec takes 'by' or 'dimensions', not both")
    dimensions = spec.get("by", spec.get("dimensions"))
    if isinstance(dimensions, str):
        dimensions = (dimensions,)
    if not isinstance(dimensions, Sequence) or not dimensions or not all(
        isinstance(d, str) for d in dimensions
    ):
        raise QueryError(
            "view spec needs 'by': one dimension name or a non-empty list "
            "of them"
        )
    measure = spec.get("measure")
    if not isinstance(measure, str):
        raise QueryError("view spec needs a 'measure' string")
    agg = parse_aggregate(spec.get("agg", Aggregate.AVG))
    return group_by(table, tuple(dimensions), measure, agg)


@dataclass(frozen=True)
class ViewQuerySpec:
    """One enumerated sibling comparison, before it is explained.

    ``subject`` is set on vs-rest rows only: the group the comparison
    summarizes (two vs-rest rows may orient to the *same* sibling pair —
    the subject is what tells them apart, e.g. for canonical ordering).
    """

    kind: str  # "pairwise" | "vs_rest"
    s1: GroupedValue  # the higher bar (Δ-oriented)
    s2: GroupedValue
    query: WhyQuery
    subject: GroupedValue | None = None


def _oriented(a: GroupedValue, b: GroupedValue) -> tuple[GroupedValue, GroupedValue]:
    """Higher bar first; ties keep chart order."""
    return (a, b) if a.value >= b.value else (b, a)


def _pair_query(view: GroupByResult, s1: GroupedValue, s2: GroupedValue) -> WhyQuery:
    return WhyQuery.create(
        Subspace.of(**dict(zip(view.dimensions, s1.key))),
        Subspace.of(**dict(zip(view.dimensions, s2.key))),
        view.measure,
        view.agg,
    )


def _rest_aggregate(view: GroupByResult, siblings: Sequence[GroupedValue]) -> float:
    """The exactly pooled aggregate of a group's sibling set."""
    total = sum(g.value * g.count if view.agg is Aggregate.AVG else 0.0 for g in siblings)
    if view.agg is Aggregate.AVG:
        count = sum(g.count for g in siblings)
        return total / count if count else 0.0
    if view.agg is Aggregate.SUM:
        return sum(g.value for g in siblings)
    return float(sum(g.count for g in siblings))


def enumerate_view_queries(
    view: GroupByResult, orientation: str = "both"
) -> list[ViewQuerySpec]:
    """All sibling Why Queries of a view, deterministically ordered.

    See the module docstring for the two orientations and why ``both``
    emits pairwise before vs-rest (cache warmth).  Views without any
    sibling pair (a single bar, or facets with no shared edge) return an
    empty list — the caller decides whether that is an error.
    """
    if orientation not in ORIENTATIONS:
        raise QueryError(
            f"orientation must be one of {list(ORIENTATIONS)}, "
            f"got {orientation!r}"
        )
    pairs = view.sibling_pairs()
    specs: list[ViewQuerySpec] = []
    if orientation in ("pairwise", "both"):
        for a, b in pairs:
            s1, s2 = _oriented(a, b)
            specs.append(ViewQuerySpec("pairwise", s1, s2, _pair_query(view, s1, s2)))
    if orientation in ("vs_rest", "both"):
        siblings_of: dict[tuple, list[GroupedValue]] = {
            g.key: [] for g in view.groups
        }
        for a, b in pairs:
            siblings_of[a.key].append(b)
            siblings_of[b.key].append(a)
        for group in view.groups:
            siblings = siblings_of[group.key]
            if not siblings:
                continue
            rest = _rest_aggregate(view, siblings)
            proxy = min(siblings, key=lambda g: (abs(g.value - rest), view.groups.index(g)))
            s1, s2 = _oriented(group, proxy)
            specs.append(
                ViewQuerySpec(
                    "vs_rest", s1, s2, _pair_query(view, s1, s2), subject=group
                )
            )
    return specs


def view_queries(
    view: GroupByResult | Mapping[str, Any],
    table: Table,
    orientation: str = "both",
) -> tuple[GroupByResult, list[ViewQuerySpec]]:
    """The evaluated view and its sibling queries, ready to explain.

    ``view`` is a ``{by, measure, agg}`` spec (validated by
    :func:`view_from_spec` against ``table``) or a pre-computed
    :class:`~repro.data.groupby.GroupByResult`.  A view without any
    sibling pair raises :class:`~repro.errors.QueryError`: there is
    nothing to explain.
    """
    if not isinstance(view, GroupByResult):
        view = view_from_spec(view, table)
    specs = enumerate_view_queries(view, orientation=orientation)
    if not specs:
        raise QueryError(
            f"view over {view.dimensions!r} has no sibling group pairs "
            "to explain"
        )
    return view, specs


@dataclass(frozen=True)
class ViewPair:
    """One explained comparison of the view, with full provenance.

    ``report`` is the pair's :func:`~repro.core.reporting.report_to_dict`
    payload — byte-identical to an individually issued ``explain`` of the
    same query — or ``None`` when the pair failed, in which case ``error``
    carries ``"ExceptionType: message"``.
    """

    index: int
    kind: str
    s1_key: tuple[Hashable, ...]
    s2_key: tuple[Hashable, ...]
    gap: float  # group-value difference (s1 - s2; ≥ 0 by orientation)
    report: dict[str, Any] | None = None
    error: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "kind": self.kind,
            "s1_key": [str(k) for k in self.s1_key],
            "s2_key": [str(k) for k in self.s2_key],
            "gap": round(self.gap, 6),
            "report": self.report,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ViewPair":
        return cls(
            index=int(payload["index"]),
            kind=str(payload["kind"]),
            s1_key=tuple(payload["s1_key"]),
            s2_key=tuple(payload["s2_key"]),
            gap=float(payload["gap"]),
            report=payload.get("report"),
            error=payload.get("error"),
        )


@dataclass(frozen=True)
class ViewExplanation:
    """One deduplicated explanation covering part of the view.

    Dedup key is ``(predicate, attribute, type)``; ``responsibility``,
    ``score`` and ``causal_role`` come from the highest-responsibility
    instance (never dropped), ``view_score`` sums responsibility over every
    covering pair, and ``coverage`` is the fraction of the view's pairs the
    explanation accounts for.  ``pairs`` indexes into
    :attr:`ViewSummary.pairs`.
    """

    attribute: str
    type: str  # ExplanationType.value
    predicate_dimension: str
    predicate_values: tuple[str, ...]
    causal_role: str
    responsibility: float
    score: float
    view_score: float
    coverage: float
    pairs: tuple[int, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "attribute": self.attribute,
            "type": self.type,
            "predicate": {
                "dimension": self.predicate_dimension,
                "values": list(self.predicate_values),
            },
            "causal_role": self.causal_role,
            "responsibility": self.responsibility,
            "score": self.score,
            "view_score": self.view_score,
            "coverage": self.coverage,
            "pairs": list(self.pairs),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ViewExplanation":
        predicate = payload["predicate"]
        return cls(
            attribute=str(payload["attribute"]),
            type=str(payload["type"]),
            predicate_dimension=str(predicate["dimension"]),
            predicate_values=tuple(predicate["values"]),
            causal_role=str(payload["causal_role"]),
            responsibility=float(payload["responsibility"]),
            score=float(payload["score"]),
            view_score=float(payload["view_score"]),
            coverage=float(payload["coverage"]),
            pairs=tuple(int(i) for i in payload["pairs"]),
        )


@dataclass(frozen=True)
class ViewSummary:
    """One ranked causal summary of a whole aggregate view."""

    dimensions: tuple[str, ...]
    measure: str
    agg: Aggregate
    groups: tuple[GroupedValue, ...]
    pairs: tuple[ViewPair, ...]
    explanations: tuple[ViewExplanation, ...]

    def top(self, k: int = 5) -> tuple[ViewExplanation, ...]:
        return self.explanations[:k]

    @property
    def failed_pairs(self) -> tuple[ViewPair, ...]:
        return tuple(p for p in self.pairs if p.error is not None)

    def to_dict(self) -> dict[str, Any]:
        """Stable JSON-safe form (what the wire fronts return)."""
        return {
            "view": {
                "dimensions": list(self.dimensions),
                "measure": self.measure,
                "agg": self.agg.value,
                "groups": [
                    {
                        "key": [str(k) for k in g.key],
                        "value": round(g.value, 6),
                        "count": g.count,
                    }
                    for g in self.groups
                ],
            },
            "pairs": [p.to_dict() for p in self.pairs],
            "explanations": [e.to_dict() for e in self.explanations],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ViewSummary":
        """Rebuild from :meth:`to_dict` output.

        Group keys come back as the strings the serialization emits (like
        :func:`~repro.core.reporting.report_to_dict`, values are
        stringified on the way out), so
        ``ViewSummary.from_dict(s.to_dict()).to_dict() == s.to_dict()``
        round-trips exactly.
        """
        view = payload["view"]
        return cls(
            dimensions=tuple(view["dimensions"]),
            measure=str(view["measure"]),
            agg=parse_aggregate(view["agg"]),
            groups=tuple(
                GroupedValue(
                    key=tuple(g["key"]),
                    value=float(g["value"]),
                    count=int(g["count"]),
                )
                for g in view["groups"]
            ),
            pairs=tuple(ViewPair.from_dict(p) for p in payload["pairs"]),
            explanations=tuple(
                ViewExplanation.from_dict(e) for e in payload["explanations"]
            ),
        )


def _canonical_pair_order(
    view: GroupByResult, specs: Sequence[ViewQuerySpec]
) -> list[int]:
    """Sort indices restoring enumeration order from pair identities.

    Merging sorts its inputs by ``(kind, s1 chart position, s2 chart
    position)`` — the enumeration order — so the summary is invariant
    under any permutation of the (pair, report) inputs.  Vs-rest rows
    anchor on their subject group instead of the oriented pair: two of
    them may orient to the same sibling pair (same proxy, swapped
    subjects), and only the subject makes the order total.
    """
    position = {g.key: i for i, g in enumerate(view.groups)}
    kind_rank = {"pairwise": 0, "vs_rest": 1}

    def sort_key(i: int):
        spec = specs[i]
        first, second = spec.s1, spec.s2
        if spec.subject is not None:
            first = spec.subject
            second = spec.s2 if spec.s1.key == first.key else spec.s1
        return (
            kind_rank.get(spec.kind, len(kind_rank)),
            position.get(first.key, len(position)),
            position.get(second.key, len(position)),
        )

    return sorted(range(len(specs)), key=sort_key)


def summarize_view(
    view: GroupByResult,
    specs: Sequence[ViewQuerySpec],
    reports: Sequence[Any],
) -> ViewSummary:
    """Merge per-pair reports (or exceptions) into one :class:`ViewSummary`.

    ``reports[i]`` answers ``specs[i]`` — an
    :class:`~repro.core.session.XInsightReport` or the exception object
    ``explain_batch(on_error="return")`` put in its slot.  The result is
    invariant under joint permutation of ``(specs, reports)``: pairs are
    re-sorted into canonical enumeration order, explanation ranking uses
    only permutation-independent keys.
    """
    if len(specs) != len(reports):
        raise QueryError(
            f"{len(reports)} report(s) for {len(specs)} view pair(s)"
        )
    order = _canonical_pair_order(view, specs)

    pairs: list[ViewPair] = []
    merged: dict[tuple, dict[str, Any]] = {}
    for index, source in enumerate(order):
        spec, report = specs[source], reports[source]
        if isinstance(report, BaseException):
            pairs.append(
                ViewPair(
                    index=index,
                    kind=spec.kind,
                    s1_key=spec.s1.key,
                    s2_key=spec.s2.key,
                    gap=spec.s1.value - spec.s2.value,
                    report=None,
                    error=f"{type(report).__name__}: {report}",
                )
            )
            continue
        pairs.append(
            ViewPair(
                index=index,
                kind=spec.kind,
                s1_key=spec.s1.key,
                s2_key=spec.s2.key,
                gap=spec.s1.value - spec.s2.value,
                report=report_to_dict(report),
            )
        )
        for explanation in report.explanations:
            key = (explanation.predicate, explanation.attribute, explanation.type)
            entry = merged.setdefault(key, {"best": explanation, "hits": []})
            if explanation.responsibility > entry["best"].responsibility:
                entry["best"] = explanation
            entry["hits"].append((index, explanation.responsibility))

    total_pairs = len(pairs)
    explanations: list[ViewExplanation] = []
    for (predicate, attribute, etype), entry in merged.items():
        best: Explanation = entry["best"]
        covering = tuple(sorted({i for i, _ in entry["hits"]}))
        explanations.append(
            ViewExplanation(
                attribute=attribute,
                type=etype.value,
                predicate_dimension=predicate.dimension,
                predicate_values=tuple(sorted(map(str, predicate.values))),
                causal_role=best.role.value,
                responsibility=round(best.responsibility, 6),
                score=round(best.score, 6),
                view_score=round(sum(r for _, r in entry["hits"]), 6),
                coverage=round(len(covering) / total_pairs, 6) if total_pairs else 0.0,
                pairs=covering,
            )
        )
    explanations.sort(
        key=lambda e: (
            -e.view_score,
            -e.coverage,
            -e.responsibility,
            e.attribute,
            e.predicate_dimension,
            e.predicate_values,
            e.type,
        )
    )
    return ViewSummary(
        dimensions=view.dimensions,
        measure=view.measure,
        agg=view.agg,
        groups=view.groups,
        pairs=tuple(pairs),
        explanations=tuple(explanations),
    )


def view_summary_to_markdown(summary: ViewSummary, top: int = 5) -> str:
    """Human rendering of a view summary (the CLI's output)."""
    by = ", ".join(summary.dimensions)
    ok = sum(1 for p in summary.pairs if p.error is None)
    lines = [
        f"**{summary.agg.value}({summary.measure}) GROUP BY {by}** — "
        f"{len(summary.groups)} groups, {ok}/{len(summary.pairs)} pair(s) "
        "explained",
        "",
        "| Type | Attribute | Predicate | View score | Coverage | Top resp. |",
        "|------|-----------|-----------|------------|----------|-----------|",
    ]
    for e in summary.top(top):
        values = ", ".join(e.predicate_values)
        lines.append(
            f"| {e.type} | {e.attribute} | {e.predicate_dimension} ∈ "
            f"{{{values}}} | {e.view_score:.2f} | {e.coverage:.0%} | "
            f"{e.responsibility:.2f} |"
        )
    if not summary.explanations:
        lines.append("| – | – | (no explanation found) | – | – | – |")
    for pair in summary.failed_pairs:
        lines.append("")
        lines.append(
            f"pair {pair.index} ({'|'.join(map(str, pair.s1_key))} vs "
            f"{'|'.join(map(str, pair.s2_key))}) failed: {pair.error}"
        )
    return "\n".join(lines)
