"""Report serialization and rendering.

Downstream tools (notebooks, BI integrations — the Power BI scenario) need
explanations as plain data: ``to_dict``/``to_json`` give stable, schema-
documented structures, and ``report_to_markdown`` renders the Fig. 1(e)
table for human consumption.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.explanation import Explanation
from repro.core.session import XInsightReport


def explanation_to_dict(explanation: Explanation) -> dict[str, Any]:
    """Stable dict form of one explanation (Def. 2.2 triplet + context)."""
    return {
        "type": explanation.type.value,
        "attribute": explanation.attribute,
        "predicate": {
            "dimension": explanation.predicate.dimension,
            "values": sorted(map(str, explanation.predicate.values)),
        },
        "responsibility": round(explanation.responsibility, 6),
        "score": round(explanation.score, 6),
        "causal_role": explanation.role.value,
        "contingency": (
            {
                "dimension": explanation.contingency.dimension,
                "values": sorted(map(str, explanation.contingency.values)),
            }
            if explanation.contingency is not None
            else None
        ),
    }


def report_to_dict(report: XInsightReport) -> dict[str, Any]:
    """Full report: the query, its Δ, verdicts and ranked explanations."""
    query = report.query
    return {
        "query": {
            "measure": query.measure,
            "aggregate": query.agg.value,
            "s1": {f.dimension: str(f.value) for f in query.s1.filters},
            "s2": {f.dimension: str(f.value) for f in query.s2.filters},
        },
        "delta": round(report.delta, 6),
        "translations": {
            variable: {
                "semantics": verdict.semantics.value,
                "causal_role": verdict.role.value,
            }
            for variable, verdict in report.translations.items()
        },
        "explanations": [
            explanation_to_dict(e) for e in report.explanations
        ],
    }


def report_to_json(report: XInsightReport, indent: int | None = 2) -> str:
    return json.dumps(report_to_dict(report), indent=indent, ensure_ascii=False)


def report_to_markdown(report: XInsightReport) -> str:
    """Fig. 1(e)-style markdown table of the ranked explanations."""
    lines = [
        f"**{report.query.describe()}** (Δ = {report.delta:.4g})",
        "",
        "| Type | Predicate | Responsibility |",
        "|------|-----------|----------------|",
    ]
    for explanation in report.explanations:
        kind, predicate, responsibility = explanation.as_row()
        lines.append(f"| {kind} | {predicate} | {responsibility:.2f} |")
    if not report.explanations:
        lines.append("| – | (no explanation found) | – |")
    return "\n".join(lines)
