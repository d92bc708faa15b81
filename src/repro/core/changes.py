"""Change explanation — the Power BI integration scenario (Sec. 1, Sec. 7).

The paper notes "XPlainer has been integrated into Microsoft Power BI to
explain increase/decrease in data": a user sees a measure move between two
snapshots (months, releases, cohorts) and asks why.  That is a Why Query
whose sibling subspaces are the two time slices; this module packages the
pattern on top of an :class:`~repro.core.session.ExplainSession`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Hashable

from repro.core.session import ExplainSession, XInsightReport
from repro.data.aggregates import Aggregate
from repro.data.filters import Subspace
from repro.data.query import WhyQuery
from repro.errors import QueryError


class ChangeDirection(enum.Enum):
    INCREASE = "increase"
    DECREASE = "decrease"
    FLAT = "flat"


@dataclass
class ChangeReport:
    """An increase/decrease verdict plus the explanations behind it."""

    direction: ChangeDirection
    before: Hashable
    after: Hashable
    magnitude: float
    report: XInsightReport

    def headline(self) -> str:
        if self.direction is ChangeDirection.FLAT:
            return f"no material change between {self.before} and {self.after}"
        top = self.report.explanations[0] if self.report.explanations else None
        factor = f" — top factor: {top.attribute} ({top.predicate})" if top else ""
        return (
            f"{self.direction.value} of {self.magnitude:.4g} from "
            f"{self.before} to {self.after}{factor}"
        )


def explain_change(
    session: ExplainSession,
    time_dimension: str,
    before: Hashable,
    after: Hashable,
    measure: str,
    agg: Aggregate | str = Aggregate.AVG,
    flat_fraction: float = 0.02,
) -> ChangeReport:
    """Explain why ``measure`` moved between two slices of ``time_dimension``.

    Parameters
    ----------
    session:
        An :class:`ExplainSession` over a fitted model (the offline phase
        is reused across change queries — the point of the Fig. 3 split).
    flat_fraction:
        |Δ| below this fraction of the 'before' level is reported FLAT
        rather than explained.
    """
    if before == after:
        raise QueryError("before and after must be different slices")
    table = session.graph_table
    query = WhyQuery.create(
        Subspace.of(**{time_dimension: after}),
        Subspace.of(**{time_dimension: before}),
        measure,
        agg,
    )
    raw_delta = query.delta(table)

    # Level of the 'before' slice for the flatness threshold.
    mask = Subspace.of(**{time_dimension: before}).mask(table)
    values = table.measure_values(measure)[mask]
    level = abs(parse_level(values, agg))

    if abs(raw_delta) <= flat_fraction * max(level, 1e-12):
        empty = session.explain(query.oriented(table))
        return ChangeReport(ChangeDirection.FLAT, before, after, raw_delta, empty)

    direction = (
        ChangeDirection.INCREASE if raw_delta > 0 else ChangeDirection.DECREASE
    )
    report = session.explain(query.oriented(table))
    return ChangeReport(direction, before, after, abs(raw_delta), report)


def parse_level(values, agg: Aggregate | str) -> float:
    from repro.data.aggregates import parse_aggregate

    return parse_aggregate(agg).compute(values)
