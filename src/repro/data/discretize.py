"""Measure discretization (Sec. 2.1, "Aggregation and Discretization").

When a measure is used *as an explanation attribute* (e.g. the "Mid ≤ Stress
≤ High" predicate in Fig. 1(e)), its numeric values must first be transformed
into discrete bins forming a derived categorical variable.  A predicate on
the derived dimension is then an assertion on ranges.

Fitting the bins and applying them are separate steps: :func:`fit_bins`
learns a :class:`BinSpec` from data once (the offline phase), and
``BinSpec.apply`` re-discretizes any table — including fresh data served
against a persisted :class:`~repro.core.model.XInsightModel` — with the
exact same edges and labels.

``apply`` works on bin indices, not strings: it formats one label per
*bin*, maps each row's ``np.digitize`` (or nearest-singleton) index to a
category code, and numbers the codes in order of first appearance.  The
derived column is therefore identical, codes and categories, to
``CategoricalColumn.from_values(spec.labels(values))``, at O(n) integer
cost instead of one formatted string per row.  Bins whose labels print
alike (``.4g`` rounding) share one category, as equal strings would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.column import CategoricalColumn
from repro.data.table import Table
from repro.errors import SchemaError


@dataclass(frozen=True, order=True)
class Bin:
    """Half-open value range ``[low, high)``; the last bin is closed above."""

    low: float
    high: float

    def __contains__(self, value: float) -> bool:
        return self.low <= value < self.high

    def __str__(self) -> str:
        return f"[{self.low:.4g}, {self.high:.4g})"


def equal_width_edges(values: np.ndarray, n_bins: int) -> np.ndarray:
    """Bin edges splitting [min, max] into ``n_bins`` equal-width intervals."""
    if n_bins < 1:
        raise SchemaError("need at least one bin")
    lo, hi = float(np.min(values)), float(np.max(values))
    if lo == hi:
        hi = lo + 1.0
    return np.linspace(lo, hi, n_bins + 1)

def equal_frequency_edges(values: np.ndarray, n_bins: int) -> np.ndarray:
    """Bin edges at quantiles so each bin holds ≈ the same number of rows."""
    if n_bins < 1:
        raise SchemaError("need at least one bin")
    quantiles = np.linspace(0.0, 1.0, n_bins + 1)
    edges = np.quantile(values, quantiles)
    # Collapse duplicate edges (heavy ties) but keep the outermost pair.
    edges = np.unique(edges)
    if edges.size < 2:
        edges = np.array([edges[0], edges[0] + 1.0])
    return edges


@dataclass(frozen=True)
class BinSpec:
    """Frozen recipe reproducing one measure's discretization.

    ``method`` is ``"width"`` / ``"frequency"`` for range bins, or
    ``"singleton"`` when the measure's distinct values were used directly
    as categories (low-cardinality flags).  The spec is the persistable
    half of :func:`discretize`: applying it to fresh data yields the same
    labels the fitted table carried, so a loaded model serves new rows
    without re-fitting the edges.
    """

    measure: str
    column: str
    method: str
    bins: tuple[Bin, ...]

    @property
    def edges(self) -> tuple[float, ...]:
        """The bin edges (lows plus the final high); empty for singletons."""
        if self.method == "singleton":
            return ()
        return tuple(b.low for b in self.bins) + (self.bins[-1].high,)

    def _bin_index(self, values: np.ndarray) -> np.ndarray:
        """Index into ``bins`` of each value."""
        if self.method == "singleton":
            # Snap to the nearest fitted singleton so fresh data can never
            # mint a category the graph was not learned on (fit-time values
            # are themselves singletons, so their labels are unchanged).
            cats = np.array([b.low for b in self.bins])
            return np.abs(np.asarray(values)[:, None] - cats[None, :]).argmin(axis=1)
        edges = np.asarray(self.edges)
        # np.digitize with right-open bins; values beyond either outer edge
        # are clamped into the first/last bin, so fresh data out of the
        # fitted range still maps to a known category.
        return np.digitize(values, edges[1:-1], right=False)

    def _bin_labels(self) -> list[str]:
        """The category label of each bin."""
        if self.method == "singleton":
            return [f"={b.low:.4g}" for b in self.bins]
        return [str(b) for b in self.bins]

    def labels(self, values: np.ndarray) -> list[str]:
        """Category label of each value, identical to the fit-time labels."""
        names = self._bin_labels()
        return [names[i] for i in self._bin_index(values)]

    def apply(self, table: Table) -> Table:
        """Append the derived dimension column to ``table``: the column
        ``CategoricalColumn.from_values(self.labels(values))`` would give,
        built from the bin indices (see the module docstring)."""
        label_ids: dict[str, int] = {}
        label_of_bin = np.array(
            [label_ids.setdefault(label, len(label_ids)) for label in self._bin_labels()]
        )
        ids = label_of_bin[self._bin_index(table.measure_values(self.measure))]
        # Number the labels that occur by the first row carrying them.
        first = np.full(len(label_ids), ids.size)
        np.minimum.at(first, ids, np.arange(ids.size))
        order = np.argsort(first)[: np.count_nonzero(first < ids.size)]
        code_of = np.zeros(len(label_ids), dtype=np.int64)
        code_of[order] = np.arange(order.size)
        labels = tuple(label_ids)
        column = CategoricalColumn(code_of[ids], tuple(labels[i] for i in order))
        return table.with_column(self.column, column)

    def to_dict(self) -> dict:
        return {
            "measure": self.measure,
            "column": self.column,
            "method": self.method,
            "bins": [[b.low, b.high] for b in self.bins],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BinSpec":
        method = payload["method"]
        if method not in ("width", "frequency", "singleton"):
            raise SchemaError(f"unknown discretization method {method!r}")
        bins = tuple(Bin(float(lo), float(hi)) for lo, hi in payload["bins"])
        if not bins:
            raise SchemaError(
                f"bin spec for {payload['measure']!r} has no bins"
            )
        return cls(
            measure=payload["measure"],
            column=payload["column"],
            method=method,
            bins=bins,
        )


def fit_bins(
    table: Table,
    measure: str,
    n_bins: int = 5,
    method: str = "frequency",
    new_name: str | None = None,
) -> BinSpec:
    """Learn the :class:`BinSpec` discretizing ``measure`` on ``table``.

    Parameters
    ----------
    method:
        ``"width"`` for equal-width bins, ``"frequency"`` for equal-frequency
        (quantile) bins — the default, which is robust to skew.
    """
    if method not in ("width", "frequency"):
        raise SchemaError(f"unknown discretization method {method!r}")
    values = table.measure_values(measure)
    name = new_name or f"{measure}_bin"
    distinct = np.unique(values)
    if distinct.size <= n_bins:
        # Binary / low-cardinality measures (e.g. a 0/1 cancellation flag):
        # quantile edges would collapse everything into one bin, so use the
        # distinct values themselves as singleton categories.
        bins = tuple(Bin(float(v), float(v)) for v in distinct)
        return BinSpec(measure, name, "singleton", bins)
    if method == "width":
        edges = equal_width_edges(values, n_bins)
    else:
        edges = equal_frequency_edges(values, n_bins)
    bins = tuple(
        Bin(float(edges[i]), float(edges[i + 1])) for i in range(len(edges) - 1)
    )
    return BinSpec(measure, name, method, bins)


def discretize(
    table: Table,
    measure: str,
    n_bins: int = 5,
    method: str = "frequency",
    new_name: str | None = None,
) -> tuple[Table, tuple[Bin, ...]]:
    """Append a derived dimension binning ``measure`` (fit + apply in one).

    Returns
    -------
    (table, bins):
        The table with the new dimension column (named ``f"{measure}_bin"``
        unless overridden) and the bin ranges in value order (the column's
        category codes follow first appearance, not bin order).
    """
    spec = fit_bins(table, measure, n_bins=n_bins, method=method, new_name=new_name)
    return spec.apply(table), spec.bins
