"""Tests for aggregates, discretization and CSV I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Aggregate, Role, Table, discretize, parse_aggregate, read_csv, write_csv
from repro.data.column import CategoricalColumn
from repro.data.discretize import Bin, equal_frequency_edges, equal_width_edges, fit_bins
from repro.errors import QueryError, SchemaError


class TestAggregate:
    def test_sum(self):
        assert Aggregate.SUM.compute(np.array([1.0, 2.0])) == 3.0

    def test_avg(self):
        assert Aggregate.AVG.compute(np.array([1.0, 3.0])) == 2.0

    def test_count_ignores_values(self):
        assert Aggregate.COUNT.compute(np.array([5.0, 5.0, 5.0])) == 3.0

    def test_empty_selection_is_zero(self):
        empty = np.array([])
        assert Aggregate.AVG.compute(empty) == 0.0
        assert Aggregate.SUM.compute(empty) == 0.0
        assert Aggregate.COUNT.compute(empty) == 0.0

    def test_from_sums_consistent_with_compute(self):
        values = np.array([2.0, 4.0, 6.0])
        for agg in Aggregate:
            assert agg.from_sums(values.sum(), values.size) == pytest.approx(
                agg.compute(values)
            )

    def test_additivity_flags(self):
        assert Aggregate.SUM.is_additive
        assert Aggregate.COUNT.is_additive
        assert not Aggregate.AVG.is_additive

    def test_parse(self):
        assert parse_aggregate("avg") is Aggregate.AVG
        assert parse_aggregate(Aggregate.SUM) is Aggregate.SUM
        with pytest.raises(QueryError):
            parse_aggregate("median")

    def test_parse_non_string_is_typed_error(self):
        # Wire/batch specs can carry any JSON value; a number must produce
        # the typed error, not an AttributeError on .upper().
        with pytest.raises(QueryError):
            parse_aggregate(5)  # type: ignore[arg-type]


class TestDiscretize:
    def test_equal_width_edges_span_range(self):
        edges = equal_width_edges(np.array([0.0, 10.0]), 5)
        assert edges[0] == 0.0 and edges[-1] == 10.0
        assert len(edges) == 6

    def test_equal_width_constant_column(self):
        edges = equal_width_edges(np.array([3.0, 3.0]), 2)
        assert edges[-1] > edges[0]

    def test_equal_frequency_balances_counts(self):
        values = np.arange(100.0)
        edges = equal_frequency_edges(values, 4)
        idx = np.digitize(values, edges[1:-1])
        counts = np.bincount(idx)
        assert counts.max() - counts.min() <= 2

    def test_zero_bins_rejected(self):
        with pytest.raises(SchemaError):
            equal_width_edges(np.array([1.0]), 0)

    def test_discretize_adds_dimension(self):
        t = Table.from_columns({"m": list(np.linspace(0, 1, 50))})
        t2, bins = discretize(t, "m", n_bins=5, method="width")
        assert "m_bin" in t2.schema
        assert t2.schema.role("m_bin") is Role.DIMENSION
        assert len(bins) == 5

    def test_discretize_every_value_lands_in_a_bin(self):
        t = Table.from_columns({"m": [0.0, 0.5, 1.0, 0.99, 0.01]})
        t2, bins = discretize(t, "m", n_bins=3, method="width")
        assert t2.cardinality("m_bin") <= 3

    def test_unknown_method_rejected(self):
        t = Table.from_columns({"m": [1.0, 2.0]})
        with pytest.raises(SchemaError):
            discretize(t, "m", method="magic")

    def test_bin_contains(self):
        b = Bin(0.0, 1.0)
        assert 0.5 in b and 1.0 not in b

    def test_colliding_labels_share_one_category(self):
        # Every bin of 1 + k·1e-6 prints "[1, 1)" at .4g, so the five
        # distinct bins collapse into one category, as equal strings do.
        t = Table.from_columns({"m": [1 + k * 1e-6 for k in range(100)]})
        spec = fit_bins(t, "m", n_bins=5, method="width")
        assert len({str(b) for b in spec.bins}) == 1 < len(spec.bins)
        assert spec.apply(t).categories("m_bin") == ("[1, 1)",)


# Per fitted family: spread ranges, few distinct values (singleton specs) and
# values whose every bin prints alike at .4g.
fit_values_st = st.one_of(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
    st.lists(st.integers(0, 3).map(float), min_size=1, max_size=40),
    st.lists(st.integers(0, 50).map(lambda k: 1 + k * 1e-6), min_size=1, max_size=40),
)


@given(
    fit=fit_values_st,
    serve=st.lists(st.floats(-1e7, 1e7), max_size=40),
    n_bins=st.integers(1, 6),
    method=st.sampled_from(["width", "frequency"]),
)
@settings(deadline=None)
def test_apply_equals_from_values_of_labels(fit, serve, n_bins, method):
    """The index-built column equals re-encoding the per-row labels, on the
    fitted values and on served values beyond the fitted range."""
    spec = fit_bins(Table.from_columns({"m": fit}), "m", n_bins=n_bins, method=method)
    for values in (fit, serve + fit):
        table = Table.from_columns({"m": values}, roles={"m": Role.MEASURE})
        got = spec.apply(table).column(spec.column)
        want = CategoricalColumn.from_values(spec.labels(table.measure_values("m")))
        assert got.categories == want.categories
        assert got.codes.tolist() == want.codes.tolist()


class TestCSV:
    def test_roundtrip(self, tmp_path):
        t = Table.from_columns({"d": ["x", "y"], "m": [1.5, 2.5]})
        path = tmp_path / "t.csv"
        write_csv(t, path)
        back = read_csv(path)
        assert back.values("d") == ["x", "y"]
        assert back.measure_values("m").tolist() == [1.5, 2.5]

    def test_read_respects_explicit_roles(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("year,m\n2020,1.0\n2021,2.0\n")
        t = read_csv(path, roles={"year": Role.DIMENSION, "m": Role.MEASURE})
        assert t.schema.role("year") is Role.DIMENSION

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            read_csv(path)

    def test_ragged_row_raises(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b\n1\n")
        with pytest.raises(SchemaError):
            read_csv(path)

    @pytest.mark.parametrize("cell", ["NaN", "nan", "inf", "-inf", "Infinity"])
    def test_non_finite_cells_fall_back_categorical(self, tmp_path, cell):
        # float() happily parses "NaN"/"inf", but a non-finite measure would
        # poison every aggregate downstream; such columns stay categorical.
        path = tmp_path / "t.csv"
        path.write_text(f"d,m\nx,{cell}\ny,2.0\n")
        t = read_csv(path)
        assert t.schema.role("m") is Role.DIMENSION
        assert t.values("m") == [cell, "2.0"]

    def test_finite_numeric_column_still_becomes_measure(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("d,m\nx,1.0\ny,2.0\n")
        t = read_csv(path)
        assert t.schema.role("m") is Role.MEASURE
