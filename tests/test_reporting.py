"""Tests for report serialization and markdown rendering."""

import json

import pytest

from repro.core import fit_model
from repro.core.reporting import (
    explanation_to_dict,
    report_to_dict,
    report_to_json,
    report_to_markdown,
)
from repro.data import Aggregate, Subspace, WhyQuery
from repro.datasets import generate_lungcancer


@pytest.fixture(scope="module")
def report():
    table = generate_lungcancer(n_rows=6000, seed=0)
    engine = fit_model(table, measure_bins=3).session(table)
    query = WhyQuery.create(
        Subspace.of(Location="A"), Subspace.of(Location="B"),
        "LungCancer", Aggregate.AVG,
    )
    return engine.explain(query)


class TestSerialization:
    def test_explanation_dict_schema(self, report):
        d = explanation_to_dict(report.explanations[0])
        assert set(d) == {
            "type",
            "attribute",
            "predicate",
            "responsibility",
            "score",
            "causal_role",
            "contingency",
        }
        assert d["type"] in ("causal", "non-causal")
        assert isinstance(d["predicate"]["values"], list)

    def test_report_dict_query_round(self, report):
        d = report_to_dict(report)
        assert d["query"]["measure"] == "LungCancer"
        assert d["query"]["aggregate"] == "AVG"
        assert d["query"]["s1"] == {"Location": "A"}
        assert d["delta"] > 0

    def test_translations_serialized(self, report):
        d = report_to_dict(report)
        assert d["translations"]["Smoking"]["semantics"] == "causal explanation"

    def test_json_round_trips(self, report):
        parsed = json.loads(report_to_json(report))
        assert parsed["explanations"]
        assert parsed["explanations"][0]["responsibility"] <= 1.0

    def test_values_sorted_for_determinism(self, report):
        for e in report.explanations:
            d = explanation_to_dict(e)
            assert d["predicate"]["values"] == sorted(d["predicate"]["values"])


class TestMarkdown:
    def test_table_structure(self, report):
        md = report_to_markdown(report)
        lines = md.splitlines()
        assert lines[2] == "| Type | Predicate | Responsibility |"
        assert any("causal" in line for line in lines[4:])

    def test_empty_report_renders_placeholder(self, report):
        from repro.core.session import XInsightReport

        empty = XInsightReport(report.query, report.delta, [], {})
        assert "(no explanation found)" in report_to_markdown(empty)
