"""End-to-end XInsight pipeline tests on the Fig. 1 lung-cancer scenario."""

import pytest

from repro.core import ExplanationType, XPlainerConfig, fit_model
from repro.data import Aggregate, Subspace, WhyQuery
from repro.datasets import generate_lungcancer


@pytest.fixture(scope="module")
def engine():
    table = generate_lungcancer(n_rows=8000, seed=0)
    return fit_model(table, measure_bins=3).session(table)


@pytest.fixture(scope="module")
def query():
    return WhyQuery.create(
        Subspace.of(Location="A"),
        Subspace.of(Location="B"),
        "LungCancer",
        Aggregate.AVG,
    )


class TestOfflinePhase:
    def test_fit_builds_graph_with_bin_node(self, engine):
        assert engine.graph.has_node("LungCancer_bin")
        assert engine.node_of("LungCancer") == "LungCancer_bin"

    def test_smoking_adjacent_to_severity(self, engine):
        assert engine.graph.has_edge("Smoking", "LungCancer_bin")


class TestOnlinePhase:
    def test_report_has_causal_and_non_causal(self, engine, query):
        report = engine.explain(query)
        assert report.delta > 0
        kinds = {e.type for e in report.explanations}
        assert ExplanationType.CAUSAL in kinds

    def test_smoking_ranked_as_causal_explanation(self, engine, query):
        report = engine.explain(query)
        causal_attrs = {e.attribute for e in report.causal()}
        assert "Smoking" in causal_attrs

    def test_smoking_yes_is_the_predicate(self, engine, query):
        report = engine.explain(query)
        smoking = next(e for e in report.explanations if e.attribute == "Smoking")
        assert smoking.predicate.values == frozenset({"Yes"})
        assert smoking.responsibility > 0.3

    def test_surgery_not_causal(self, engine, query):
        report = engine.explain(query)
        surgery = [e for e in report.explanations if e.attribute == "Surgery"]
        for e in surgery:
            assert e.type is ExplanationType.NON_CAUSAL

    def test_causal_ranked_before_non_causal(self, engine, query):
        report = engine.explain(query)
        seen_non_causal = False
        for e in report.explanations:
            if e.type is ExplanationType.NON_CAUSAL:
                seen_non_causal = True
            else:
                assert not seen_non_causal, "causal explanation after non-causal"

    def test_top_k(self, engine, query):
        report = engine.explain(query)
        assert len(report.top(1)) == 1

    def test_explanations_describe(self, engine, query):
        report = engine.explain(query)
        text = report.explanations[0].describe("LungCancer", "Location=A", "Location=B")
        assert "responsibility" in text

    def test_reversed_query_is_oriented(self, engine):
        reverse = WhyQuery.create(
            Subspace.of(Location="B"),
            Subspace.of(Location="A"),
            "LungCancer",
            Aggregate.AVG,
        )
        report = engine.explain(reverse)
        assert report.delta > 0

    def test_sum_aggregate_also_works(self, engine):
        q = WhyQuery.create(
            Subspace.of(Location="A"),
            Subspace.of(Location="B"),
            "LungCancer",
            Aggregate.SUM,
        )
        report = engine.explain(q)
        assert any(e.attribute == "Smoking" for e in report.explanations)

    def test_translations_exposed(self, engine, query):
        report = engine.explain(query)
        assert report.translations["Smoking"].is_causal

    def test_custom_config_respected(self, engine, query):
        report = engine.explain(query, config=XPlainerConfig(epsilon_fraction=0.5))
        assert isinstance(report.explanations, list)


class TestHomogeneityFromGraph:
    def test_downstream_attribute_not_homogeneous(self, engine, query):
        # Smoking is caused by Location (the foreground): not m-separated.
        assert not engine.is_homogeneous(query, "Smoking")
