"""Tests for the extension features: background knowledge, change
explanation, multi-dimensional explanations, permutation CI test."""

import numpy as np
import pytest

from repro.core import (
    ChangeDirection,
    explain_change,
    explain_conjunction,
    fit_model,
    product_attribute,
    xlearner,
)
from repro.data import Aggregate, Subspace, Table, WhyQuery
from repro.datasets import generate_cityinfo, generate_lungcancer
from repro.discovery import BackgroundKnowledge, apply_background_knowledge
from repro.errors import DiscoveryError, ExplanationError, QueryError
from repro.graph import MixedGraph
from repro.independence import ChiSquaredTest, PermutationCITest


class TestBackgroundKnowledge:
    def test_required_edge_oriented(self):
        g = MixedGraph(["x", "y"])
        g.add_edge("x", "y")  # o-o
        out = apply_background_knowledge(
            g, BackgroundKnowledge.of(required=[("x", "y")])
        )
        assert out.is_parent("x", "y")

    def test_required_edge_added_when_missing(self):
        g = MixedGraph(["x", "y"])
        out = apply_background_knowledge(
            g, BackgroundKnowledge.of(required=[("x", "y")])
        )
        assert out.is_parent("x", "y")

    def test_forbidden_edge_removed(self):
        g = MixedGraph(["x", "y"])
        g.add_edge("x", "y")
        out = apply_background_knowledge(
            g, BackgroundKnowledge.of(forbidden=[("x", "y")])
        )
        assert not out.has_edge("x", "y")

    def test_original_graph_untouched(self):
        g = MixedGraph(["x", "y"])
        g.add_edge("x", "y")
        apply_background_knowledge(g, BackgroundKnowledge.of(forbidden=[("x", "y")]))
        assert g.has_edge("x", "y")

    def test_conflicting_knowledge_rejected(self):
        with pytest.raises(DiscoveryError):
            BackgroundKnowledge.of(required=[("x", "y")], forbidden=[("y", "x")])
        with pytest.raises(DiscoveryError):
            BackgroundKnowledge.of(required=[("x", "y"), ("y", "x")])

    def test_unknown_node_rejected(self):
        g = MixedGraph(["x"])
        with pytest.raises(DiscoveryError):
            apply_background_knowledge(
                g, BackgroundKnowledge.of(required=[("x", "ghost")])
            )

    def test_xlearner_accepts_knowledge(self):
        table = generate_cityinfo(n_rows=400, seed=0)
        knowledge = BackgroundKnowledge.of(forbidden=[("City", "State")])
        result = xlearner(table, knowledge=knowledge)
        assert not result.pag.has_edge("City", "State")


class TestExplainChange:
    @pytest.fixture(scope="class")
    def engine(self):
        table = generate_lungcancer(n_rows=8000, seed=0)
        return fit_model(table, measure_bins=3).session(table)

    def test_increase_detected_and_explained(self, engine):
        report = explain_change(engine, "Location", before="B", after="A", measure="LungCancer")
        assert report.direction is ChangeDirection.INCREASE
        assert report.magnitude > 0
        assert any(e.attribute == "Smoking" for e in report.report.explanations)

    def test_decrease_is_symmetric(self, engine):
        report = explain_change(engine, "Location", before="A", after="B", measure="LungCancer")
        assert report.direction is ChangeDirection.DECREASE

    def test_flat_change_short_circuits(self, engine):
        report = explain_change(
            engine,
            "Location",
            before="B",
            after="A",
            measure="LungCancer",
            flat_fraction=10.0,
        )
        assert report.direction is ChangeDirection.FLAT
        assert "no material change" in report.headline()

    def test_same_slice_rejected(self, engine):
        with pytest.raises(QueryError):
            explain_change(engine, "Location", before="A", after="A", measure="LungCancer")

    def test_headline_mentions_top_factor(self, engine):
        report = explain_change(engine, "Location", before="B", after="A", measure="LungCancer")
        assert "top factor" in report.headline()


class TestMultiDimensional:
    def make_case(self):
        """Difference exists only where BOTH x-attributes hit: a genuinely
        two-dimensional explanation."""
        rng = np.random.default_rng(0)
        n = 12_000
        f = rng.integers(0, 2, size=n)
        a = rng.choice(["a0", "a1", "a2"], size=n)
        b = rng.choice(["b0", "b1", "b2"], size=n)
        hit = (a == "a1") & (b == "b2") & (f == 1)
        z = rng.normal(10, 1, size=n) + 25.0 * hit
        table = Table.from_columns(
            {"F": [f"f{v}" for v in f], "A": a.tolist(), "B": b.tolist(), "Z": z}
        )
        query = WhyQuery.create(
            Subspace.of(F="f1"), Subspace.of(F="f0"), "Z", Aggregate.AVG
        )
        return table, query

    def test_product_attribute_created(self):
        table, _ = self.make_case()
        augmented = product_attribute(table, "A", "B")
        assert "A×B" in augmented.schema
        assert augmented.cardinality("A×B") == 9

    def test_same_attribute_rejected(self):
        table, _ = self.make_case()
        with pytest.raises(ExplanationError):
            product_attribute(table, "A", "A")

    def test_conjunction_found(self):
        table, query = self.make_case()
        result = explain_conjunction(table, query, "A", "B")
        assert result is not None
        assert ("a1", "b2") in result.cells
        assert result.responsibility > 0.5

    def test_projection_to_predicates(self):
        table, query = self.make_case()
        result = explain_conjunction(table, query, "A", "B")
        first, second = result.as_predicates()
        assert "a1" in first.values
        assert "b2" in second.values


class TestPermutationCITest:
    def test_detects_dependence(self):
        rng = np.random.default_rng(0)
        n = 400
        x = rng.integers(0, 2, size=n)
        y = np.where(rng.random(n) < 0.85, x, 1 - x)
        t = Table.from_columns(
            {"x": [str(v) for v in x], "y": [str(v) for v in y]}
        )
        test = PermutationCITest(t, n_permutations=100, seed=1)
        assert not test.independent("x", "y")

    def test_accepts_independence(self):
        rng = np.random.default_rng(1)
        n = 400
        t = Table.from_columns(
            {
                "x": [str(v) for v in rng.integers(0, 2, n)],
                "y": [str(v) for v in rng.integers(0, 2, n)],
            }
        )
        test = PermutationCITest(t, alpha=0.01, n_permutations=100, seed=2)
        assert test.independent("x", "y")

    def test_conditional_blocking(self):
        rng = np.random.default_rng(2)
        n = 1200
        m = rng.integers(0, 2, size=n)
        x = np.where(rng.random(n) < 0.9, m, 1 - m)
        y = np.where(rng.random(n) < 0.9, m, 1 - m)
        t = Table.from_columns(
            {
                "x": [str(v) for v in x],
                "y": [str(v) for v in y],
                "m": [str(v) for v in m],
            }
        )
        test = PermutationCITest(t, alpha=0.01, n_permutations=100, seed=3)
        assert not test.independent("x", "y")
        assert test.independent("x", "y", ["m"])

    def test_agrees_with_chi2_on_large_samples(self):
        rng = np.random.default_rng(3)
        n = 2000
        x = rng.integers(0, 3, size=n)
        y = (x + rng.integers(0, 2, size=n)) % 3
        t = Table.from_columns(
            {"x": [str(v) for v in x], "y": [str(v) for v in y]}
        )
        perm = PermutationCITest(t, n_permutations=60, seed=4)
        chi = ChiSquaredTest(t)
        assert perm.independent("x", "y") == chi.independent("x", "y")
