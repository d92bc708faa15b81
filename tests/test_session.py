"""ExplainSession: the online serving surface over a fitted model.

Covers the new API contract: sessions are stateless per model (many
sessions share one artifact, nothing mutates it), per-session caches
eliminate repeated graph traversals, and ``explain_batch`` preserves order
and equals query-by-query serving.
"""

import warnings

import pytest

from repro.core import (
    ExplainSession,
    XPlainerConfig,
    fit_model,
)
import repro.core.session as session_mod
from repro.data import Aggregate, Subspace, WhyQuery
from repro.datasets import generate_lungcancer
from repro.errors import ModelError


@pytest.fixture(scope="module")
def table():
    return generate_lungcancer(n_rows=3000, seed=0)


@pytest.fixture(scope="module")
def model(table):
    return fit_model(table, measure_bins=3)


@pytest.fixture(scope="module")
def query():
    return WhyQuery.create(
        Subspace.of(Location="A"),
        Subspace.of(Location="B"),
        "LungCancer",
        Aggregate.AVG,
    )


@pytest.fixture()
def session(model, table):
    return ExplainSession(model, table)


class TestSessionBasics:
    def test_explain_matches_facade(self, session, table, query):
        refit = fit_model(table, measure_bins=3).session(table)
        assert session.explain(query).explanations == refit.explain(query).explanations

    def test_graph_table_has_bin_companions(self, session):
        assert "LungCancer_bin" in session.graph_table.dimensions
        assert session.node_of("LungCancer") == "LungCancer_bin"

    def test_sessions_share_one_model(self, model, table, query):
        a = ExplainSession(model, table)
        b = ExplainSession(model, table)
        assert a.model is b.model
        assert a.explain(query).explanations == b.explain(query).explanations
        # Per-session caches are independent.
        assert a.stats.queries == 1 and b.stats.queries == 1

    def test_config_default_used_and_overridable(self, model, table, query):
        session = ExplainSession(model, table, config=XPlainerConfig(sigma=0.0))
        base = session.explain(query)
        override = session.explain(query, config=XPlainerConfig(epsilon_fraction=0.9))
        assert isinstance(base.explanations, list)
        assert isinstance(override.explanations, list)

    def test_transform_missing_measure_is_model_error(self, model, table):
        with pytest.raises(ModelError, match="LungCancer"):
            ExplainSession(model, table.drop_columns(["LungCancer"]))


class TestSessionCaching:
    def test_repeated_queries_hit_translation_cache(self, session, query):
        session.explain(query)
        assert session.stats.translation_misses == 1
        session.explain(query)
        session.explain(query)
        assert session.stats.translation_misses == 1
        assert session.stats.translation_hits == 2

    def test_translation_traversals_run_once_per_context(
        self, session, query, monkeypatch
    ):
        calls = {"translate": 0}
        real = session_mod.translate

        def counting(*args, **kwargs):
            calls["translate"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(session_mod, "translate", counting)
        for _ in range(5):
            session.explain(query)
        assert calls["translate"] == 1

    def test_homogeneity_memoized_across_queries(self, session, query):
        session.explain(query)
        misses = session.stats.homogeneity_misses
        assert misses > 0
        session.explain(query)
        assert session.stats.homogeneity_misses == misses
        assert session.stats.homogeneity_hits >= misses

    def test_distinct_contexts_are_distinct_entries(self, session, query):
        session.explain(query)
        sum_query = WhyQuery.create(query.s1, query.s2, query.measure, Aggregate.SUM)
        session.explain(sum_query)
        # Same (measure, context): SUM vs AVG shares the graph-side work.
        assert session.cache_info()["translation_entries"] == 1

    def test_cached_translations_are_copies(self, session, query):
        first = session.explain(query).translations
        first.clear()
        assert session.explain(query).translations

    def test_cache_info_shape(self, session, query):
        session.explain(query)
        info = session.cache_info()
        assert {
            "queries",
            "translation_hits",
            "translation_misses",
            "homogeneity_hits",
            "homogeneity_misses",
            "translation_entries",
            "homogeneity_entries",
        } <= set(info)
        assert info["queries"] == 1


class TestExplainBatch:
    def test_batch_equals_sequential_and_preserves_order(
        self, model, table, query
    ):
        queries = [
            query,
            WhyQuery.create(query.s2, query.s1, query.measure, Aggregate.AVG),
            WhyQuery.create(query.s1, query.s2, query.measure, Aggregate.SUM),
        ] * 4
        batch = ExplainSession(model, table).explain_batch(queries)
        sequential_session = ExplainSession(model, table)
        sequential = [sequential_session.explain(q) for q in queries]
        assert len(batch) == len(queries)
        for got, want in zip(batch, sequential):
            assert got.explanations == want.explanations
            assert got.delta == want.delta

    def test_batch_shares_graph_work(self, session, query):
        session.explain_batch([query] * 10)
        assert session.stats.queries == 10
        assert session.stats.translation_misses == 1
        assert session.stats.translation_hits == 9


class TestUnfittedIsAnError:
    """A session only exists over a fitted model, so serving never falls
    back to an implicit fit or warns about one."""

    def test_explicit_fit_never_warns(self, table, query):
        engine = fit_model(table, measure_bins=3).session(table)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine.explain(query)
