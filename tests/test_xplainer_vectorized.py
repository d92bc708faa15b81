"""Parity suite for the vectorized online XPlainer.

Three layers of guarantees, each against an executable reference:

* the batched Δ kernels (``delta_without_many`` / ``delta_of_many`` /
  ``delta_from_stats``) agree with the scalar ``delta_without`` /
  ``delta_of`` probes on hypothesis-generated profiles;
* the vectorized brute/sum/avg searches return identical
  ``AttributeExplanation``s (same predicate, same contingency, scores to
  1e-9) to the pre-refactor implementations preserved in
  ``tests/oracles/xplainer_scalar.py``, across SUM/COUNT/AVG;
* :class:`~repro.data.query.QueryWorkspace` builds bit-identical profiles
  to ``AttributeProfile.build`` and its session memoization never changes
  an answer.

Measure values are drawn integer-valued so every sufficient-statistic sum
is exact in float64: the scalar and matmul summation orders then agree
bit-for-bit and predicate/contingency equality is a hard assertion, not a
tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import xplainer_scalar as scalar

from repro.core.session import ExplainSession
from repro.core.model import fit_model
from repro.core.xplainer import (
    avg_search,
    brute_force_search,
    exact_responsibility,
    explain_attribute,
    sum_search,
)
from repro.data import (
    Aggregate,
    AttributeProfile,
    QueryWorkspace,
    Subspace,
    Table,
    WhyQuery,
)
from repro.datasets import generate_syn_b
from repro.errors import ExplanationError

AGGREGATES = (Aggregate.SUM, Aggregate.COUNT, Aggregate.AVG)


# ---------------------------------------------------------------------------
# Profile / table generators
# ---------------------------------------------------------------------------


@st.composite
def random_profiles(draw):
    """A directly-constructed AttributeProfile with integer-exact stats."""
    m = draw(st.integers(min_value=1, max_value=7))
    agg = draw(st.sampled_from(AGGREGATES))
    counts = st.lists(
        st.integers(min_value=0, max_value=25), min_size=m, max_size=m
    )
    count1 = np.array(draw(counts), dtype=np.float64)
    count2 = np.array(draw(counts), dtype=np.float64)
    # Every retained filter has rows in at least one sibling (build() drops
    # the rest), and a filter with no rows carries no measure mass.
    empty = (count1 + count2) == 0
    count1[empty] = 1.0
    sums = st.lists(
        st.integers(min_value=-50, max_value=120), min_size=m, max_size=m
    )
    sum1 = np.array(draw(sums), dtype=np.float64) * (count1 > 0)
    sum2 = np.array(draw(sums), dtype=np.float64) * (count2 > 0)
    query = WhyQuery(Subspace.of(X="a"), Subspace.of(X="b"), "Z", agg)
    return AttributeProfile(
        query=query,
        attribute="Y",
        values=tuple(f"v{i}" for i in range(m)),
        count1=count1,
        sum1=sum1,
        count2=count2,
        sum2=sum2,
    )


def integer_case(agg, seed, m=7, n=600):
    """Random table whose measure is integer-valued (exact float sums)."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, size=n)
    y = rng.integers(0, m, size=n)
    shift = rng.integers(0, 8, size=m)
    z = (rng.integers(0, 10, size=n) + shift[y] * (x == 1)).astype(float)
    table = Table.from_columns(
        {
            "X": [f"x{v}" for v in x],
            "Y": [f"y{v}" for v in y],
            "Z": z.tolist(),
        }
    )
    query = WhyQuery.create(
        Subspace.of(X="x1"), Subspace.of(X="x0"), "Z", agg
    ).oriented(table)
    return table, query


def search_setup(agg, seed):
    table, query = integer_case(agg, seed)
    profile = AttributeProfile.build(table, query, "Y")
    delta = query.delta(table)
    if delta <= 0:
        pytest.skip("degenerate draw")
    return profile, 0.05 * delta, 1.0 / profile.n_filters


def assert_same_explanation(got, want):
    assert (got is None) == (want is None)
    if got is None:
        return
    assert got.attribute == want.attribute
    assert got.predicate == want.predicate
    assert got.contingency == want.contingency
    assert got.method == want.method
    assert got.responsibility == pytest.approx(want.responsibility, abs=1e-9)
    assert got.score == pytest.approx(want.score, abs=1e-9)


# ---------------------------------------------------------------------------
# Batched Δ kernels ≡ scalar probes
# ---------------------------------------------------------------------------


class TestBatchedKernels:
    @given(profile=random_profiles())
    @settings(max_examples=80, deadline=None)
    def test_delta_without_many_matches_scalar(self, profile):
        m = profile.n_filters
        bits = np.arange(1 << m, dtype=np.int64)
        masks = (bits[:, None] >> np.arange(m)[None, :]) & 1 == 1
        batched = profile.delta_without_many(masks)
        for row in range(1 << m):
            assert batched[row] == pytest.approx(
                profile.delta_without(masks[row]), abs=1e-9
            )

    @given(profile=random_profiles())
    @settings(max_examples=80, deadline=None)
    def test_delta_of_many_matches_scalar(self, profile):
        m = profile.n_filters
        bits = np.arange(1 << m, dtype=np.int64)
        masks = (bits[:, None] >> np.arange(m)[None, :]) & 1 == 1
        batched = profile.delta_of_many(masks)
        for row in range(1 << m):
            assert batched[row] == pytest.approx(
                profile.delta_of(masks[row]), abs=1e-9
            )
        assert batched[0] == 0.0  # empty selection stays exactly 0

    @given(profile=random_profiles())
    @settings(max_examples=80, deadline=None)
    def test_per_filter_delta_matches_scalar_loop(self, profile):
        vectorized = profile.per_filter_delta()
        reference = scalar.per_filter_delta_scalar(profile)
        assert np.array_equal(vectorized, reference)

    @given(profile=random_profiles())
    @settings(max_examples=40, deadline=None)
    def test_delta_from_stats_composes_with_totals(self, profile):
        # totals − (mask @ stats) fed back through delta_from_stats is the
        # kernel delta_without_many is built from.
        mask = np.zeros((1, profile.n_filters), dtype=bool)
        kept = profile.stats_totals()[None, :]
        assert profile.delta_from_stats(kept)[0] == pytest.approx(
            profile.delta_full(), abs=1e-9
        )
        assert profile.delta_without_many(mask)[0] == pytest.approx(
            profile.delta_full(), abs=1e-9
        )


# ---------------------------------------------------------------------------
# Vectorized searches ≡ pre-refactor implementations
# ---------------------------------------------------------------------------


class TestSearchParity:
    @pytest.mark.parametrize("agg", AGGREGATES)
    @pytest.mark.parametrize("seed", range(8))
    def test_brute_force_parity(self, agg, seed):
        profile, epsilon, sigma = search_setup(agg, seed)
        got = brute_force_search(profile, epsilon, sigma)
        want = scalar.brute_force_search_scalar(profile, epsilon, sigma)
        assert_same_explanation(got, want)

    @pytest.mark.parametrize("agg", (Aggregate.SUM, Aggregate.COUNT))
    @pytest.mark.parametrize("seed", range(8))
    def test_sum_search_parity(self, agg, seed):
        profile, epsilon, sigma = search_setup(agg, seed)
        got = sum_search(profile, epsilon, sigma)
        want = scalar.sum_search_scalar(profile, epsilon, sigma)
        assert_same_explanation(got, want)

    @pytest.mark.parametrize("homogeneous", (False, True))
    @pytest.mark.parametrize("seed", range(8))
    def test_avg_search_parity(self, homogeneous, seed):
        profile, epsilon, sigma = search_setup(Aggregate.AVG, seed)
        got = avg_search(profile, epsilon, sigma, homogeneous=homogeneous)
        want = scalar.avg_search_scalar(
            profile, epsilon, sigma, homogeneous=homogeneous
        )
        assert_same_explanation(got, want)

    @pytest.mark.parametrize("agg", AGGREGATES)
    @pytest.mark.parametrize("seed", range(4))
    def test_exact_responsibility_parity(self, agg, seed):
        profile, epsilon, _ = search_setup(agg, seed)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            selected = rng.random(profile.n_filters) < 0.5
            if not selected.any():
                continue
            rho_v, gamma_v = exact_responsibility(profile, selected, epsilon)
            rho_s, gamma_s = scalar.exact_responsibility_scalar(
                profile, selected, epsilon
            )
            assert rho_v == pytest.approx(rho_s, abs=1e-9)
            assert (gamma_v is None) == (gamma_s is None)
            if gamma_v is not None:
                assert np.array_equal(gamma_v, gamma_s)
                assert np.issubdtype(gamma_v.dtype, np.integer)


class TestSumSearchEmptyGammaDtype:
    def test_setdiff_keeps_integer_dtype_when_empty(self):
        """Regression: the old ``np.array([i for i in pc if i not in ...])``
        produced a float64 empty array for Γ = ∅; ``np.setdiff1d`` keeps an
        integer dtype usable as an index."""
        pc_indices = np.array([3, 1, 4], dtype=np.int64)
        empty = np.setdiff1d(pc_indices, pc_indices)
        assert empty.size == 0
        assert np.issubdtype(empty.dtype, np.integer)
        selected = np.zeros(5, dtype=bool)
        selected[empty] = True  # float64 empty would be rejected as an index
        assert not selected.any()

    def test_full_canonical_optimum_has_no_contingency(self):
        """End-to-end: when the whole canonical predicate is the optimum the
        Γ construction hits the empty edge and must yield None."""
        query = WhyQuery(Subspace.of(X="a"), Subspace.of(X="b"), "Z", Aggregate.SUM)
        profile = AttributeProfile(
            query=query,
            attribute="Y",
            values=("v0", "v1"),
            count1=np.array([5.0, 5.0]),
            sum1=np.array([15.0, 15.0]),
            count2=np.array([5.0, 5.0]),
            sum2=np.array([5.0, 5.0]),
        )
        found = sum_search(profile, epsilon=1.0, sigma=0.1)
        assert found is not None
        assert found.contingency is None
        assert found.responsibility == 1.0
        reference = scalar.sum_search_scalar(profile, epsilon=1.0, sigma=0.1)
        assert_same_explanation(found, reference)


# ---------------------------------------------------------------------------
# QueryWorkspace
# ---------------------------------------------------------------------------


class TestQueryWorkspace:
    @pytest.mark.parametrize("agg", AGGREGATES)
    def test_profiles_bit_identical_to_build(self, agg):
        table, query = integer_case(agg, seed=3)
        workspace = QueryWorkspace(table, query)
        direct = AttributeProfile.build(table, query, "Y")
        built = workspace.profile("Y")
        assert built.values == direct.values
        for name in ("count1", "sum1", "count2", "sum2"):
            assert np.array_equal(getattr(built, name), getattr(direct, name))
        assert workspace.delta == query.delta(table)

    def test_profile_cached_per_attribute(self):
        table, query = integer_case(Aggregate.AVG, seed=4)
        workspace = QueryWorkspace(table, query)
        assert workspace.profile("Y") is workspace.profile("Y")
        assert set(workspace.build_profiles(["Y"])) == {"Y"}

    def test_measure_as_attribute_rejected(self):
        table, query = integer_case(Aggregate.AVG, seed=4)
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            QueryWorkspace(table, query).profile("Z")

    def test_oriented_swaps_siblings_and_negates_delta(self):
        table, query = integer_case(Aggregate.AVG, seed=5)
        reversed_query = WhyQuery(query.s2, query.s1, query.measure, query.agg)
        workspace = QueryWorkspace(table, reversed_query)
        assert workspace.delta <= 0
        oriented = workspace.oriented()
        assert oriented.query == query
        assert oriented.delta == -workspace.delta
        assert oriented._rows1 is workspace._rows2  # arrays shared, swapped
        # an already-oriented workspace is returned as-is
        assert oriented.oriented() is oriented

    @pytest.mark.parametrize("agg", AGGREGATES)
    def test_explain_attribute_with_workspace_identical(self, agg):
        table, query = integer_case(agg, seed=6)
        workspace = QueryWorkspace(table, query)
        with_ws = explain_attribute(table, query, "Y", workspace=workspace)
        without = explain_attribute(table, query, "Y")
        assert_same_explanation(with_ws, without)

    def test_workspace_query_mismatch_raises(self):
        table, query = integer_case(Aggregate.AVG, seed=6)
        other = WhyQuery(query.s2, query.s1, query.measure, query.agg)
        workspace = QueryWorkspace(table, other)
        with pytest.raises(ExplanationError):
            explain_attribute(table, query, "Y", workspace=workspace)


# ---------------------------------------------------------------------------
# Session-level workspace memoization
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def serving_case():
    case = generate_syn_b(n_rows=2500, seed=13)
    model = fit_model(case.table, measure_bins=4)
    return case, model


def report_signature(report):
    return [
        (e.attribute, e.predicate, e.contingency, round(e.score, 12), e.type)
        for e in report.explanations
    ]


class TestSessionWorkspaceCache:
    def test_repeat_queries_hit_workspace_cache(self, serving_case):
        case, model = serving_case
        session = ExplainSession(model, case.table)
        session.explain(case.query)
        assert session.stats.workspace_misses >= 1
        hits_before = session.stats.workspace_hits
        session.explain(case.query)
        assert session.stats.workspace_hits > hits_before
        assert session.cache_info()["workspace_entries"] >= 1

    def test_disabled_cache_gives_identical_reports(self, serving_case):
        case, model = serving_case
        cached = ExplainSession(model, case.table)
        uncached = ExplainSession(model, case.table, workspace_cache=0)
        reversed_query = WhyQuery(
            case.query.s2, case.query.s1, case.query.measure, case.query.agg
        )
        sum_query = WhyQuery.create(
            case.query.s1, case.query.s2, case.query.measure, Aggregate.SUM
        )
        for query in (case.query, case.query, reversed_query, sum_query):
            a = cached.explain(query)
            b = uncached.explain(query)
            assert a.delta == b.delta
            assert report_signature(a) == report_signature(b)
        assert uncached.cache_info()["workspace_entries"] == 0
        assert uncached.stats.workspace_hits == 0

    def test_oriented_workspace_registered_under_oriented_query(self, serving_case):
        case, model = serving_case
        session = ExplainSession(model, case.table)
        reversed_query = WhyQuery(
            case.query.s2, case.query.s1, case.query.measure, case.query.agg
        )
        session.explain(reversed_query)  # Δ < 0: swaps to the oriented form
        hits_before = session.stats.workspace_hits
        session.explain(case.query)  # pre-oriented repeat must hit
        assert session.stats.workspace_hits > hits_before

    def test_repeated_unoriented_query_reuses_profiles(
        self, serving_case, monkeypatch
    ):
        """Regression: a repeated Δ<0 query must reuse the cached oriented
        workspace's profiles, not rebuild them behind a fresh swap."""
        case, model = serving_case
        session = ExplainSession(model, case.table)
        reversed_query = WhyQuery(
            case.query.s2, case.query.s1, case.query.measure, case.query.agg
        )
        builds = {"n": 0}
        original = QueryWorkspace._build_profile

        def counting(self, attribute):
            builds["n"] += 1
            return original(self, attribute)

        monkeypatch.setattr(QueryWorkspace, "_build_profile", counting)
        session.explain(reversed_query)
        first = builds["n"]
        assert first > 0
        session.explain(reversed_query)
        session.explain(case.query)  # the oriented form shares the profiles
        assert builds["n"] == first

    def test_lru_cap_bounds_entries(self, serving_case):
        case, model = serving_case
        session = ExplainSession(model, case.table, workspace_cache=2)
        queries = [
            case.query,
            WhyQuery.create(
                case.query.s1, case.query.s2, case.query.measure, Aggregate.SUM
            ),
            WhyQuery.create(
                case.query.s1, case.query.s2, case.query.measure, Aggregate.COUNT
            ),
        ]
        for query in queries:
            session.explain(query)
        assert session.cache_info()["workspace_entries"] <= 2

    def test_alias_query_swaps_cached_workspace_instead_of_rescanning(
        self, serving_case, monkeypatch
    ):
        """Serving a query and then its sibling-swapped alias must not scan
        the table twice: the alias derives its workspace (and profiles) by
        swapping the cached one's arrays."""
        case, model = serving_case
        session = ExplainSession(model, case.table)
        session.explain(case.query)  # caches the oriented workspace

        scans = {"n": 0}
        original_init = QueryWorkspace.__init__

        def counting_init(self, table, query):
            scans["n"] += 1
            original_init(self, table, query)

        monkeypatch.setattr(QueryWorkspace, "__init__", counting_init)
        reversed_query = WhyQuery(
            case.query.s2, case.query.s1, case.query.measure, case.query.agg
        )
        report = session.explain(reversed_query)
        assert scans["n"] == 0  # swapped(), never a fresh table scan
        assert report.delta == session.explain(case.query).delta

    def test_swapped_workspace_profiles_match_fresh_build(self):
        table, query = integer_case(Aggregate.AVG, seed=9)
        workspace = QueryWorkspace(table, query)
        workspace.profile("Y")
        swapped = workspace.swapped()
        fresh = AttributeProfile.build(table, swapped.query, "Y")
        derived = swapped.profile("Y")
        assert derived.values == fresh.values
        for name in ("count1", "sum1", "count2", "sum2"):
            assert np.array_equal(getattr(derived, name), getattr(fresh, name))

    def test_shard_task_carries_workspace_cache(self, serving_case):
        """Regression: worker sessions built for sharded explain_batch must
        inherit the parent session's workspace_cache bound."""
        case, model = serving_case
        session = ExplainSession(model, case.table, workspace_cache=0)
        task = session._shard_task_for(session.config, "auto")
        assert task.workspace_cache == 0
        worker_session = task.build_state()
        assert worker_session._workspace_cap == 0
        # changing the knob is part of task identity: a new task is built
        session._workspace_cap = 8
        assert session._shard_task_for(session.config, "auto") is not task

    def test_batch_serving_matches_per_query_explains(self, serving_case):
        case, model = serving_case
        batch_session = ExplainSession(model, case.table)
        solo_session = ExplainSession(model, case.table, workspace_cache=0)
        queries = [case.query] * 3 + [
            WhyQuery.create(
                case.query.s1, case.query.s2, case.query.measure, Aggregate.SUM
            )
        ] * 2
        reports = batch_session.explain_batch(queries)
        for query, report in zip(queries, reports):
            assert report_signature(report) == report_signature(
                solo_session.explain(query)
            )
