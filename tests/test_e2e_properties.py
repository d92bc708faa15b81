"""Property-based end-to-end harness: fit → save → load → explain_batch.

Hypothesis generates small random tables and query workloads and drives
them through the full pipeline — offline fit, artifact round-trip through
disk, online batch serving — asserting the invariants that must hold for
*any* input, not just the curated datasets:

* the pipeline never crashes on well-formed input;
* reports come back in input order, one per query;
* Δ and every explanation score/responsibility are finite (ρ ∈ [0, 1]),
  and every predicate only names values that exist in the table;
* serial ≡ process serving (the executor is unobservable);
* the micro-batching service returns exactly the direct batch results.
"""

import asyncio
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import ExplainSession, XInsightModel, fit_model
from repro.core.reporting import report_to_dict
from repro.data import Subspace, Table, WhyQuery
from repro.errors import ExplanationError
from repro.serve import ExplanationService

E2E_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def e2e_cases(draw) -> tuple[Table, list[WhyQuery]]:
    """A random small table plus a workload of valid Why Queries."""
    n_dims = draw(st.integers(2, 3))
    cards = [draw(st.integers(2, 3)) for _ in range(n_dims)]
    n_rows = draw(st.integers(36, 72))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)

    columns: dict = {}
    dims: list[tuple[str, list[str]]] = []
    for i, card in enumerate(cards):
        cats = [f"d{i}v{j}" for j in range(card)]
        # Tile the categories so every one is realized, then shuffle.
        values = [cats[k % card] for k in range(n_rows)]
        rng.shuffle(values)
        columns[f"D{i}"] = values
        dims.append((f"D{i}", cats))
    measure = rng.integers(0, 10, size=n_rows).astype(float)
    measure[0], measure[1] = 0.0, 9.0  # never a constant column
    columns["M"] = measure
    table = Table.from_columns(columns)

    queries: list[WhyQuery] = []
    wanted = draw(st.integers(2, 5))
    for _ in range(3 * wanted):  # some draws are discarded for Δ = 0
        di = draw(st.integers(0, n_dims - 1))
        name, cats = dims[di]
        a = draw(st.sampled_from(cats))
        b = draw(st.sampled_from([c for c in cats if c != a]))
        s1, s2 = {name: a}, {name: b}
        if draw(st.booleans()):  # sometimes pin a shared background filter
            bj = draw(st.integers(0, n_dims - 1))
            if bj != di:
                bg_name, bg_cats = dims[bj]
                shared = draw(st.sampled_from(bg_cats))
                s1[bg_name] = shared
                s2[bg_name] = shared
        agg = draw(st.sampled_from(["AVG", "SUM", "COUNT"]))
        query = WhyQuery.create(Subspace.of(**s1), Subspace.of(**s2), "M", agg)
        # Δ = 0 queries are legitimately unexplainable (a typed
        # ExplanationError, pinned by its own test below); the invariant
        # sweep runs on answerable workloads.
        if abs(query.delta(table)) < 1e-9:
            continue
        queries.append(query)
        if len(queries) == wanted:
            break
    assume(len(queries) >= 2)
    if draw(st.booleans()):  # repeated queries exercise the memo caches
        queries = queries + queries[:2]
    return table, queries


def fit_save_load(table: Table, tmp: Path) -> XInsightModel:
    """The full offline round trip: fit, persist, reload from disk."""
    path = tmp / "model.json"
    fit_model(table, measure_bins=3).save(path)
    return XInsightModel.load(path)


def check_report_invariants(reports, queries, table: Table) -> None:
    assert len(reports) == len(queries)
    for report, query in zip(reports, queries):
        # Order preserved: report i answers query i (possibly re-oriented
        # so that Δ ≥ 0, which swaps the siblings but nothing else).
        swapped = WhyQuery(query.s2, query.s1, query.measure, query.agg)
        assert report.query in (query, swapped)
        assert report.query.agg is query.agg
        assert np.isfinite(report.delta)
        assert report.delta >= 0  # the serving layer orients every query
        for explanation in report.explanations:
            assert np.isfinite(explanation.score)
            assert np.isfinite(explanation.responsibility)
            assert 0.0 <= explanation.responsibility <= 1.0
            dimension = explanation.predicate.dimension
            assert dimension in table.dimensions
            assert dimension not in query.context.variables
            assert dimension != query.measure
            # Predicates only ever name values that exist in the data.
            assert set(explanation.predicate.values) <= set(
                table.categories(dimension)
            )
            if explanation.contingency is not None:
                assert set(explanation.contingency.values) <= set(
                    table.categories(explanation.contingency.dimension)
                )


class TestEndToEndProperties:
    @E2E_SETTINGS
    @given(case=e2e_cases())
    def test_fit_save_load_explain_batch_invariants(self, case, tmp_path_factory):
        table, queries = case
        tmp = tmp_path_factory.mktemp("e2e")
        model = fit_save_load(table, tmp)
        reports = ExplainSession(model, table).explain_batch(queries)
        check_report_invariants(reports, queries, table)

    @E2E_SETTINGS
    @given(case=e2e_cases())
    def test_serial_equals_sharded(self, case, tmp_path_factory, process_pair):
        table, queries = case
        tmp = tmp_path_factory.mktemp("e2e-process")
        model = fit_save_load(table, tmp)
        serial = ExplainSession(model, table).explain_batch(queries)
        sharded = ExplainSession(model, table).explain_batch(
            queries, executor=process_pair
        )
        assert [report_to_dict(r) for r in sharded] == [
            report_to_dict(r) for r in serial
        ]

    @E2E_SETTINGS
    @given(case=e2e_cases())
    def test_service_equals_direct_batch(self, case, tmp_path_factory):
        table, queries = case
        tmp = tmp_path_factory.mktemp("e2e-serve")
        model = fit_save_load(table, tmp)
        direct = ExplainSession(model, table).explain_batch(queries)

        async def scenario():
            async with ExplanationService(model, table, max_batch=4) as service:
                return await asyncio.gather(
                    *[service.explain(q) for q in queries]
                )

        served = asyncio.run(scenario())
        assert [report_to_dict(r) for r in served] == [
            report_to_dict(r) for r in direct
        ]


def fixed_case() -> tuple[Table, list[WhyQuery]]:
    """One deterministic case of the same shape the strategy generates."""
    rng = np.random.default_rng(7)
    n_rows = 60
    columns: dict = {}
    for i, card in enumerate((3, 2)):
        cats = [f"d{i}v{j}" for j in range(card)]
        values = [cats[k % card] for k in range(n_rows)]
        rng.shuffle(values)
        columns[f"D{i}"] = values
    measure = rng.integers(0, 10, size=n_rows).astype(float)
    measure[0], measure[1] = 0.0, 9.0
    columns["M"] = measure
    table = Table.from_columns(columns)
    queries = [
        WhyQuery.create(
            Subspace.of(D0="d0v0"), Subspace.of(D0="d0v1"), "M", agg
        )
        for agg in ("AVG", "SUM", "COUNT")
    ] + [
        WhyQuery.create(Subspace.of(D1="d1v1"), Subspace.of(D1="d1v0"), "M", "AVG"),
    ]
    return table, queries


class TestUnexplainableQueries:
    """Δ = 0 is a typed outcome, and it is the *same* typed outcome no
    matter which serving surface the query arrives through."""

    def test_zero_delta_same_outcome_direct_and_via_service(self, tmp_path):
        # COUNT over two equal-sized groups: Δ = 0 by construction (D1 is
        # tiled over 60 rows, so both categories hold exactly 30).  The
        # outcome — a typed ExplanationError if any attribute is
        # explainable, an empty report otherwise — must be identical no
        # matter which serving surface the query arrives through.
        table, _ = fixed_case()
        query = WhyQuery.create(
            Subspace.of(D1="d1v0"), Subspace.of(D1="d1v1"), "M", "COUNT"
        )
        assert query.delta(table) == 0
        model = fit_save_load(table, tmp_path)
        try:
            direct = report_to_dict(ExplainSession(model, table).explain(query))
        except ExplanationError as exc:
            direct = ("error", str(exc))

        async def scenario():
            async with ExplanationService(model, table) as service:
                return await asyncio.gather(
                    service.explain(query), return_exceptions=True
                )

        (outcome,) = asyncio.run(scenario())
        if isinstance(outcome, BaseException):
            assert isinstance(outcome, ExplanationError)
            assert direct == ("error", str(outcome))
        else:
            assert report_to_dict(outcome) == direct


class TestProcessParity:
    """Process-pool parity on one fixed case through the ``workers=2``
    kwarg (the hypothesis sweep passes a ready-made pool instead)."""

    def test_serial_equals_process(self, tmp_path):
        table, queries = fixed_case()
        model = fit_save_load(table, tmp_path)
        serial = ExplainSession(model, table).explain_batch(queries)
        process = ExplainSession(model, table).explain_batch(
            queries, workers=2, executor=None
        )
        assert [report_to_dict(r) for r in process] == [
            report_to_dict(r) for r in serial
        ]
