"""E7 — Fig. 6 + RQ1: end-to-end explanations on FLIGHT and HOTEL.

Paper narrative to reproduce:

* FLIGHT: AVG(DelayMinute) in May exceeds November (paper Δ = 3.674);
  XInsight identifies rain as a cause of delay and the rain explanation,
  under which the difference *reverses* when restricted to rainy flights
  (paper Δ′ = −2.068).  Note "Rain=Yes" (remove rainy rows) and "Rain=No"
  (remove dry rows) are both counterfactual causes with ρ = 1 — the paper
  reports the former; either one certifies rain as the explanation.
* HOTEL: AVG(IsCanceled) in July exceeds January (0.37 vs 0.30); XInsight
  identifies LeadTime as an (indirect) cause and returns a long-lead range
  whose removal (equivalently, enforcing short leads, the paper's
  "LeadTime ≤ 133") shrinks the difference.
"""

import pytest

from repro.bench import BenchTable, fmt_float
from repro.core import fit_model
from repro.data import Aggregate, Filter, Subspace, WhyQuery
from repro.datasets import generate_flight, generate_hotel


def flight_engine(n_rows: int = 20_000):
    table = generate_flight(n_rows=n_rows, seed=0)
    return fit_model(table, measure_bins=3, max_depth=2).session(table), table


def flight_query():
    return WhyQuery.create(
        Subspace.of(Month="May"), Subspace.of(Month="Nov"), "DelayMinute",
        Aggregate.AVG,
    )


def hotel_engine(n_rows: int = 20_000):
    table = generate_hotel(n_rows=n_rows, seed=0)
    return fit_model(table, measure_bins=4, max_depth=2).session(table), table


def hotel_query():
    return WhyQuery.create(
        Subspace.of(ArrivalMonth="Jul"),
        Subspace.of(ArrivalMonth="Jan"),
        "IsCanceled",
        Aggregate.AVG,
    )


def run_experiment(fast: bool = True) -> BenchTable:
    n_rows = 20_000 if fast else 40_000
    table = BenchTable(
        "Fig. 6 / RQ1 — end-to-end explanations (FLIGHT, HOTEL)",
        ["Dataset", "Why Query", "Δ", "Causal factor found", "Δ′ (Fig. 6(b) condition)"],
    )

    engine, _raw = flight_engine(n_rows)
    q = flight_query()
    report = engine.explain(q)
    rain = next((e for e in report.causal() if e.attribute == "Rain"), None)
    gt = engine.graph_table
    delta = q.delta(gt)
    rainy = Filter("Rain", "Yes").mask(gt)
    delta_rainy = q.delta(gt, rainy)
    table.add_row(
        "FLIGHT",
        "AVG(DelayMinute): May vs Nov",
        fmt_float(delta, 3),
        f"Rain ({rain.predicate})" if rain else "(rain not found)",
        f"{fmt_float(delta_rainy, 3)} among Rain=Yes",
    )

    engine, _raw = hotel_engine(n_rows)
    q = hotel_query()
    report = engine.explain(q)
    lead = next((e for e in report.causal() if e.attribute == "LeadTime"), None)
    gt = engine.graph_table
    delta = q.delta(gt)
    if lead is not None:
        keep = ~lead.predicate.mask(gt)
        delta_under = q.delta(gt, keep)
        factor = f"LeadTime (remove {lead.predicate})"
    else:  # pragma: no cover - reported honestly if discovery misses it
        delta_under = float("nan")
        factor = "(LeadTime not found)"
    table.add_row(
        "HOTEL",
        "AVG(IsCanceled): Jul vs Jan",
        fmt_float(delta, 3),
        factor,
        f"{fmt_float(delta_under, 3)} excluding long leads",
    )
    table.note(
        "Paper: FLIGHT Δ = 3.674 → Δ′ = −2.068 among Rain=Yes (reversal); "
        "HOTEL 0.37 vs 0.30, shrinking under LeadTime ≤ 133."
    )
    return table


class TestFlightRQ1:
    @pytest.fixture(scope="class")
    def fitted(self):
        return flight_engine()

    def test_rain_is_causal_explanation(self, fitted):
        engine, _ = fitted
        report = engine.explain(flight_query())
        causal_attrs = {e.attribute for e in report.causal()}
        assert "Rain" in causal_attrs

    def test_rain_explanation_is_counterfactual(self, fitted):
        engine, _ = fitted
        report = engine.explain(flight_query())
        rain = next(e for e in report.causal() if e.attribute == "Rain")
        assert rain.responsibility == pytest.approx(1.0)

    def test_difference_reverses_among_rainy_flights(self, fitted):
        engine, _ = fitted
        q = flight_query()
        gt = engine.graph_table
        rainy = Filter("Rain", "Yes").mask(gt)
        assert q.delta(gt) > 0
        assert q.delta(gt, rainy) < 0

    def test_quarter_fd_does_not_break_discovery(self, fitted):
        engine, _ = fitted
        # Quarter is an FD child of Month: XLearner must have detected it.
        assert engine.model.fd_graph.has_fd("Month", "Quarter")


class TestHotelRQ1:
    @pytest.fixture(scope="class")
    def fitted(self):
        return hotel_engine()

    def test_leadtime_is_causal_explanation(self, fitted):
        engine, _ = fitted
        report = engine.explain(hotel_query())
        causal_attrs = {e.attribute for e in report.causal()}
        assert "LeadTime" in causal_attrs

    def test_removing_found_leads_shrinks_difference(self, fitted):
        engine, _ = fitted
        q = hotel_query()
        report = engine.explain(q)
        lead = next(e for e in report.causal() if e.attribute == "LeadTime")
        gt = engine.graph_table
        keep = ~lead.predicate.mask(gt)
        assert abs(q.delta(gt, keep)) < 0.6 * q.delta(gt)


def test_benchmark_online_phase_flight(benchmark):
    engine, _ = flight_engine(n_rows=10_000)
    report = benchmark.pedantic(
        lambda: engine.explain(flight_query()), rounds=3, iterations=1
    )
    assert report.explanations


if __name__ == "__main__":
    run_experiment(fast=False).show()
