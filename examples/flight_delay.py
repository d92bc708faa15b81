"""FLIGHT walk-through (Sec. 4.2, Fig. 6): why are May flights later?

Reproduces the paper's first RQ1 case study on the simulated FLIGHT data:
the May-vs-November delay gap, the discovery of rain as a direct cause of
DelayMinute, and the Fig. 6(b) reversal when only rainy flights are
compared.  Also shows the FD handling: Quarter is functionally determined
by Month, which would break plain FCI.

Run:  python examples/flight_delay.py
"""

from repro import Aggregate, Filter, Subspace, WhyQuery, fit_model
from repro.datasets import generate_flight


def main() -> None:
    table = generate_flight(n_rows=20_000, seed=0)
    print(f"dataset: {table}")

    model = fit_model(table, measure_bins=3, max_depth=2)
    session = model.session(table)
    fd_graph = model.fd_graph
    print("\ndetected functional dependencies:")
    for fd in fd_graph.dependencies:
        print(f"  {fd}")

    query = WhyQuery.create(
        Subspace.of(Month="May"),
        Subspace.of(Month="Nov"),
        measure="DelayMinute",
        agg=Aggregate.AVG,
    )
    graph_table = session.graph_table
    delta = query.delta(graph_table)
    print(f"\n{query.describe(graph_table)}")
    print(f"Fig. 6(a): Δ = {delta:.3f} minutes (paper: 3.674)")

    report = session.explain(query)
    print("\ncausal explanations:")
    for explanation in report.causal():
        print(
            f"  {explanation.attribute:<12} {str(explanation.predicate):<30} "
            f"ρ = {explanation.responsibility:.2f} ({explanation.role.value})"
        )

    rainy = Filter("Rain", "Yes").mask(graph_table)
    delta_rainy = query.delta(graph_table, rainy)
    print(
        f"\nFig. 6(b): among rainy flights only, Δ′ = {delta_rainy:.3f} "
        f"(paper: −2.068) — the difference reverses, so rain explains it."
    )


if __name__ == "__main__":
    main()
