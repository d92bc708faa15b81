"""Change analysis — the Power BI integration scenario (Sec. 1, Sec. 7).

The paper notes XPlainer ships inside Microsoft Power BI to "explain
increase/decrease in data".  This example shows that workflow on the HOTEL
data: a metric moved between two months; one call explains the move, typed
causal vs non-causal, reusing the already-fitted offline phase for every
subsequent change query.

Run:  python examples/change_analysis.py
"""

from repro.core import explain_change, fit_model
from repro.datasets import generate_hotel


def main() -> None:
    table = generate_hotel(n_rows=20_000, seed=0)
    session = fit_model(table, measure_bins=4, max_depth=2).session(table)

    print("cancellation-rate changes, month over month:\n")
    transitions = [("Jan", "Apr"), ("Apr", "Jul"), ("Jul", "Oct"), ("Oct", "Jan")]
    for before, after in transitions:
        report = explain_change(
            session,
            time_dimension="ArrivalMonth",
            before=before,
            after=after,
            measure="IsCanceled",
        )
        print(f"{before} → {after}: {report.headline()}")
        for explanation in report.report.top(2):
            print(
                f"    [{explanation.type.value}] {explanation.attribute}: "
                f"{explanation.predicate} (ρ = {explanation.responsibility:.2f})"
            )
        print()


if __name__ == "__main__":
    main()
