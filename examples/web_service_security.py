"""WEB walk-through (Sec. 4.1–4.3): the simulated production user study.

Runs the full Table 5 / Table 7 protocol on the simulated web-service
behaviour data: XInsight explains why flagged behaviours raise the block
rate, and a panel of six simulated experts (noisy copies of the ground
truth; see DESIGN.md) assesses the explanations and the causal claims.

Run:  python examples/web_service_security.py
"""

from repro import Aggregate, Role, Subspace, Table, WhyQuery, fit_model
from repro.datasets import generate_web, web_truth_graph
from repro.userstudy import claim_assessment, explanation_assessment, recruit_experts


def build_table() -> Table:
    table = generate_web(seed=0)
    blocked = [float(v) for v in table.values("IsBlocked")]
    return table.drop_columns(["IsBlocked"]).with_column(
        "IsBlocked", blocked, role=Role.MEASURE
    )


def main() -> None:
    table = build_table()
    print("fitting the offline phase (FCI over 29 behaviour variables)...")
    model = fit_model(table, measure_bins=2, max_depth=2, max_dsep_size=1, alpha=0.01)
    session = model.session(table)

    foregrounds = ("NewAccount", "ScriptedClient", "LinkFlooding", "AbuseReports")
    items = []
    for fg in foregrounds:
        query = WhyQuery.create(
            Subspace.of(**{fg: "1"}),
            Subspace.of(**{fg: "0"}),
            measure="IsBlocked",
            agg=Aggregate.AVG,
        )
        report = session.explain(query)
        print(f"\nWhy Query: block rate, {fg}=1 vs {fg}=0 (Δ = {report.delta:.3f})")
        for explanation in report.top(2):
            print(
                f"  [{explanation.type.value}] {explanation.attribute}: "
                f"{explanation.predicate} (ρ = {explanation.responsibility:.2f})"
            )
            items.append((explanation, "IsBlocked"))

    experts = recruit_experts(web_truth_graph(), n_experts=6, seed=1)

    print("\nTable 5 — explanation assessment (six simulated experts):")
    table5 = explanation_assessment(items, experts)
    for row in table5.to_rows():
        print("  " + "  ".join(f"{c:>6}" for c in row))
    print(f"  positive-response rate: {table5.positive_fraction:.0%}")

    node = session.node_of("IsBlocked")
    claims = sorted((n, "IsBlocked") for n in session.graph.neighbors(node))[:8]
    print("\nTable 7 — causal claim assessment:")
    table7 = claim_assessment(claims, experts)
    for row in table7.to_rows():
        print("  " + "  ".join(f"{c:>16}" for c in row))
    print(
        f"  reasonable: {table7.reasonable_fraction:.1%} "
        f"(paper: 83.3%), not reasonable: "
        f"{table7.not_reasonable_fraction:.1%} (paper: 6.3%)"
    )


if __name__ == "__main__":
    main()
