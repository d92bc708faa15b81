"""Shared experiment drivers used by the benchmark suite.

These functions are the measurement core of Tables 6, 8, 9 and Figs. 6–7;
the modules under ``benchmarks/`` parameterize them and render the output
tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines import BOExplain, RSExplain, Scorpion
from repro.bench.harness import time_call
from repro.core.xlearner import xlearner
from repro.core.xplainer import explain_attribute
from repro.datasets.syn_a import SynACase, generate_syn_a
from repro.datasets.syn_b import SynBCase
from repro.discovery.fci import fci
from repro.graph.metrics import GraphScores, score_graph
from repro.independence.cache import CachedCITest
from repro.independence.engine import ChiSquaredTest


@dataclass
class MethodOutcome:
    """One (method, dataset) measurement for Tables 8–9."""

    f1: float
    seconds: float
    timed_out: bool


def run_xplainer(case: SynBCase) -> MethodOutcome:
    found, seconds = time_call(
        lambda: explain_attribute(case.table, case.query, "Y")
    )
    f1 = case.f1_against_truth(found.predicate if found else None)
    return MethodOutcome(f1, seconds, False)


def run_baseline(case: SynBCase, baseline, time_budget: float | None) -> MethodOutcome:
    result = baseline.explain(case.table, case.query, "Y", time_budget=time_budget)
    f1 = case.f1_against_truth(result.predicate)
    return MethodOutcome(f1, result.seconds, result.timed_out)


def run_all_methods(
    case: SynBCase,
    time_budget: float | None = 60.0,
    bo_budget: int = 60,
) -> dict[str, MethodOutcome]:
    """XPlainer + the three baselines on one SYN-B case."""
    return {
        "XPlainer": run_xplainer(case),
        "Scorpion": run_baseline(case, Scorpion(), time_budget),
        "RSExplain": run_baseline(case, RSExplain(), time_budget),
        "BOExplain": run_baseline(case, BOExplain(budget=bo_budget), time_budget),
    }


@dataclass
class DiscoveryComparison:
    """XLearner vs FCI on one SYN-A case (Table 6 / Fig. 7 measurement)."""

    xlearner: GraphScores
    fci: GraphScores
    fd_proportion: float

    @property
    def superiority(self) -> tuple[float, float, float]:
        """(ΔF1, Δprecision, Δrecall) of XLearner over FCI (Fig. 7 y-axis)."""
        return (
            self.xlearner.combined.f1 - self.fci.combined.f1,
            self.xlearner.combined.precision - self.fci.combined.precision,
            self.xlearner.combined.recall - self.fci.combined.recall,
        )


def compare_discovery(case: SynACase, alpha: float = 0.05) -> DiscoveryComparison:
    """Run XLearner and plain FCI on the same SYN-A table, score both."""
    table = case.table
    xl = xlearner(table, alpha=alpha)
    xl_scores = score_graph(xl.pag, case.truth_pag)

    ci = CachedCITest(ChiSquaredTest(table, alpha=alpha))
    plain = fci(table.dimensions, ci).pag
    fci_scores = score_graph(plain, case.truth_pag)
    return DiscoveryComparison(xl_scores, fci_scores, case.fd_proportion)


def discovery_sweep(
    node_counts: list[int],
    seeds: list[int],
    n_rows: int = 3000,
    **syn_a_kwargs,
) -> list[DiscoveryComparison]:
    """The Table 6 measurement: SYN-A cases across scales and seeds."""
    out: list[DiscoveryComparison] = []
    for n in node_counts:
        for seed in seeds:
            case = generate_syn_a(n_nodes=n, seed=seed, n_rows=n_rows, **syn_a_kwargs)
            out.append(compare_discovery(case))
    return out


def summarize_scores(
    comparisons: list[DiscoveryComparison],
) -> dict[str, dict[str, tuple[float, float]]]:
    """Mean ± std of F1/precision/recall per algorithm (Table 6 cells)."""
    out: dict[str, dict[str, tuple[float, float]]] = {}
    for name, pick in (("XLearner", lambda c: c.xlearner), ("FCI", lambda c: c.fci)):
        stats: dict[str, tuple[float, float]] = {}
        for metric in ("f1", "precision", "recall"):
            values = np.array(
                [getattr(pick(c).combined, metric) for c in comparisons]
            )
            stats[metric] = (float(values.mean()), float(values.std()))
        out[name] = stats
    return out
