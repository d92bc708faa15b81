"""Online XPlainer speed: batched Δ kernels + QueryWorkspace vs scalar path.

Two measurements of the vectorized online hot path (ISSUE 4):

* **single-query latency** — a high-cardinality (m = 240) AVG workload
  whose greedy canonical predicate is long, explained once through the
  pre-refactor scalar search (``tests/oracles/xplainer_scalar.py``,
  probing every candidate in a Python loop) and once through the batched
  kernels driven by a :class:`~repro.data.query.QueryWorkspace`.  Asserts
  the ≥5× speed-up (typically ~30×) and that both paths return the same
  predicate.

* **batch throughput** — a 200-query mixed serving batch (AVG/SUM/COUNT
  variants over both orientations of the SYN-B query) against one fitted
  model, with the session's workspace memoization on vs off.  Asserts a
  measured throughput gain and records both rates.

Appends a trajectory entry to ``benchmarks/BENCH_xplainer.json`` via the
shared :func:`repro.bench.append_trajectory` writer.

Opt-in (tier-1 excludes ``slow``):

    PYTHONPATH=src python -m pytest benchmarks/test_xplainer_speed.py -m slow -q -s

or render the markdown table directly (``tests`` holds the reference)::

    PYTHONPATH=src:tests python benchmarks/test_xplainer_speed.py
"""

import time
from pathlib import Path

import numpy as np
import pytest
from oracles.xplainer_scalar import avg_search_scalar

from repro.bench import BenchTable, append_trajectory
from repro.core import ExplainSession, XPlainerConfig, fit_model
from repro.core.xplainer import explain_attribute
from repro.data import (
    Aggregate,
    AttributeProfile,
    QueryWorkspace,
    Subspace,
    Table,
    WhyQuery,
)
from repro.datasets import generate_syn_b, serving_queries

pytestmark = pytest.mark.slow

N_ROWS = 60_000
CARDINALITY = 240  # m ≥ 200 per the acceptance criteria
SINGLE_QUERY_TARGET = 5.0
THROUGHPUT_ROWS = 50_000
THROUGHPUT_CARDINALITY = 40
N_QUERIES = 200
THROUGHPUT_TARGET = 1.3
SEED = 42
TRAJECTORY = Path(__file__).parent / "BENCH_xplainer.json"


def high_cardinality_case(
    n_rows: int = N_ROWS, cardinality: int = CARDINALITY, seed: int = SEED
):
    """AVG workload where half the filters carry the shift: the greedy
    canonical predicate then needs ~cardinality/2 iterations, the regime
    where the per-candidate Python probes of the scalar path dominate."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, size=n_rows)
    y = rng.integers(0, cardinality, size=n_rows)
    shift = np.where(np.arange(cardinality) % 2 == 0, 10.0, 0.0)
    z = rng.normal(20.0, 2.0, size=n_rows) + shift[y] * (x == 1)
    table = Table.from_columns(
        {
            "X": [f"x{v}" for v in x],
            "Y": [f"y{v:03d}" for v in y],
            "Z": z.tolist(),
        }
    )
    query = WhyQuery.create(
        Subspace.of(X="x1"), Subspace.of(X="x0"), "Z", Aggregate.AVG
    ).oriented(table)
    return table, query


CONFIG = XPlainerConfig()  # both paths solve the same (ε, σ) problem


def scalar_single_query(table, query):
    """The pre-vectorization explain flow: rescan the table for the
    profile, re-evaluate Δ(D), then probe every greedy candidate."""
    profile = AttributeProfile.build(table, query, "Y")
    delta = query.delta(table)
    return avg_search_scalar(
        profile,
        CONFIG.resolve_epsilon(delta),
        CONFIG.resolve_sigma(profile.n_filters),
    )


def vectorized_single_query(table, query):
    """The vectorized flow: one cold workspace + batched-kernel search."""
    workspace = QueryWorkspace(table, query)
    return explain_attribute(table, query, "Y", config=CONFIG, workspace=workspace)


def measure_single_query(repeats: int = 3) -> dict:
    table, query = high_cardinality_case()
    profile = AttributeProfile.build(table, query, "Y")

    scalar_best = min(
        _timed(lambda: scalar_single_query(table, query)) for _ in range(repeats)
    )
    vector_best = min(
        _timed(lambda: vectorized_single_query(table, query)) for _ in range(repeats)
    )
    scalar_found = scalar_single_query(table, query)
    vector_found = vectorized_single_query(table, query)
    assert scalar_found is not None and vector_found is not None
    assert vector_found.predicate == scalar_found.predicate
    assert vector_found.contingency == scalar_found.contingency
    assert abs(vector_found.score - scalar_found.score) < 1e-9
    return {
        "n_rows": N_ROWS,
        "cardinality": profile.n_filters,
        "scalar_seconds": scalar_best,
        "vector_seconds": vector_best,
        "single_query_speedup": scalar_best / vector_best,
    }


def measure_throughput() -> dict:
    case = generate_syn_b(
        n_rows=THROUGHPUT_ROWS, cardinality=THROUGHPUT_CARDINALITY, seed=21
    )
    model = fit_model(case.table, measure_bins=4)
    queries = serving_queries(case, N_QUERIES)

    cached = ExplainSession(model, case.table)
    uncached = ExplainSession(model, case.table, workspace_cache=0)
    cached.explain(queries[0])  # warm both sessions' graph-side caches
    uncached.explain(queries[0])

    uncached_seconds = _timed(lambda: uncached.explain_batch(queries))
    cached_seconds = _timed(lambda: cached.explain_batch(queries))
    info = cached.cache_info()
    return {
        "batch_rows": THROUGHPUT_ROWS,
        "batch_queries": N_QUERIES,
        "uncached_qps": N_QUERIES / uncached_seconds,
        "cached_qps": N_QUERIES / cached_seconds,
        "throughput_gain": uncached_seconds / cached_seconds,
        "workspace_hits": info["workspace_hits"],
        "workspace_misses": info["workspace_misses"],
    }


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_experiment() -> BenchTable:
    table = BenchTable(
        "Online XPlainer — batched Δ kernels + QueryWorkspace vs scalar path",
        ["Workload", "Scalar", "Vectorized", "Speedup"],
    )
    single = measure_single_query()
    table.add_row(
        f"1 query, m={single['cardinality']} AVG, {single['n_rows']} rows",
        f"{single['scalar_seconds'] * 1e3:.1f} ms",
        f"{single['vector_seconds'] * 1e3:.1f} ms",
        f"{single['single_query_speedup']:.0f}×",
    )
    batch = measure_throughput()
    table.add_row(
        f"{batch['batch_queries']}-query mixed batch, {batch['batch_rows']} rows",
        f"{batch['uncached_qps']:.0f} q/s",
        f"{batch['cached_qps']:.0f} q/s",
        f"{batch['throughput_gain']:.2f}×",
    )
    table.note(
        "scalar = pre-refactor per-candidate probes (xplainer_scalar) / "
        "workspace memoization off; identical explanations asserted."
    )
    return table


class TestXPlainerSpeed:
    def test_single_query_latency_speedup(self):
        single = measure_single_query()
        print(
            f"\nxplainer single query m={single['cardinality']}: "
            f"scalar={single['scalar_seconds'] * 1e3:.1f}ms "
            f"vector={single['vector_seconds'] * 1e3:.1f}ms "
            f"speedup={single['single_query_speedup']:.1f}x"
        )
        entry = append_trajectory(
            TRAJECTORY, {"bench": "xplainer_single_query", **single}
        )
        assert entry["cardinality"] >= 200
        assert single["single_query_speedup"] >= SINGLE_QUERY_TARGET, (
            f"expected ≥{SINGLE_QUERY_TARGET}× over the scalar search, "
            f"got {single['single_query_speedup']:.1f}×"
        )

    def test_batch_throughput_gain(self):
        batch = measure_throughput()
        print(
            f"\nxplainer batch {batch['batch_queries']}q: "
            f"uncached={batch['uncached_qps']:.0f} q/s "
            f"cached={batch['cached_qps']:.0f} q/s "
            f"gain={batch['throughput_gain']:.2f}x"
        )
        append_trajectory(TRAJECTORY, {"bench": "xplainer_batch", **batch})
        # The workspace cache must actually engage across the repeats ...
        assert batch["workspace_hits"] >= batch["batch_queries"] - 8
        # ... and memoized serving must beat per-query rescans.
        assert batch["throughput_gain"] >= THROUGHPUT_TARGET, (
            f"expected ≥{THROUGHPUT_TARGET}× from workspace memoization, "
            f"got {batch['throughput_gain']:.2f}×"
        )


if __name__ == "__main__":
    run_experiment().show()
