"""Serving throughput: micro-batched service vs one-request-at-a-time.

The point of the :mod:`repro.serve` layer (ISSUE 5): under concurrent
traffic, coalescing requests into ``explain_batch`` flushes — and
deduplicating identical in-flight queries inside each flush — beats
serving every request individually through the identical machinery.  Both
sides of the comparison run the same admission queue, the same flush
thread, the same session and the same executor; the *only* difference is
``max_batch`` (64 vs 1), i.e. whether coalescing is allowed.  Results are
asserted byte-identical to a direct ``explain_batch`` before any timing
counts.

Workloads:

* **repeated** — many concurrent requests cycling over few distinct
  queries (the serving-stream shape every session cache targets).  This
  is the asserted ≥3× case: without coalescing each duplicate pays a full
  explain; with it, one explain per distinct query per flush.
* **distinct** — every request unique, so dedup never fires and the win
  is only amortized dispatch.  Recorded for honesty, not asserted.

Opt-in (tier-1 excludes ``slow``)::

    PYTHONPATH=src python -m pytest benchmarks/test_serve_throughput.py -m slow -q -s

or render the markdown table directly::

    PYTHONPATH=src python benchmarks/test_serve_throughput.py
"""

import asyncio
import json
import time
from pathlib import Path

import pytest

from repro.bench import BenchTable, append_trajectory
from repro.core import ExplainSession, fit_model
from repro.core.reporting import report_to_dict
from repro.data import Aggregate, Subspace, WhyQuery
from repro.datasets import generate_syn_b, serving_queries
from repro.serve import ExplanationService

pytestmark = pytest.mark.slow

N_ROWS = 8_000
N_REQUESTS = 480
SEED = 11
TARGET_SPEEDUP = 3.0
TRAJECTORY = Path(__file__).parent / "BENCH_serve.json"


def distinct_queries(case, n: int) -> list[WhyQuery]:
    """``n`` pairwise-distinct queries over Y-value sibling pairs."""
    categories = [f"y{i}" for i in range(10)]
    aggs = (Aggregate.AVG, Aggregate.SUM, Aggregate.COUNT)
    queries = []
    for a in categories:
        for b in categories:
            if a == b:
                continue
            query = WhyQuery.create(
                Subspace.of(Y=a), Subspace.of(Y=b), "Z",
                aggs[len(queries) % len(aggs)],
            )
            if abs(query.delta(case.table)) < 1e-9:
                continue  # Δ = 0 is legitimately unexplainable, skip it
            queries.append(query)
            if len(queries) == n:
                return queries
    raise AssertionError(f"cannot build {n} distinct queries")


def serve_workload(model, table, queries, max_batch: int) -> tuple[float, dict]:
    """Wall-clock seconds to serve ``queries`` concurrently, plus stats."""

    async def scenario():
        service = ExplanationService(
            model, table, max_batch=max_batch, queue_limit=len(queries) + 1
        )
        async with service:
            start = time.perf_counter()
            reports = await asyncio.gather(
                *[service.explain(q) for q in queries]
            )
            elapsed = time.perf_counter() - start
        return reports, elapsed, service.stats_snapshot()

    reports, elapsed, snapshot = asyncio.run(scenario())
    # Timing only counts if serving was correct: byte-identical to the
    # direct explain_batch a single caller would run.
    direct = ExplainSession(model, table).explain_batch(queries)
    assert json.dumps([report_to_dict(r) for r in reports]) == json.dumps(
        [report_to_dict(r) for r in direct]
    )
    return elapsed, snapshot


def measure(n_rows: int = N_ROWS, n_requests: int = N_REQUESTS, seed: int = SEED):
    case = generate_syn_b(n_rows=n_rows, seed=seed)
    model = fit_model(case.table, measure_bins=4)

    repeated = serving_queries(case, n_requests)
    batched_s, batched_stats = serve_workload(model, case.table, repeated, 64)
    unbatched_s, _ = serve_workload(model, case.table, repeated, 1)

    unique = distinct_queries(case, 64)
    distinct_batched_s, _ = serve_workload(model, case.table, unique, 64)
    distinct_unbatched_s, _ = serve_workload(model, case.table, unique, 1)

    return {
        "n_rows": n_rows,
        "n_requests": n_requests,
        "distinct_in_stream": len(set(repeated)),
        "batched_qps": n_requests / batched_s,
        "unbatched_qps": n_requests / unbatched_s,
        "speedup": unbatched_s / batched_s,
        "deduped": batched_stats["deduped"],
        "batches": batched_stats["batches"],
        "p50_ms": batched_stats["latency_ms"]["p50"],
        "p99_ms": batched_stats["latency_ms"]["p99"],
        "distinct_speedup": distinct_unbatched_s / distinct_batched_s,
        "distinct_batched_qps": len(unique) / distinct_batched_s,
        "distinct_unbatched_qps": len(unique) / distinct_unbatched_s,
    }


def run_experiment() -> BenchTable:
    table = BenchTable(
        "Serving — micro-batched service vs one-request-at-a-time",
        ["Workload", "Unbatched q/s", "Batched q/s", "Speedup"],
    )
    m = measure()
    table.add_row(
        f"{m['n_requests']} reqs / {m['distinct_in_stream']} distinct",
        f"{m['unbatched_qps']:.0f}",
        f"{m['batched_qps']:.0f}",
        f"{m['speedup']:.1f}×",
    )
    table.add_row(
        "64 reqs / all distinct",
        f"{m['distinct_unbatched_qps']:.0f}",
        f"{m['distinct_batched_qps']:.0f}",
        f"{m['distinct_speedup']:.1f}×",
    )
    table.note(
        "identical service machinery on both sides; only max_batch differs "
        f"(64 vs 1). Batched p50 {m['p50_ms']} ms / p99 {m['p99_ms']} ms; "
        f"dedup saved {m['deduped']} explains over {m['batches']} batches."
    )
    return table


class TestServeThroughput:
    def test_batched_serving_beats_single_request_serving(self):
        m = measure()
        print(
            f"\nserve {m['n_requests']}req/{m['distinct_in_stream']}distinct: "
            f"unbatched={m['unbatched_qps']:.0f} q/s "
            f"batched={m['batched_qps']:.0f} q/s "
            f"speedup={m['speedup']:.1f}x "
            f"(all-distinct {m['distinct_speedup']:.1f}x)"
        )
        append_trajectory(TRAJECTORY, {"bench": "serve_throughput", **m})
        # Coalescing must engage ...
        assert m["batches"] < m["n_requests"]
        assert m["deduped"] > 0
        # ... and win by a wide margin on the repeated-stream shape.
        assert m["speedup"] >= TARGET_SPEEDUP, (
            f"expected ≥{TARGET_SPEEDUP}× over one-request-at-a-time, "
            f"got {m['speedup']:.1f}×"
        )


if __name__ == "__main__":
    run_experiment().show()
