"""Online serving throughput: ExplainSession batch vs naive per-query refit.

The point of the model/session split (ISSUE 2, Fig. 3): the offline phase
runs once per dataset while the online phase serves a query stream.  This
harness measures queries/sec of ``explain_batch`` over one fitted
:class:`~repro.core.model.XInsightModel` against the naive workflow that
runs a fresh ``fit_model(table)`` for every query, asserts that
session serving (and its per-context caching) wins, and appends a trajectory
entry to ``benchmarks/BENCH_online.json`` so the speedup is tracked across
PRs.

Opt-in (tier-1 excludes ``slow``):

    PYTHONPATH=src python -m pytest benchmarks/test_online_throughput.py -m slow -q -s

or render the markdown table directly::

    PYTHONPATH=src python benchmarks/test_online_throughput.py
"""

import time
from pathlib import Path

import pytest

from repro.bench import BenchTable, append_trajectory, fmt_seconds
from repro.core import ExplainSession, fit_model
from repro.datasets import generate_syn_b, serving_queries

pytestmark = pytest.mark.slow

N_ROWS = 10_000
N_QUERIES = 24
N_NAIVE = 3
SEED = 21
TARGET_SPEEDUP = 5.0
TRAJECTORY = Path(__file__).parent / "BENCH_online.json"


def measure(n_rows: int = N_ROWS, seed: int = SEED) -> dict:
    case = generate_syn_b(n_rows=n_rows, seed=seed)
    queries = serving_queries(case, N_QUERIES)

    # Naive workflow: a fresh offline fit per query (time a few, take the
    # per-query average — the cost is dominated by discovery, not variance).
    start = time.perf_counter()
    for query in queries[:N_NAIVE]:
        fit_model(case.table, measure_bins=4).session(case.table).explain(query)
    naive_per_query = (time.perf_counter() - start) / N_NAIVE

    # Fit-once / serve-many: one model, one session, one batch.
    start = time.perf_counter()
    model = fit_model(case.table, measure_bins=4)
    fit_seconds = time.perf_counter() - start
    session = ExplainSession(model, case.table)
    start = time.perf_counter()
    reports = session.explain_batch(queries)
    batch_seconds = time.perf_counter() - start
    assert len(reports) == len(queries)

    info = session.cache_info()
    return {
        "n_rows": n_rows,
        "n_queries": len(queries),
        "fit_seconds": fit_seconds,
        "naive_qps": 1.0 / naive_per_query,
        "session_qps": len(queries) / batch_seconds,
        "speedup": naive_per_query / (batch_seconds / len(queries)),
        "translation_hits": info["translation_hits"],
        "translation_misses": info["translation_misses"],
    }


def run_experiment() -> BenchTable:
    table = BenchTable(
        "Online serving — explain_batch on a fitted model vs per-query refits",
        ["Workload", "Naive q/s", "Session q/s", "Speedup", "Cache hits"],
    )
    m = measure()
    table.add_row(
        f"{m['n_rows']} rows × {m['n_queries']} queries",
        f"{m['naive_qps']:.2f}",
        f"{m['session_qps']:.2f}",
        f"{m['speedup']:.0f}×",
        f"{m['translation_hits']} / {m['translation_hits'] + m['translation_misses']}",
    )
    table.note(
        f"naive = fresh fit_model() per query (avg over {N_NAIVE}); "
        f"session amortizes one fit ({fmt_seconds(m['fit_seconds'])}s) over "
        "the whole stream."
    )
    return table


class TestOnlineThroughput:
    def test_session_batch_beats_naive_refits(self):
        m = measure()
        print(
            f"\nonline serving {m['n_rows']}r/{m['n_queries']}q: "
            f"naive={m['naive_qps']:.2f} q/s "
            f"session={m['session_qps']:.2f} q/s speedup={m['speedup']:.0f}x"
        )
        # Session caching must actually engage (the stream has 4 distinct
        # contexts, so all but a handful of queries are cache hits) ...
        assert m["translation_hits"] >= m["n_queries"] - 4
        assert m["translation_misses"] <= 4
        # ... and serving must beat refitting by a wide margin.
        assert m["speedup"] >= TARGET_SPEEDUP, (
            f"expected ≥{TARGET_SPEEDUP}× over naive refits, "
            f"got {m['speedup']:.1f}×"
        )
        append_trajectory(TRAJECTORY, {"bench": "online_throughput", **m})


if __name__ == "__main__":
    run_experiment().show()
