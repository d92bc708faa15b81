"""Speed harness: vectorized CI engine vs the per-stratum baseline.

Times PC-stable skeleton learning on the ISSUE workload — a 10-node /
5k-row discrete synthetic table — under the per-stratum χ² reference
(``tests/oracles/contingency.py``) and the batched columnar engine
(:class:`~repro.independence.engine.ChiSquaredTest`), asserting parity of
the learned skeleton and a ≥ 3× wall-clock speedup.

Opt-in (tier-1 excludes ``slow``):

    PYTHONPATH=src python -m pytest benchmarks/test_ci_engine_speed.py -m slow -q -s

or render the markdown table directly (``tests`` holds the reference)::

    PYTHONPATH=src:tests python benchmarks/test_ci_engine_speed.py
"""

import time
from pathlib import Path

import numpy as np
import pytest
from oracles import contingency as reference

from repro.bench import BenchTable, append_trajectory, fmt_seconds
from repro.datasets.random_graphs import BayesNet, random_dag
from repro.discovery import learn_skeleton
from repro.independence import CachedCITest, ChiSquaredTest

pytestmark = pytest.mark.slow

N_NODES = 10
N_ROWS = 5000
SEED = 7
TARGET_SPEEDUP = 3.0
TRAJECTORY = Path(__file__).parent / "BENCH_ci_engine.json"


def make_workload(n_nodes: int = N_NODES, n_rows: int = N_ROWS, seed: int = SEED):
    rng = np.random.default_rng(seed)
    dag = random_dag(n_nodes, 0.25, rng)
    net = BayesNet.random(dag, rng, cardinality=3, dirichlet_alpha=0.5)
    return net.sample(n_rows, rng)


def best_of(fn, repeats: int = 3):
    """(best wall-clock seconds, last result) — min over repeats to shed
    scheduler noise."""
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _edge_set(graph):
    return {frozenset((u, v)) for u, v, _, _ in graph.edges()}


def measure(table, repeats: int = 3):
    """Old-vs-new skeleton wall clock on ``table`` (fresh test per run, so
    neither path carries a warm cache into the timing)."""
    nodes = table.dimensions
    t_old, r_old = best_of(
        lambda: learn_skeleton(nodes, CachedCITest(reference.ChiSquaredTest(table))),
        repeats,
    )
    t_new, r_new = best_of(
        lambda: learn_skeleton(nodes, CachedCITest(ChiSquaredTest(table))), repeats
    )
    parity = (
        _edge_set(r_old.graph) == _edge_set(r_new.graph)
        and r_old.sepsets == r_new.sepsets
    )
    return {"t_old": t_old, "t_new": t_new, "speedup": t_old / t_new, "parity": parity}


def run_experiment(repeats: int = 3) -> BenchTable:
    table = BenchTable(
        "CI engine — skeleton learning wall clock (old vs vectorized)",
        ["Workload", "Per-stratum χ²", "Vectorized engine", "Speedup", "Parity"],
    )
    for n_nodes, n_rows in [(N_NODES, N_ROWS), (12, 2500)]:
        data = make_workload(n_nodes, n_rows)
        m = measure(data, repeats)
        table.add_row(
            f"{n_nodes} nodes × {n_rows} rows",
            fmt_seconds(m["t_old"]),
            fmt_seconds(m["t_new"]),
            f"{m['speedup']:.1f}×",
            "identical" if m["parity"] else "MISMATCH",
        )
    table.note(
        f"best of {repeats} runs each; parity = identical skeleton edges and sepsets."
    )
    return table


class TestCIEngineSpeed:
    def test_speedup_at_least_3x_with_parity(self):
        m = measure(make_workload())
        print(
            f"\nskeleton {N_NODES}n/{N_ROWS}r: old={m['t_old']*1e3:.1f}ms "
            f"new={m['t_new']*1e3:.1f}ms speedup={m['speedup']:.1f}x"
        )
        assert m["parity"], "vectorized engine changed the skeleton or sepsets"
        append_trajectory(TRAJECTORY, {"bench": "ci_engine_speed", **m})
        assert m["speedup"] >= TARGET_SPEEDUP, (
            f"expected ≥{TARGET_SPEEDUP}× speedup, got {m['speedup']:.2f}×"
        )


if __name__ == "__main__":
    run_experiment().show()
