"""Parallel speed harness: sharded skeleton discovery vs the serial path.

The ISSUE 3 workload — a 12-node / 20k-row discrete synthetic table —
timed under serial skeleton learning and under the sharded per-depth probe
batches of :mod:`repro.parallel` with 4 process workers.  Asserts parity
of the learned skeleton/sepsets unconditionally and a ≥ 2× wall-clock
speedup for the process executor; the speedup assertion needs real cores,
so it is skipped (after the trajectory entry is recorded with the honest
``cpu_count``) on boxes with fewer than 4 CPUs, where a parallel win is
physically impossible.

Every run appends to ``benchmarks/BENCH_parallel.json`` via the shared
:func:`repro.bench.append_trajectory` helper, which stamps workers,
executor kind, and CPU count.

Opt-in (tier-1 excludes ``slow``):

    PYTHONPATH=src python -m pytest benchmarks/test_parallel_speed.py -m slow -q -s

or render the markdown table directly::

    PYTHONPATH=src python benchmarks/test_parallel_speed.py
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bench import BenchTable, append_trajectory, fmt_seconds
from repro.datasets.random_graphs import BayesNet, random_dag
from repro.discovery import learn_skeleton
from repro.independence import CachedCITest, ChiSquaredTest
from repro.parallel import ProcessExecutor

pytestmark = pytest.mark.slow

N_NODES = 12
N_ROWS = 20_000
SEED = 11
WORKERS = 4
TARGET_SPEEDUP = 2.0
TRAJECTORY = Path(__file__).parent / "BENCH_parallel.json"


def make_workload(n_nodes: int = N_NODES, n_rows: int = N_ROWS, seed: int = SEED):
    rng = np.random.default_rng(seed)
    dag = random_dag(n_nodes, 0.3, rng)
    net = BayesNet.random(dag, rng, cardinality=3, dirichlet_alpha=0.5)
    return net.sample(n_rows, rng)


def _timed_skeleton(table, executor=None):
    """One cold-cache skeleton run; returns (seconds, SkeletonResult)."""
    ci_test = CachedCITest(ChiSquaredTest(table))
    start = time.perf_counter()
    result = learn_skeleton(table.dimensions, ci_test, executor=executor)
    return time.perf_counter() - start, result


def measure(table, workers: int = WORKERS) -> dict:
    t_serial, serial = _timed_skeleton(table)
    with ProcessExecutor(workers) as ex:
        t_process, processed = _timed_skeleton(table, executor=ex)
    parity = serial.graph == processed.graph and serial.sepsets == processed.sepsets
    return {
        "n_nodes": len(table.dimensions),
        "n_rows": table.n_rows,
        "t_serial": t_serial,
        "t_process": t_process,
        "speedup_process": t_serial / t_process,
        "parity": parity,
    }


def run_experiment(workers: int = WORKERS) -> BenchTable:
    table_out = BenchTable(
        "Parallel discovery — sharded skeleton learning vs serial",
        ["Workload", "Serial", f"Process×{workers}", "Process speedup", "Parity"],
    )
    m = measure(make_workload())
    table_out.add_row(
        f"{m['n_nodes']} nodes × {m['n_rows']} rows",
        fmt_seconds(m["t_serial"]),
        fmt_seconds(m["t_process"]),
        f"{m['speedup_process']:.1f}×",
        "identical" if m["parity"] else "MISMATCH",
    )
    table_out.note(
        f"cold cache per run; {os.cpu_count()} CPU(s) available; per-depth "
        "probe batches sharded into balanced contiguous slices and replayed "
        "in sequential visit order."
    )
    return table_out


class TestParallelSpeed:
    def test_process_speedup_with_parity(self):
        m = measure(make_workload())
        print(
            f"\nparallel skeleton {m['n_nodes']}n/{m['n_rows']}r: "
            f"serial={m['t_serial']:.2f}s process={m['t_process']:.2f}s "
            f"speedup={m['speedup_process']:.2f}x on {os.cpu_count()} CPU(s)"
        )
        assert m["parity"], "sharded discovery changed the skeleton or sepsets"
        append_trajectory(
            TRAJECTORY,
            {"bench": "parallel_skeleton", **m},
            workers=WORKERS,
            executor="process",
        )
        cpus = os.cpu_count() or 1
        if cpus < WORKERS:
            pytest.skip(
                f"speedup assertion needs ≥{WORKERS} CPUs, have {cpus} "
                "(parity checked, trajectory recorded)"
            )
        assert m["speedup_process"] >= TARGET_SPEEDUP, (
            f"expected ≥{TARGET_SPEEDUP}× with {WORKERS} process workers, "
            f"got {m['speedup_process']:.2f}×"
        )


if __name__ == "__main__":
    run_experiment().show()
