"""Parallel execution subsystem: serial/process executors + deterministic shards.

Used by both phases of the pipeline: skeleton learning shards each
PC-stable depth's CI-probe batch across workers, and the serving layer
fans ``explain_batch`` query streams out over one shared model artifact.
See :mod:`repro.parallel.executor` for how the worker count picks the
executor and :mod:`repro.parallel.plan` for the determinism guarantees.
"""

from repro.parallel.executor import (
    REPRO_WORKERS_ENV,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ShardTask,
    default_workers,
    executor_scope,
    make_executor,
)
from repro.parallel.plan import Shard, plan_shards, split

__all__ = [
    "Executor",
    "ProcessExecutor",
    "REPRO_WORKERS_ENV",
    "SerialExecutor",
    "Shard",
    "ShardTask",
    "default_workers",
    "executor_scope",
    "make_executor",
    "plan_shards",
    "split",
]
