"""Shared test fixtures and dataset builders.

Centralizes the ad-hoc builders that used to be copy-pasted across
``test_discovery_*.py`` and ``test_independence.py``: the binary chain
table, the m-separation oracle factory and the random parent-map
generator.  All randomness is seeded from ``GLOBAL_SEED`` so runs are
reproducible.
"""

import numpy as np
import pytest

from repro.data import Table
from repro.graph import MixedGraph, dag_from_parents
from repro.independence import OracleCITest
from repro.parallel import ProcessExecutor

GLOBAL_SEED = 0


def make_chain_table(n: int = 4000, seed: int = GLOBAL_SEED) -> Table:
    """X -> M -> Y chain of binary variables with strong dependence, plus
    an independent noise column W."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, size=n)
    m = np.where(rng.random(n) < 0.9, x, 1 - x)
    y = np.where(rng.random(n) < 0.9, m, 1 - m)
    w = rng.integers(0, 2, size=n)
    return Table.from_columns(
        {
            "X": [str(v) for v in x],
            "M": [str(v) for v in m],
            "Y": [str(v) for v in y],
            "W": [str(v) for v in w],
        }
    )


def oracle_for(parent_map: dict) -> OracleCITest:
    """An m-separation oracle on the DAG described by ``parent_map``."""
    return OracleCITest(dag_from_parents(parent_map))


def random_parent_map(rng: np.random.Generator, n: int, p: float) -> dict:
    """Random topologically-ordered parent map over nodes v0..v{n-1}."""
    names = [f"v{i}" for i in range(n)]
    return {
        names[j]: [names[i] for i in range(j) if rng.random() < p]
        for j in range(n)
    }


def random_dag_graph(seed: int, n: int, p: float = 0.4) -> MixedGraph:
    """Random DAG as a MixedGraph (seeded)."""
    rng = np.random.default_rng(seed)
    return dag_from_parents(random_parent_map(rng, n, p))


@pytest.fixture(scope="session")
def chain_table() -> Table:
    """The default 4000-row chain table (session-scoped: built once)."""
    return make_chain_table()


@pytest.fixture(scope="session")
def small_chain_table() -> Table:
    """A 500-row chain table for cache/counter tests."""
    return make_chain_table(500)


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh, deterministically seeded generator per test."""
    return np.random.default_rng(GLOBAL_SEED)


@pytest.fixture(scope="module")
def process_pair():
    """One 2-worker process pool per test module (pool start-up dominates
    the small parity workloads; sharing it keeps tier-1 fast)."""
    with ProcessExecutor(2) as ex:
        yield ex
