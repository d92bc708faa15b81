"""Tests for FD detection and the FD-induced graph (Ex. 2.4 CityInfo)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Table
from repro.errors import FDError
from repro.fd import (
    FD,
    build_fd_graph,
    fd_graph_from_table,
    fd_violations,
    find_functional_dependencies,
    holds,
)


def cityinfo() -> Table:
    cities = ["sf", "la", "nyc", "buf", "par", "lyo"]
    states = {"sf": "CA", "la": "CA", "nyc": "NY", "buf": "NY", "par": "IDF", "lyo": "ARA"}
    countries = {"CA": "US", "NY": "US", "IDF": "FR", "ARA": "FR"}
    rng = np.random.default_rng(0)
    picks = rng.choice(cities, size=200).tolist()
    return Table.from_columns(
        {
            "City": picks,
            "State": [states[c] for c in picks],
            "Country": [countries[states[c]] for c in picks],
        }
    )


class TestDetection:
    def test_cityinfo_fds(self):
        fds = set(find_functional_dependencies(cityinfo(), max_key_fraction=1.0))
        assert FD("City", "State") in fds
        assert FD("City", "Country") in fds
        assert FD("State", "Country") in fds
        assert FD("Country", "State") not in fds
        assert FD("State", "City") not in fds

    def test_violations_counted(self):
        t = Table.from_columns(
            {"X": ["a", "a", "a", "b"], "Y": ["1", "1", "2", "3"]}
        )
        assert fd_violations(t, "X", "Y") == 1
        assert not holds(t, "X", "Y")
        assert holds(t, "X", "Y", tolerance=0.3)

    def test_self_fd_rejected(self):
        with pytest.raises(FDError):
            holds(cityinfo(), "City", "City")

    def test_bad_tolerance_rejected(self):
        with pytest.raises(FDError):
            holds(cityinfo(), "City", "State", tolerance=1.5)

    def test_measure_attribute_rejected(self):
        t = Table.from_columns({"d": ["a", "b"], "m": [1.0, 2.0]})
        with pytest.raises(FDError):
            find_functional_dependencies(t, ["d", "m"])

    def test_key_columns_skipped_as_lhs(self):
        t = Table.from_columns(
            {"id": [f"r{i}" for i in range(10)], "v": ["a", "b"] * 5}
        )
        fds = find_functional_dependencies(t)  # default max_key_fraction
        assert all(fd.lhs != "id" for fd in fds)

    def test_constant_columns_ignored(self):
        t = Table.from_columns({"c": ["k"] * 6, "v": ["a", "b", "a", "b", "a", "b"]})
        assert find_functional_dependencies(t) == []

    def test_one_to_one_fd_found_both_ways(self):
        t = Table.from_columns(
            {"code": ["x1", "x2", "x1"], "name": ["one", "two", "one"]}
        )
        fds = set(find_functional_dependencies(t, max_key_fraction=1.0))
        assert FD("code", "name") in fds and FD("name", "code") in fds


class TestFDGraph:
    def test_cityinfo_graph_structure(self):
        g = fd_graph_from_table(cityinfo())
        assert g.has_fd("City", "State")
        assert g.has_fd("State", "Country")
        assert g.has_fd("City", "Country")
        assert set(g.fd_nodes) == {"State", "Country"}
        assert set(g.root_nodes) == {"City"}

    def test_one_to_one_cycle_collapsed_to_representative(self):
        fds = [FD("a", "b"), FD("b", "a"), FD("a", "c")]
        g = build_fd_graph(("a", "b", "c"), fds, {"a": 2, "b": 2, "c": 2})
        # 'a' < 'b' by name tie-break: b dropped.
        assert g.redundant == {"b": "a"}
        assert g.has_fd("a", "c")
        assert "b" not in g.nodes

    def test_representative_prefers_low_cardinality(self):
        fds = [FD("hi", "lo"), FD("lo", "hi")]
        g = build_fd_graph(("hi", "lo"), fds, {"hi": 10, "lo": 2})
        assert g.redundant == {"hi": "lo"}

    def test_cycles_collapse_beside_a_chain(self):
        # A three-cycle a→b→c→a feeding the chain c→d→g, plus a two-cycle e⇄f.
        fds = [
            FD("a", "b"), FD("b", "c"), FD("c", "a"), FD("c", "d"),
            FD("e", "f"), FD("f", "e"), FD("d", "g"),
        ]
        cards = {"a": 3, "b": 2, "c": 2, "d": 5, "e": 4, "f": 4, "g": 1}
        g = build_fd_graph("abcdefg", fds, cards)
        assert g.redundant == {"a": "b", "c": "b", "f": "e"}
        assert g.dependencies == (FD("b", "d"), FD("d", "g"))
        assert g.nodes == ("b", "d", "e", "g")

    def test_unknown_attribute_rejected(self):
        with pytest.raises(FDError):
            build_fd_graph(("a",), [FD("a", "zzz")])

    def test_isolated_nodes_kept(self):
        g = build_fd_graph(("a", "b", "free"), [FD("a", "b")])
        assert "free" in g.nodes
        assert "free" in g.root_nodes

    def test_empty_graph(self):
        g = build_fd_graph(("a", "b"), [])
        assert g.is_empty
        assert g.fd_nodes == ()


def test_serving_and_cli_import_no_networkx():
    """``import repro`` needs only numpy and scipy (setup.py's
    ``install_requires``, CI's install line)."""
    code = "import sys, repro.serve, repro.cli; print('networkx' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@given(
    n_rows=st.integers(min_value=20, max_value=120),
    seed=st.integers(min_value=0, max_value=9999),
)
@settings(max_examples=40, deadline=None)
def test_detected_fds_always_hold_exactly(n_rows, seed):
    """Property: every reported FD has zero violations at tolerance 0."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 4, size=n_rows)
    derived = (base // 2).astype(int)  # deterministic function of base
    noise = rng.integers(0, 3, size=n_rows)
    t = Table.from_columns(
        {
            "base": [f"b{v}" for v in base],
            "derived": [f"d{v}" for v in derived],
            "noise": [f"n{v}" for v in noise],
        }
    )
    fds = find_functional_dependencies(t, max_key_fraction=1.0)
    assert FD("base", "derived") in fds
    for fd in fds:
        assert fd_violations(t, fd.lhs, fd.rhs) == 0
