"""Benchmark support: timing and paper-style table rendering.

Every experiment module in ``benchmarks/`` produces one or more
:class:`BenchTable` objects that mirror the corresponding table/figure of
the paper; ``benchmarks/run_all.py`` collects them into EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


def time_call(fn: Callable[[], T]) -> tuple[T, float]:
    """Run ``fn`` once, returning (result, wall-clock seconds)."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def bench_env() -> dict:
    """The execution-environment stamp every ``BENCH_*.json`` entry carries.

    A trajectory number is meaningless without the parallelism it ran
    under: the worker count and executor kind (no harness asks for more
    than one worker) and how many CPUs the box actually had.
    """
    return {
        "workers": 1,
        "executor": "serial",
        "cpu_count": os.cpu_count() or 1,
    }


def append_trajectory(path: str | Path, entry: dict) -> dict:
    """Append one run to a ``BENCH_*.json`` trajectory (a JSON list).

    The shared writer for every benchmark harness: merges the
    :func:`bench_env` stamp into ``entry`` (explicit keys in ``entry``
    win), recovers from a missing or corrupt trajectory file, and returns
    the entry as written.
    """
    path = Path(path)
    stamped = {**bench_env(), **entry}
    history: list = []
    if path.exists():
        try:
            history = json.loads(path.read_text())
        except json.JSONDecodeError:
            history = []
    if not isinstance(history, list):
        history = []
    history.append(stamped)
    path.write_text(json.dumps(history, indent=2) + "\n")
    return stamped


@dataclass
class BenchTable:
    """A rendered experiment table (markdown-friendly)."""

    title: str
    header: list[str]
    rows: list[list[str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        self.rows.append([str(c) for c in cells])

    def note(self, text: str) -> None:
        self.notes.append(text)

    def to_markdown(self) -> str:
        widths = [
            max(len(self.header[i]), *(len(r[i]) for r in self.rows))
            if self.rows
            else len(self.header[i])
            for i in range(len(self.header))
        ]

        def fmt_row(cells: Sequence[str]) -> str:
            return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"

        lines = [f"### {self.title}", ""]
        lines.append(fmt_row(self.header))
        lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
        lines.extend(fmt_row(r) for r in self.rows)
        for note in self.notes:
            lines.append("")
            lines.append(f"*{note}*")
        return "\n".join(lines)

    def show(self) -> None:  # pragma: no cover - console convenience
        print(self.to_markdown())
        print()


def fmt_float(value: float, digits: int = 2) -> str:
    return f"{value:.{digits}f}"


def fmt_f1(value: float) -> str:
    """Paper convention: '✓' for a perfect F1."""
    return "✓" if value >= 0.999 else f"{value:.2f}"


def fmt_seconds(value: float) -> str:
    if value < 0.1:
        return f"{value:.3f}"
    return f"{value:.2f}"
