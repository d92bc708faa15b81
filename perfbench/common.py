"""Shared helpers of the benchmark: paths, statistics, /proc readers,
provenance stamping and the benchmark's own span recorder."""

from __future__ import annotations

import datetime
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

#: The checkout the benchmark runs from (its working directory).
ROOT = Path.cwd()
SRC = ROOT / "src"
#: Per-run scratch space and kept outputs, ignored by git.
WORK_ROOT = ROOT / ".perfbench-runs"

#: Environment variables that change what the program does: the first
#: picks the executor, the second arms fault injection.  Stripped from the
#: benchmark's own process and from every process it starts.
PROGRAM_ENV = ("REPRO_WORKERS", "REPRO_FAULTS")
#: Bytecode cache the benchmark owns (``PYTHONPYCACHEPREFIX``), so boots
#: never depend on the state of the checkout's ``__pycache__``.  Each run
#: boots once untimed before timing, so compilation never lands in a
#: timed boot.
PYCACHE = WORK_ROOT / "pycache"

CLK_TCK = os.sysconf("SC_CLK_TCK")


def require_source_tree() -> None:
    """Exit with status 2 when the checkout holds no ``src/repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {SRC}/repro", file=sys.stderr)
        raise SystemExit(2)


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts: the checkout's
    sources first on the path and the benchmark's own bytecode cache."""
    env = {k: v for k, v in os.environ.items() if k not in PROGRAM_ENV}
    # Bytecode must be writable, or every boot compiles from source.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    return env


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Nearest-rank quantile (the server's own definition)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


# ---------------------------------------------------------------------------
# /proc readers (Linux)
# ---------------------------------------------------------------------------


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of a process, all threads."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields after the command name start at field 3 (state).
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def proc_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def provenance(workload: str, seed: int, trace: bool) -> dict:
    """Where and on what a result was measured."""
    sha, dirty = None, None
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

        def git(*args: str) -> str:
            return subprocess.run(
                ["git", *args], cwd=ROOT, env=env, capture_output=True,
                text=True, check=True, timeout=30,
            ).stdout.strip()

        try:
            sha = git("rev-parse", "HEAD")
            dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.SubprocessError):
            sha, dirty = None, None
    import numpy
    import scipy

    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "workload": workload,
        "trace": trace,
    }


# ---------------------------------------------------------------------------
# The benchmark's own spans
# ---------------------------------------------------------------------------


class Spans:
    """In-memory span recorder around the public calls the benchmark makes.

    Each span has a name, start, end, parent span and a request id; they
    are written once, as Chrome trace-event JSON, when the run ends.  A
    disabled recorder (untraced runs) records nothing.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.anchor = time.perf_counter()
        self.wall_anchor = time.time()
        self.records: list[tuple] = []
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float, request=None,
            parent: int | None = None) -> int:
        """Record a span timed by the caller; returns its id."""
        if not self.enabled:
            return -1
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.records.append((name, start, end, parent, request))
        return len(self.records) - 1

    def span(self, name: str, request=None):
        return _SpanScope(self, name, request)

    def chrome_events(self) -> list[dict]:
        events = [{"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
                   "args": {"name": "benchmark"}}]
        for index, (name, start, end, parent, request) in enumerate(self.records):
            events.append({
                "name": name, "cat": "perfbench", "ph": "X", "pid": 0, "tid": 0,
                "ts": round((start - self.anchor) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": index, "parent": parent, "request": request},
            })
        return events

    def write_chrome(self, path: Path, extra_events: list[dict] = ()) -> None:
        payload = {
            "traceEvents": self.chrome_events() + list(extra_events),
            "displayTimeUnit": "ms",
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


class _SpanScope:
    def __init__(self, spans: Spans, name: str, request) -> None:
        self.spans, self.name, self.request = spans, name, request
        self.elapsed = 0.0

    def __enter__(self) -> "_SpanScope":
        self.start = time.perf_counter()
        if self.spans.enabled:
            self.index = self.spans.add(self.name, self.start, self.start,
                                        self.request)
            self.spans._stack.append(self.index)
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        self.elapsed = end - self.start
        if self.spans.enabled:
            self.spans._stack.pop()
            name, start, _, parent, request = self.spans.records[self.index]
            self.spans.records[self.index] = (name, start, end, parent, request)
