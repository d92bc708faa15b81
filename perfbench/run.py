"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload fit|hot|view --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see README.md):

* ``fit``  -- ``read_csv`` and ``fit_model`` of ``generate_flight(200_000,
  seed)`` in a fresh process;
* ``hot``  -- ``repro serve`` over a model of ``generate_flight(5_000,
  seed)``; one keep-alive connection repeats 48 single Why Queries;
* ``view`` -- ``repro serve`` over a model of ``generate_flight(200_000,
  seed)``; one keep-alive connection cycles ``explain_view`` over the 48
  one-dimension charts.

Every answer is checked against an in-process ``ExplainSession`` on the
same artifact and data.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` prints the per-layer metrics, the hot ladder and the tracing
overhead, and writes Chrome trace-event JSON under ``.perfbench-runs/``.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A wrong answer makes the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import traceback
from collections import defaultdict
from itertools import combinations
from pathlib import Path

import common
import ladder
from common import Spans, median, proc_hwm_mb, quantile
from serving import (
    EXPLAIN_PATH,
    MODEL_ID,
    STATS_PATH,
    TRACES_PATH,
    VIEW_PATH,
    Server,
    boot,
    closed_loop,
    http_call,
    post_bytes,
)

HERE = Path(__file__).resolve().parent

ROWS = {"fit": 200_000, "hot": 5_000, "view": 200_000}
TIMED_BOOTS = 3
IMPORT_PROBES = 3
FIT_READS = 3
#: Fits per run: at least this many on fit (which fits for ``--seconds``);
#: exactly this many on hot and view.
SERVING_FITS = {"fit": 3, "hot": 54, "view": 4}
#: Tables the fits go round.  A 5k-row fit's work swings with the data (its
#: seed-to-seed quartile spread was 0.18-0.25), and 27 fits over 9 tables
#: still spread by up to 0.29, so hot times two fits on each of 27 tables
#: drawn from the seed; the first is the one it serves.
FIT_TABLES = {"fit": 1, "hot": 27, "view": 1}
TRACED_FITS = 2
#: Whole passes over the distinct requests per slice of the timed window,
#: so every slice carries exactly the same work.
SLICE_PASSES = {"explain": 6, "view": 1}
TRACE_RING = 1 << 15
CHILD_TIMEOUT_S = 170

E2E_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "qps": "1/s",
    "cpu_ms_per_req": "ms",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "data.discretize_s": "s",
    "fd.detect_s": "s",
    "fd.edges": "count",
    "independence.ci_tests": "count",
    "independence.ci_cache_hits": "count",
    "discovery.skeleton_s": "s",
    "discovery.pdsep_s": "s",
    "discovery.orient_s": "s",
    "core.model_save_ms": "ms",
    "core.model_load_ms": "ms",
    "serve.import_s": "s",
    "serve.listen_s": "s",
    "serve.first_answer_ms": "ms",
    "data.store_open_ms": "ms",
    "core.session_build_s": "s",
    "core.session_explain_ms": "ms",
    "serve.service_explain_ms": "ms",
    "serve.server_p50_ms": "ms",
    "serve.queue_ms": "ms",
    "serve.flush_ms": "ms",
    "core.translation_ms": "ms",
    "core.homogeneity_ms": "ms",
    "core.workspace_ms": "ms",
    "core.search_ms": "ms",
    "core.workspace_hit_ratio": "ratio",
    "core.translation_hit_ratio": "ratio",
    "core.homogeneity_hit_ratio": "ratio",
    "core.workspace_entries": "count",
    "serve.batch_size_mean": "count",
    "serve.dedup_share": "ratio",
    "data.groupby_ms": "ms",
    "core.enumerate_ms": "ms",
    "core.summarize_ms": "ms",
    "core.pairs_per_view": "count",
    "core.session_view_ms": "ms",
    "serve.service_view_ms": "ms",
    "client.cpu_ms_per_req": "ms",
    "client.p99_ms": "ms",
}
#: Server span name -> per-layer metric (medians over the traced window).
SERVER_SPANS = {
    "queue": "serve.queue_ms",
    "flush": "serve.flush_ms",
    "translation": "core.translation_ms",
    "homogeneity": "core.homogeneity_ms",
    "workspace": "core.workspace_ms",
    "search": "core.search_ms",
}


def canonical(payload) -> str:
    return json.dumps(json.loads(json.dumps(payload)), sort_keys=True,
                      separators=(",", ":"), ensure_ascii=False)


# ---------------------------------------------------------------------------
# Inputs: everything generated from the seed before any timing starts
# ---------------------------------------------------------------------------


class Inputs:
    def __init__(self, workload: str, seed: int, work: Path) -> None:
        import numpy as np

        from repro.data.io import write_csv
        from repro.datasets.flight import generate_flight

        self.seed, self.work = seed, work
        self.table = generate_flight(ROWS[workload], seed)
        self.registry = work / "registry"
        self.model_dir = self.registry / MODEL_ID
        self.model_dir.mkdir(parents=True)
        self.artifact = self.model_dir / "1.json"
        self.store = self.model_dir / "data.store"
        self.table.to_store(self.store)
        self.fit_stores = [self.store]
        for k in range(1, FIT_TABLES[workload]):
            extra = work / f"fit-{k}.store"
            generate_flight(ROWS[workload], 1_000_000 + 100 * seed + k).to_store(extra)
            self.fit_stores.append(extra)
        # The fit workload reads a CSV; serving artifacts are fitted from
        # the store, as ``repro ingest`` then ``repro fit --store`` do.
        self.csv = None
        if workload == "fit":
            self.csv = work / "data.csv"
            write_csv(self.table, self.csv)
        self.queries = self._queries(np.random.default_rng([seed, 1]))
        self.charts = [
            {"by": [dim], "measure": measure, "agg": agg}
            for dim in self.table.dimensions
            for measure in self.table.measures
            for agg in ("AVG", "SUM")
        ]

    def _queries(self, rng) -> list[dict]:
        """Single-dimension sibling Why Queries drawn from every
        (dimension, value pair, measure, aggregate) with Δ ≠ 0: one per
        dimension, measure and search kind (AVG; SUM or COUNT).  The seed
        picks the value pair and SUM or COUNT; the mix stays the same, so
        the work per request does not swing with the seed."""
        from repro.data.groupby import group_by

        queries = []
        for dim in self.table.dimensions:
            for measure in self.table.measures:
                for aggs in (("AVG",), ("SUM", "COUNT")):
                    candidates = []
                    for agg in aggs:
                        groups = group_by(self.table, dim, measure, agg).groups
                        candidates += [
                            {"s1": {dim: a.key[0]}, "s2": {dim: b.key[0]},
                             "measure": measure, "agg": agg}
                            for a, b in combinations(groups, 2) if a.value != b.value
                        ]
                    queries.append(candidates[rng.integers(len(candidates))])
        return queries


def strata_of(specs: list[dict], key) -> list[list[int]]:
    """Indices of ``specs`` grouped by dimension, in dimension order."""
    groups: dict[str, list[int]] = {}
    for index, spec in enumerate(specs):
        groups.setdefault(key(spec), []).append(index)
    return list(groups.values())


def block_order(strata: list[list[int]], rng: random.Random):
    """Endless request order in blocks of one request per stratum.

    Each pass over the requests shuffles every stratum and deals one
    member of each into each block, and each block is shuffled.  Every
    block then carries the same mix of work, so a slice of whole blocks
    is a fair sample, whichever requests end up running side by side.
    """
    while True:
        columns = [rng.sample(members, len(members)) for members in strata]
        for block in zip(*columns):
            yield from rng.sample(block, len(block))


# ---------------------------------------------------------------------------
# The offline fit (fresh process)
# ---------------------------------------------------------------------------


def run_fit(inputs: Inputs, env: dict, *, reads: int, min_fits: int,
            seconds: float, traced_fits: int, chrome: Path | None) -> dict:
    source = (["--csv", str(inputs.csv)] if inputs.csv is not None
              else [arg for store in inputs.fit_stores for arg in ("--store", str(store))])
    argv = [
        sys.executable, str(HERE / "fitproc.py"), *source,
        "--out", str(inputs.artifact), "--query", json.dumps(inputs.queries[0]),
        "--reads", str(reads), "--min-fits", str(min_fits),
        "--seconds", str(seconds), "--traced-fits", str(traced_fits),
    ]
    if chrome is not None:
        argv += ["--chrome", str(chrome)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"fit process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_seconds(env: dict) -> list[float]:
    """``import repro.serve`` in fresh interpreters, timed inside each."""
    code = ("import time; t = time.perf_counter(); import repro.serve; "
            "print(time.perf_counter() - t)")
    out = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=CHILD_TIMEOUT_S)
        out.append(float(proc.stdout.strip()))
    return out


# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------


def get_json(server, path: str) -> dict:
    status, body = http_call(server.host, server.port, "GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(body)


def serve(inputs: Inputs, env: dict, kind: str, seconds: float, trace: bool,
          spans: Spans) -> dict:
    """Boot timings, an untimed warm-up pass and the timed window, on a
    server started exactly as an untraced run starts it.  A traced run then
    boots a second server with a trace ring that holds the whole window,
    runs the same window with a trace id on every request, and pulls that
    server's traces.  When the server stops answering, the window ends and
    the steps after it are skipped (``out["lost"]``)."""
    if kind == "view":
        path, specs = VIEW_PATH, inputs.charts
        bodies = [json.dumps({"view": c}).encode() for c in specs]
        strata = strata_of(specs, lambda c: c["by"][0])
    else:
        path, specs = EXPLAIN_PATH, inputs.queries
        bodies = [json.dumps({"query": q}).encode() for q in specs]
        strata = strata_of(specs, lambda q: next(iter(q["s1"])))
    requests = [post_bytes(path, body) for body in bodies]
    order = block_order(strata, random.Random(inputs.seed))
    per_slice = SLICE_PASSES[kind] * len(requests)
    probe = (EXPLAIN_PATH, json.dumps({"query": inputs.queries[0]}).encode())
    logs = inputs.work

    # One untimed boot first: bytecode compilation lands here, never in a
    # timed boot.
    warm_boot = boot(inputs.registry, logs / "server-0.log", env, probe)
    warm_boot.server.stop()
    boots = []
    for index in range(TIMED_BOOTS):
        booted = boot(inputs.registry, logs / f"server-{index + 1}.log", env, probe)
        parent = spans.add("serve.boot", booted.spawned, booted.answered, index)
        spans.add("serve.listen", booted.spawned, booted.listening, index, parent)
        spans.add("serve.first_answer", booted.listening, booted.answered,
                  index, parent)
        boots.append(booted)
        if index < TIMED_BOOTS - 1:
            booted.server.stop()
    out = {"boots": [warm_boot] + boots, "timed_boots": boots}

    def windows(server: Server, traced: bool) -> None:
        """The warm-up pass, then the timed window; both end early, and
        the rest is skipped, when the server is lost."""
        name = "traced" if traced else "window"
        out[f"{name}_warm"] = closed_loop(server, requests, order,
                                          per_slice=len(requests), slices=1)
        if out[f"{name}_warm"].lost:
            out["lost"] = True
            return
        if not traced:
            out["before"] = get_json(server, STATS_PATH)["stats"]
        prefix = f"bt{os.getpid()}" if traced else None
        out[name] = closed_loop(server, requests, order, per_slice=per_slice,
                                seconds=seconds, trace_prefix=prefix)
        if out[name].lost:
            out["lost"] = True
        elif traced:
            out["traces"] = [
                t for t in get_json(server, TRACES_PATH)["traces"]
                if t["trace_id"].startswith(prefix + "-")
            ]
            for n, sample in enumerate(out[name].samples):
                spans.add("client.http", sample.sent, sample.done,
                          request=f"{prefix}-{n}")
        else:
            out["after"] = get_json(server, STATS_PATH)["stats"]
            out["hwm_mb"] = proc_hwm_mb(server.pid)

    try:
        windows(boots[-1].server, traced=False)
    finally:
        boots[-1].server.stop()
    if trace and not out.get("lost"):
        traced = boot(inputs.registry, logs / "server-traced.log", env, probe,
                      TRACE_RING)
        out["boots"].append(traced)
        try:
            windows(traced.server, traced=True)
        finally:
            traced.server.stop()
    return out


def check_serving(inputs: Inputs, served: dict, kind: str) -> tuple[int, int]:
    """Compare every answer with an in-process session on the same
    artifact and data; returns (attempted, failed)."""
    from repro.core.model import XInsightModel
    from repro.core.reporting import report_to_dict
    from repro.core.session import ExplainSession
    from repro.data.query import query_from_spec
    from repro.data.table import Table

    model = XInsightModel.load(inputs.artifact)
    table = Table.from_store(inputs.store)
    session = ExplainSession(model, table)

    def report(spec: dict) -> str:
        return canonical(report_to_dict(session.explain(query_from_spec(spec, table))))

    probe_expected = report(inputs.queries[0])
    if kind == "view":
        expected = [canonical(session.explain_view(c).to_dict()) for c in inputs.charts]
        key = "summary"
    else:
        expected = [report(q) for q in inputs.queries]
        key = "report"

    attempted = failed = 0
    for booted in served["boots"]:
        attempted += 1
        failed += not (booted.status == 200 and
                       canonical(json.loads(booted.body)["report"]) == probe_expected)
    for name in ("window_warm", "window", "traced_warm", "traced"):
        for sample in served[name].samples if name in served else ():
            attempted += 1
            failed += not (sample.status == 200 and
                           canonical(json.loads(sample.body)[key]) == expected[sample.item])
    return attempted, failed


def window_metrics(window) -> dict:
    """``p50_ms``, ``qps`` and CPU per request are taken per slice of the
    window, then the median over slices, so a burst of contention on the
    machine moves one slice, not the run.

    ``p90_ms`` is the 90th percentile, over the workload's distinct
    requests, of each request's median latency in the window: how long the
    slowest tenth of the questions take.  The 90th percentile of all
    samples (``sample_p90_ms``) counts how often the host stalled the
    VM's vCPU: from a quiet to a busy phase of a shared 2-vCPU VM it rose
    by 34-49% on hot, this one by 10%.  The sample tail stays recorded as
    ``client.p99_ms``."""
    latencies, by_request = defaultdict(list), defaultdict(list)
    for sample in window.samples:
        latencies[sample.slice].append(sample.latency_ms)
        by_request[sample.item].append(sample.latency_ms)
    per_slice = defaultdict(list)
    for k, (start, end) in enumerate(zip(window.marks, window.marks[1:])):
        lat, n = latencies[k], len(latencies[k])
        per_slice["p50_ms"].append(median(lat))
        per_slice["qps"].append(n / (end[0] - start[0]))
        per_slice["cpu_ms_per_req"].append((end[1] - start[1]) * 1e3 / n)
        per_slice["client_cpu_ms_per_req"].append((end[2] - start[2]) * 1e3 / n)
    metrics = {name: median(values) for name, values in per_slice.items()}
    metrics["p90_ms"] = quantile([median(v) for v in by_request.values()], 0.90)
    every = [s.latency_ms for s in window.samples]
    metrics["sample_p90_ms"] = quantile(every, 0.90)
    metrics["p99_ms"] = quantile(every, 0.99)
    metrics["samples"] = len(every)
    metrics["slices"] = len(window.marks) - 1
    return metrics


def ratio(after: dict, before: dict, hits: str, misses: str) -> tuple[float, str]:
    h = after[hits] - before[hits]
    m = after[misses] - before[misses]
    return (h / (h + m) if h + m else 0.0), f"{h}/{h + m}"


def server_layers(served: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the server's stats and traced-window spans;
    returns (metrics, notes)."""
    before, after = served["before"], served["after"]
    cb, ca = before["cache"], after["cache"]
    metrics, notes = {}, {}
    for name, hits, misses in (
        ("core.workspace_hit_ratio", "workspace_hits", "workspace_misses"),
        ("core.translation_hit_ratio", "translation_hits", "translation_misses"),
        ("core.homogeneity_hit_ratio", "homogeneity_hits", "homogeneity_misses"),
    ):
        metrics[name], notes[name] = ratio(ca, cb, hits, misses)
    submitted = after["submitted"] - before["submitted"]
    batches = after["batches"] - before["batches"]
    deduped = after["deduped"] - before["deduped"]
    metrics["serve.batch_size_mean"] = submitted / batches
    notes["serve.batch_size_mean"] = f"{submitted} submitted / {batches} flushes"
    metrics["serve.dedup_share"] = deduped / submitted
    notes["serve.dedup_share"] = f"{deduped}/{submitted}"
    metrics["core.workspace_entries"] = ca["workspace_entries"]
    metrics["serve.server_p50_ms"] = after["latency_ms"]["p50"]
    notes["serve.server_p50_ms"] = f"{after['latency_ms']['count']} server samples"

    durations = defaultdict(list)

    def walk(node: dict) -> None:
        for child in node.get("children", ()):
            durations[child["name"]].append(child["duration_ms"])
            walk(child)

    for trace in served["traces"]:
        walk(trace["root"])
    for span, name in SERVER_SPANS.items():
        metrics[name] = median(durations[span])
        notes[name] = f"{len(durations[span])} spans"
    return metrics, notes


def server_chrome_events(traces: list[dict], wall_anchor: float) -> list[dict]:
    events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
               "args": {"name": "repro serve"}}]
    for row, trace in enumerate(traces, start=1):
        base_us = (trace["began_at"] - wall_anchor) * 1e6

        def emit(node: dict) -> None:
            events.append({
                "name": node["name"], "cat": "server", "ph": "X", "pid": 1,
                "tid": row, "ts": round(base_us + node["start_ms"] * 1e3, 3),
                "dur": round(node["duration_ms"] * 1e3, 3),
                "args": {"trace_id": trace["trace_id"], **node.get("tags", {})},
            })
            for child in node.get("children", ()):
                emit(child)

        emit(trace["root"])
    return events


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def run(args, work: Path, out_dir: Path | None) -> tuple:
    """Returns (end-to-end metrics, per-layer metrics, notes, attempted,
    failed, report lines)."""
    trace = bool(args.trace)
    spans = Spans(trace)
    env = common.child_env()
    inputs = Inputs(args.workload, args.seed, work)
    lines: list[str] = []
    fit = run_fit(
        inputs, env,
        reads=FIT_READS if args.workload == "fit" else 1,
        min_fits=SERVING_FITS[args.workload],
        seconds=args.seconds if args.workload == "fit" else 0.0,
        traced_fits=TRACED_FITS if trace else 0,
        chrome=out_dir / "fit.trace.json" if trace else None,
    )
    attempted = len(fit["read_s"]) + len(fit["fit_s"]) + len(fit["checks"])
    failed = sum(not ok for ok in fit["checks"].values())
    e2e = {"fit_s": median(fit["fit_s"])}
    layers = {}
    notes: dict[str, str] = {}

    if args.workload == "fit":
        # Each fit is one slice of the window, as in the serving workloads.
        fits = fit["fit_s"]
        e2e.update(
            setup_s=median(fit["read_s"]),
            p50_ms=median(fits) * 1e3,
            p90_ms=quantile(fits, 0.90) * 1e3,
            qps=median([1 / f for f in fits]),
            cpu_ms_per_req=median(fit["fit_cpu_s"]) * 1e3,
            peak_rss_mb=fit["hwm_mb"],
        )
        lines.append(f"fit: {len(fit['read_s'])} reads, {len(fits)} fits of "
                     f"{ROWS['fit']} rows over {sum(fits):.2f} s")
    if trace:
        layers.update(ladder.fit_layers(fit["profiles"], fit["save_ms"], fit["load_ms"]))
        layers["serve.import_s"] = median(import_seconds(env))
        plain, traced_fit = median(fit["paired_fit_s"]), median(fit["traced_fit_s"])
        fit_overhead = (
            f"fit tracing overhead: traced {traced_fit:.3f} s - untraced "
            f"{plain:.3f} s = {traced_fit - plain:+.3f} s (medians of "
            f"{TRACED_FITS} fits each, alternating, on the same table)"
        )
    if args.workload != "fit" or trace:
        kind = "view" if args.workload == "view" else "explain"
        served = serve(inputs, env, kind, args.seconds, trace, spans)
        a, f = check_serving(inputs, served, kind)
        attempted, failed = attempted + a, failed + f
        boots = served["timed_boots"]
        if args.workload != "fit":
            e2e["setup_s"] = median([b.setup_s for b in boots])
        if trace:
            layers["serve.listen_s"] = median([b.listen_s for b in boots])
            layers["serve.first_answer_ms"] = median(
                [b.first_answer_s for b in boots]) * 1e3
        if served.get("lost"):
            lines.append(f"{args.workload}: the server stopped answering; "
                         f"{a} answers checked, {f} failed")
            notes.update({name: "not measured: the server stopped answering"
                          for name in [*E2E_UNITS, *LAYER_UNITS]
                          if name not in e2e and name not in layers})
        else:
            w = window_metrics(served["window"])
            if args.workload != "fit":
                e2e.update(
                    p50_ms=w["p50_ms"], p90_ms=w["p90_ms"], qps=w["qps"],
                    cpu_ms_per_req=w["cpu_ms_per_req"],
                    peak_rss_mb=served["hwm_mb"],
                )
            unit = "charts" if kind == "view" else "explains"
            lines.append(f"{args.workload}: {w['samples']} {unit} in "
                         f"{w['slices']} slices, {served['window'].elapsed_s:.2f} s, "
                         f"over one keep-alive connection (90th percentile "
                         f"of all samples {w['sample_p90_ms']:.3f} ms); {a} "
                         f"answers checked, {f} failed")
    if trace and not served.get("lost"):
        server_metrics, server_notes = server_layers(served)
        layers.update(server_metrics)
        notes.update(server_notes)
        layers["client.cpu_ms_per_req"] = w["client_cpu_ms_per_req"]
        layers["client.p99_ms"] = w["p99_ms"]
        notes["client.p99_ms"] = f"{w['samples']} samples"
        from repro.core.model import XInsightModel

        layers.update(ladder.serving_layers(
            XInsightModel.load(inputs.artifact), inputs.store, inputs.queries,
            inputs.charts, spans,
        ))
        lines += ladder_lines(args.workload, layers, w,
                              window_metrics(served["traced"]))
        spans.write_chrome(
            out_dir / "bench.trace.json",
            server_chrome_events(served["traces"], spans.wall_anchor),
        )
    if trace:
        lines.append(fit_overhead)
    return e2e, layers, notes, attempted, failed, lines


def ladder_lines(workload: str, layers: dict, untraced: dict,
                 traced: dict) -> list[str]:
    """The explain ladder next to the untraced end-to-end p50, and the
    tracing overhead (traced window minus untraced window)."""
    overhead = [
        f"tracing overhead: traced p50 {traced['p50_ms']:.3f} ms - untraced "
        f"{untraced['p50_ms']:.3f} ms = {traced['p50_ms'] - untraced['p50_ms']:+.3f} ms",
        "  (untraced: a server booted as a --trace 0 run boots it; traced: a "
        f"server with --trace-ring {TRACE_RING}, a trace id on every request "
        "and a client span per request.  The HTTP front end traces every "
        "request into its default ring in both, so this is what a traced run "
        "adds, not the cost of that always-on tracing.)",
    ]
    if workload == "view":
        # A chart's latency spans 9-490 ms with its pair count, so each
        # layer's p50 falls on a different chart: differences are noise.
        return ["ladder: not on view; each layer's p50 is a different chart's",
                *overhead]
    session = layers["core.session_explain_ms"]
    service = layers["serve.service_explain_ms"]
    return [
        f"ladder (explain, p50 ms): "
        f"session {session:.3f} | service self {service - session:.3f} | "
        f"http+client self {untraced['p50_ms'] - service:.3f} | "
        f"end-to-end untraced p50_ms {untraced['p50_ms']:.3f}",
        *overhead,
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(ROWS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    common.require_source_tree()
    sys.path.insert(0, str(common.SRC))
    sys.pycache_prefix = str(common.PYCACHE)
    sys.dont_write_bytecode = False
    for name in common.PROGRAM_ENV:
        os.environ.pop(name, None)

    stamp = common.provenance(args.workload, args.seed, bool(args.trace))
    work = common.WORK_ROOT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = None
    if args.trace:
        out_dir = common.WORK_ROOT / f"trace-{args.workload}-{args.seed}"
        out_dir.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    try:
        e2e, layers, notes, attempted, failed, lines = run(args, work, out_dir)
    except Exception:  # a step that failed outright: a child process, a boot
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    chosen, units = (layers, LAYER_UNITS) if args.trace else (e2e, E2E_UNITS)
    metrics = {name: {"value": chosen[name], "unit": units[name]}
               for name in units if name in chosen}
    table = [f"{name:30s} {chosen[name]:>14.6g} {units[name]:6s} {notes.get(name, '')}"
             if name in chosen else f"{name:30s} {notes[name]}" for name in units]
    for line in lines + table:
        print(line)
    print("provenance " + json.dumps(stamp, sort_keys=True))
    if out_dir is not None:
        (out_dir / "layers.txt").write_text("\n".join(lines + table) + "\n")
        (out_dir / "result.json").write_text(json.dumps(
            {"provenance": stamp, "metrics": metrics}, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
