"""Command-line interface: XInsight on CSV files.

Usage examples::

    python -m repro fds data.csv
    python -m repro discover data.csv --algorithm xlearner
    python -m repro groupby data.csv --by Location --measure LungCancer
    python -m repro ingest data.csv --out data.store
    python -m repro fit --store data.store --out model.json
    python -m repro fit data.csv --out model.json --trace fit-trace.json
    python -m repro inspect model.json
    python -m repro explain data.csv --model model.json \\
        --s1 Location=A --s2 Location=B --measure LungCancer --agg AVG --top 5
    python -m repro batch-explain data.csv --model model.json \\
        --queries queries.json
    python -m repro serve data.csv --model model.json --port 8765 \\
        --max-batch 64 --workers 4
    python -m repro serve --registry models/ --port 8765 --http-port 8080 \\
        --max-models 4

``ingest`` persists a CSV as a memmap-able column store (one directory:
per-column ``.npy`` + a JSON manifest); every command that reads data
accepts ``--store DIR`` in place of the CSV positional to serve from the
zero-copy mapping instead (``--chunk-rows N`` streams kernels over bounded
row slices for larger-than-RAM tables).
``fit`` runs the heavy offline phase once and persists the artifact (it
alone takes the offline-phase flags ``--bins``, ``--alpha``,
``--max-depth`` and ``--max-dsep-size``); ``explain`` / ``batch-explain``
/ ``explain-view`` serve queries against it (``--model`` is required),
and ``serve`` boots the asyncio micro-batching server of
:mod:`repro.serve` over one ``--model`` or a ``--registry`` (JSON-lines
over TCP; drain with SIGINT/SIGTERM).
``batch-explain``, ``explain-view`` and ``serve`` accept ``--workers N``
to shard query serving across N process workers (default: the
``REPRO_WORKERS`` env, else serial); ``fit`` runs in one process.  The
batch query file is a JSON list of objects like
``{"s1": {"Location": "A"}, "s2": {"Location": "B"},
"measure": "LungCancer", "agg": "AVG"}`` — the same spec one wire
``explain`` request carries.

``inspect`` prints a saved artifact's learned content and the persisted
fit profile (per-phase and per-skeleton-depth timings); ``fit --trace``
and ``serve --trace-dir`` export Chrome trace-event timelines, and the
global ``--log-level`` / ``--log-json`` flags control the structured
``repro`` logs (every record carries the active trace id).

Assignments use ``Dimension=value``; value strings are matched against the
raw CSV cells (numbers are parsed like the loader does).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import logging
import sys
import time
from typing import Sequence

from repro import obs
from repro.core.model import (
    DEFAULT_ALPHA,
    DEFAULT_MAX_DSEP_SIZE,
    DEFAULT_MEASURE_BINS,
    XInsightModel,
    check_fit_knobs,
    fit_model,
)
from repro.core.session import ExplainSession, XInsightReport
from repro.data.aggregates import parse_aggregate
from repro.data.filters import Subspace
from repro.data.groupby import group_by
from repro.data.io import read_csv
from repro.data.query import WhyQuery, parse_assignment, query_from_spec
from repro.data.store import DEFAULT_CHUNK_ROWS
from repro.data.table import Table
from repro.errors import ReproError
from repro.fd.graph import fd_graph_from_table
from repro.graph.render import edge_list
from repro.parallel import REPRO_WORKERS_ENV
from repro.serve import (
    DEFAULT_HOST,
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_MODELS,
    DEFAULT_PORT,
    DEFAULT_QUEUE_LIMIT,
    DEFAULT_TRACE_RING,
    ExplanationService,
    ModelRegistry,
    run_stack,
)

LOG = logging.getLogger("repro.cli")


def _subspace(assignments: Sequence[str], table: Table) -> Subspace:
    pairs = dict(parse_assignment(a, table) for a in assignments)
    return Subspace.of(**{str(k): v for k, v in pairs.items()})


def _add_store_flags(parser: argparse.ArgumentParser) -> None:
    """Data-source flags: the CSV positional becomes optional next to
    ``--store`` (exactly one of the two must be given)."""
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="read the data from an ingested column store (zero-copy memmap) "
        "instead of a CSV file",
    )
    parser.add_argument(
        "--chunk-rows", type=int, default=None, metavar="N",
        nargs="?", const=DEFAULT_CHUNK_ROWS,
        help="stream chunk-wise kernels over N-row slices of the mapped "
        "store (for tables larger than RAM); bare --chunk-rows uses the "
        f"default slice of {DEFAULT_CHUNK_ROWS} rows; requires --store",
    )


def _table_for(args: argparse.Namespace) -> Table:
    """The input table: the ``--store`` mapping or the CSV positional."""
    store = getattr(args, "store", None)
    file = getattr(args, "file", None)
    if store and file:
        raise ReproError("give either a CSV file or --store, not both")
    if store:
        return Table.from_store(store, chunk_rows=args.chunk_rows)
    if not file:
        raise ReproError("give a CSV file or --store DIR")
    if getattr(args, "chunk_rows", None):
        raise ReproError("--chunk-rows only applies to a --store mapping")
    try:
        return read_csv(file)
    except (OSError, UnicodeDecodeError) as exc:
        raise ReproError(f"cannot read CSV file {file}: {exc}") from exc


def _add_parallel_flags(parser: argparse.ArgumentParser) -> None:
    """Parallel-serving flag (see repro.parallel): the worker count."""
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="shard queries across N process workers; 1 runs serial "
        f"(default: the {REPRO_WORKERS_ENV} env, else serial)",
    )


def _print_report(report: XInsightReport, session: ExplainSession, top: int) -> bool:
    print(report.query.describe(session.graph_table))
    if not report.explanations:
        print("no explanations found (try a larger ε or more data)")
        return False
    print(f"{'type':<12} {'factor':<16} {'predicate':<44} responsibility")
    for explanation in report.top(top):
        print(
            f"{explanation.type.value:<12} {explanation.attribute:<16} "
            f"{str(explanation.predicate):<44} {explanation.responsibility:.2f}"
        )
    return True


def cmd_fds(args: argparse.Namespace) -> int:
    table = _table_for(args)
    fd_graph = fd_graph_from_table(table, tolerance=args.tolerance)
    if fd_graph.is_empty:
        print("no functional dependencies found")
        return 0
    for fd in fd_graph.dependencies:
        print(fd)
    for dropped, kept in sorted(fd_graph.redundant.items()):
        print(f"(redundant: {dropped} ≡ {kept})")
    return 0


def cmd_discover(args: argparse.Namespace) -> int:
    check_fit_knobs(args.alpha, args.max_depth)
    table = _table_for(args)
    if args.algorithm == "xlearner":
        from repro.core.xlearner import xlearner

        graph = xlearner(table, alpha=args.alpha, max_depth=args.max_depth).pag
    elif args.algorithm == "fci":
        from repro.discovery.fci import fci_from_table

        graph = fci_from_table(table, alpha=args.alpha, max_depth=args.max_depth).pag
    else:
        from repro.discovery.pc import pc_from_table

        graph = pc_from_table(
            table, alpha=args.alpha, max_depth=args.max_depth
        ).cpdag
    for line in edge_list(graph):
        print(line)
    return 0


def cmd_groupby(args: argparse.Namespace) -> int:
    table = _table_for(args)
    result = group_by(table, args.by, args.measure, parse_aggregate(args.agg))
    print(f"{args.agg.upper()}({args.measure}) by {args.by}:")
    for grp in result.groups:
        key = ", ".join(str(k) for k in grp.key)
        print(f"  {key:<24} {grp.value:>12.4g}  (n={grp.count})")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    """Persist a CSV as a zero-copy column store (ingest → fit → serve)."""
    started = time.perf_counter()
    table = _table_for(args)
    store = table.to_store(args.out, force=args.force)
    dims = len(store.dimensions)
    seconds = round(time.perf_counter() - started, 3)
    print(
        f"ingested {store.n_rows} rows into {store.path}: "
        f"{dims} dimension(s), {len(store.measures)} measure(s) "
        f"({len(store.columns)} mapped column file(s))"
    )
    LOG.info(
        "ingest complete",
        extra={
            "event": "ingest_complete",
            "rows": store.n_rows,
            "columns": len(store.columns),
            "seconds": seconds,
            "out": str(store.path),
        },
    )
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    check_fit_knobs(args.alpha, args.max_depth, args.max_dsep_size)
    table = _table_for(args)
    print("fitting the offline phase ...", file=sys.stderr)
    started = time.perf_counter()
    trace = obs.Trace(name="fit") if args.trace else None
    with obs.activate(trace):
        model = fit_model(
            table,
            measure_bins=args.bins,
            alpha=args.alpha,
            max_depth=args.max_depth,
            max_dsep_size=args.max_dsep_size,
        )
    path = model.save(args.out)
    if trace is not None:
        trace.finish()
        trace.write_chrome_trace(args.trace)
        print(f"wrote fit trace to {args.trace}", file=sys.stderr)
    seconds = round(time.perf_counter() - started, 3)
    print(
        f"saved model to {path}: {model.pag.n_nodes} nodes, "
        f"{model.pag.n_edges} edges, {len(model.fd_graph.dependencies)} FDs, "
        f"{len(model.bin_specs)} discretized measure(s)"
    )
    LOG.info(
        "fit complete",
        extra={
            "event": "fit_complete",
            "rows": table.n_rows,
            "columns": len(model.columns),
            "seconds": seconds,
            "out": str(path),
        },
    )
    return 0


def _format_seconds(seconds: float) -> str:
    return f"{seconds * 1000:.1f} ms" if seconds < 1 else f"{seconds:.2f} s"


def cmd_inspect(args: argparse.Namespace) -> int:
    """Describe a saved model artifact: learned content + fit profile."""
    model = XInsightModel.load(args.model)
    print(
        f"{args.model}: {model.pag.n_nodes} nodes, {model.pag.n_edges} edges, "
        f"{len(model.fd_graph.dependencies)} FDs, "
        f"{len(model.bin_specs)} discretized measure(s)"
    )
    print(f"fingerprint: {model.fingerprint()}")
    print(
        f"fit parameters: alpha={model.alpha} max_depth={model.max_depth} "
        f"max_dsep_size={model.max_dsep_size} measure_bins={model.measure_bins}"
    )
    profile = model.fit_profile
    if not profile:
        print("no fit profile recorded (artifact predates profiling)")
        return 0
    print(
        f"fit profile: {profile.get('rows', '?')} rows, "
        f"{profile.get('columns', '?')} variables, "
        f"{_format_seconds(profile.get('total_seconds', 0.0))} total"
    )
    for phase in profile.get("phases", []):
        detail = ", ".join(
            f"{key}={value}"
            for key, value in phase.items()
            if key not in ("name", "seconds", "phases")
        )
        print(
            f"  {phase['name']:<16} {_format_seconds(phase.get('seconds', 0.0)):>12}"
            + (f"  ({detail})" if detail else "")
        )
        for sub in phase.get("phases", []):
            sub_detail = ", ".join(
                f"{key}={value}"
                for key, value in sub.items()
                if key not in ("name", "seconds")
            )
            print(
                f"    {sub['name']:<14} {_format_seconds(sub.get('seconds', 0.0)):>12}"
                + (f"  ({sub_detail})" if sub_detail else "")
            )
    depths = profile.get("skeleton_depths", [])
    if depths:
        print("  skeleton depths:")
        for entry in depths:
            extras = ", ".join(
                f"{key}={value}"
                for key, value in entry.items()
                if key not in ("depth", "seconds")
            )
            print(
                f"    depth {entry['depth']}: "
                f"{_format_seconds(entry.get('seconds', 0.0))} ({extras})"
            )
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    table = _table_for(args)
    s1 = _subspace(args.s1, table)
    s2 = _subspace(args.s2, table)
    query = WhyQuery.create(s1, s2, args.measure, parse_aggregate(args.agg))
    session = XInsightModel.load(args.model).session(table)
    report = session.explain(query)
    return 0 if _print_report(report, session, args.top) else 1


def _load_query_specs(path: str) -> list:
    """Read a batch query file, turning every malformation — unreadable
    file, empty file, invalid JSON, wrong top-level shape — into a typed
    :class:`ReproError` (never a traceback)."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ReproError(f"cannot read query file {path}: {exc}") from exc
    if not raw.strip():
        raise ReproError(f"query file {path} is empty (expected a JSON list)")
    try:
        specs = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ReproError(f"query file {path} is not valid JSON: {exc}") from exc
    if not isinstance(specs, list) or not specs:
        raise ReproError("query file must hold a non-empty JSON list of queries")
    return specs


def cmd_batch_explain(args: argparse.Namespace) -> int:
    table = _table_for(args)
    specs = _load_query_specs(args.queries)
    queries = [query_from_spec(spec, table) for spec in specs]
    session = XInsightModel.load(args.model).session(table)
    reports = session.explain_batch(queries, workers=args.workers)
    answered = 0
    for i, report in enumerate(reports, start=1):
        print(f"--- query {i}/{len(reports)} ---")
        answered += _print_report(report, session, args.top)
    info = session.cache_info()
    print(
        f"answered {answered}/{len(reports)} queries "
        f"(translation cache: {info['translation_hits']} hits / "
        f"{info['translation_misses']} misses)",
        file=sys.stderr,
    )
    return 0 if answered == len(reports) else 1


def cmd_explain_view(args: argparse.Namespace) -> int:
    """Summarize a whole group-by view: one ranked, deduplicated report
    covering every sibling comparison the chart affords."""
    from repro.core.view import view_from_spec, view_summary_to_markdown

    table = _table_for(args)
    view = view_from_spec(
        {"by": args.by, "measure": args.measure, "agg": args.agg}, table
    )
    session = XInsightModel.load(args.model).session(table)
    summary = session.explain_view(
        view, orientation=args.orientation, workers=args.workers
    )
    print(view_summary_to_markdown(summary, top=args.top))
    info = session.cache_info()
    ok = sum(1 for pair in summary.pairs if pair.error is None)
    print(
        f"explained {ok}/{len(summary.pairs)} pair(s) "
        f"(workspace cache: {info['workspace_hits']} hits / "
        f"{info['workspace_misses']} misses)",
        file=sys.stderr,
    )
    return 0 if ok == len(summary.pairs) else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Boot the explanation serving stack: TCP always, HTTP when asked.

    Two shapes share the code path: ``--registry DIR`` serves every model
    in a registry directory (lazy loading, hot reload, LRU bound), while
    the single-model form (CSV/--store + --model) wraps one pre-built
    service as a pinned single-entry registry.
    """
    service_kwargs = dict(
        max_batch=args.max_batch,
        queue_limit=args.queue_limit,
        workers=args.workers,
        default_timeout_ms=args.default_timeout_ms,
        max_timeout_ms=args.max_timeout_ms,
        slow_query_ms=args.slow_query_ms,
        trace_ring=args.trace_ring,
        trace_dir=args.trace_dir,
    )
    # Like ``fit``, refuse a bad knob before reading any data or model.
    ExplanationService.check_knobs(**service_kwargs)
    service: ExplanationService | None = None
    if args.registry:
        if args.file or args.store or args.model:
            raise ReproError(
                "--registry serves models from the registry directory; "
                "drop the CSV/--store/--model arguments"
            )
        registry = ModelRegistry(
            args.registry,
            max_models=args.max_models,
            service_kwargs=service_kwargs,
        )
    elif args.model:
        table = _table_for(args)
        service = ExplanationService(
            XInsightModel.load(args.model), table, **service_kwargs
        )
        registry = ModelRegistry.for_service(service)
    else:
        raise ReproError("serve needs --model MODEL.json or --registry DIR")

    def announce(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    asyncio.run(
        run_stack(
            registry,
            host=args.host,
            port=args.port,
            http_port=args.http_port,
            allow_shutdown=args.allow_shutdown,
            announce=announce,
        )
    )
    if service is not None:
        snap = service.stats_snapshot()
        latency = snap["latency_ms"]
        print(
            f"drained cleanly: {snap['completed']} served, {snap['failed']} failed, "
            f"{snap['rejected']} rejected over {snap['batches']} batch(es); "
            f"latency p50 {latency['p50']} ms / p99 {latency['p99']} ms; "
            f"dedup saved {snap['deduped']} explain(s)",
            file=sys.stderr,
            flush=True,
        )
    else:
        totals = registry.aggregate_counters()
        print(
            f"drained cleanly: {totals['completed']} served, "
            f"{totals['failed']} failed, {totals['rejected']} rejected over "
            f"{totals['batches']} batch(es) across "
            f"{len(registry.loaded_entries())} loaded model(s); "
            f"dedup saved {totals['deduped']} explain(s)",
            file=sys.stderr,
            flush=True,
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"),
        default="warning", metavar="LEVEL",
        help="threshold for the structured 'repro' logs on stderr "
        "(debug|info|warning|error; default warning)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit logs as one JSON object per line (machine-readable; "
        "each record carries the active trace id)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fds = sub.add_parser("fds", help="detect functional dependencies")
    p_fds.add_argument("file")
    p_fds.add_argument("--tolerance", type=float, default=0.0)
    p_fds.set_defaults(func=cmd_fds)

    p_disc = sub.add_parser("discover", help="learn a causal graph")
    p_disc.add_argument("file")
    p_disc.add_argument(
        "--algorithm", choices=("xlearner", "fci", "pc"), default="xlearner"
    )
    p_disc.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p_disc.add_argument("--max-depth", type=int, default=None)
    p_disc.set_defaults(func=cmd_discover)

    p_grp = sub.add_parser("groupby", help="grouped aggregate (EDA view)")
    p_grp.add_argument("file")
    p_grp.add_argument("--by", required=True)
    p_grp.add_argument("--measure", required=True)
    p_grp.add_argument("--agg", default="AVG")
    p_grp.set_defaults(func=cmd_groupby)

    p_ing = sub.add_parser(
        "ingest", help="persist a CSV as a zero-copy memmap column store"
    )
    p_ing.add_argument("file")
    p_ing.add_argument("--out", required=True, metavar="STORE_DIR")
    p_ing.add_argument(
        "--force", action="store_true",
        help="replace an existing column store at --out (never silently)",
    )
    p_ing.set_defaults(func=cmd_ingest)

    p_fit = sub.add_parser(
        "fit", help="run the offline phase and save the model artifact"
    )
    p_fit.add_argument("file", nargs="?", default=None)
    p_fit.add_argument("--out", required=True, metavar="MODEL.json")
    p_fit.add_argument(
        "--trace", default=None, metavar="TRACE.json",
        help="also write a Chrome trace-event timeline of the fit "
        "(open in Perfetto / chrome://tracing)",
    )
    _add_store_flags(p_fit)
    p_fit.add_argument("--bins", type=int, default=DEFAULT_MEASURE_BINS)
    p_fit.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p_fit.add_argument("--max-depth", type=int, default=None)
    p_fit.add_argument("--max-dsep-size", type=int, default=DEFAULT_MAX_DSEP_SIZE)
    p_fit.set_defaults(func=cmd_fit)

    p_ins = sub.add_parser(
        "inspect", help="describe a saved model artifact and its fit profile"
    )
    p_ins.add_argument("model", metavar="MODEL.json")
    p_ins.set_defaults(func=cmd_inspect)

    p_exp = sub.add_parser("explain", help="answer a Why Query")
    p_exp.add_argument("file", nargs="?", default=None)
    _add_store_flags(p_exp)
    p_exp.add_argument("--s1", action="append", required=True, metavar="DIM=VALUE")
    p_exp.add_argument("--s2", action="append", required=True, metavar="DIM=VALUE")
    p_exp.add_argument("--measure", required=True)
    p_exp.add_argument("--agg", default="AVG")
    p_exp.add_argument("--top", type=int, default=5)
    p_exp.add_argument(
        "--model", required=True, metavar="MODEL.json",
        help="the saved model to serve (written by `fit`)",
    )
    p_exp.set_defaults(func=cmd_explain)

    p_batch = sub.add_parser(
        "batch-explain", help="answer a file of Why Queries in one session"
    )
    p_batch.add_argument("file", nargs="?", default=None)
    _add_store_flags(p_batch)
    p_batch.add_argument(
        "--queries", required=True, metavar="QUERIES.json",
        help="JSON list of {s1, s2, measure[, agg]} objects",
    )
    p_batch.add_argument("--top", type=int, default=5)
    p_batch.add_argument(
        "--model", required=True, metavar="MODEL.json",
        help="the saved model to serve (written by `fit`)",
    )
    _add_parallel_flags(p_batch)
    p_batch.set_defaults(func=cmd_batch_explain)

    p_view = sub.add_parser(
        "explain-view",
        help="summarize a whole group-by view (every sibling comparison, "
        "one ranked deduplicated report)",
    )
    p_view.add_argument("file", nargs="?", default=None)
    _add_store_flags(p_view)
    p_view.add_argument(
        "--by", action="append", required=True, metavar="DIM",
        help="grouping dimension (repeat for faceted views)",
    )
    p_view.add_argument("--measure", required=True)
    p_view.add_argument("--agg", default="AVG")
    p_view.add_argument(
        "--orientation", choices=("pairwise", "vs_rest", "both"),
        default="both",
        help="which sibling comparisons to enumerate (default: both)",
    )
    p_view.add_argument("--top", type=int, default=5)
    p_view.add_argument(
        "--model", required=True, metavar="MODEL.json",
        help="the saved model to serve (written by `fit`)",
    )
    _add_parallel_flags(p_view)
    p_view.set_defaults(func=cmd_explain_view)

    p_srv = sub.add_parser(
        "serve",
        help="asyncio micro-batching explanation server (JSON lines over TCP)",
    )
    p_srv.add_argument("file", nargs="?", default=None)
    _add_store_flags(p_srv)
    p_srv.add_argument(
        "--model", default=None, metavar="MODEL.json",
        help="the saved model to serve over the CSV/--store data "
        "(written by `fit`)",
    )
    p_srv.add_argument(
        "--registry", default=None, metavar="DIR",
        help="serve every model in a registry directory "
        "(<DIR>/<model_id>/<version>.json + data.store|data.csv; lazy "
        "loading, hot reload, LRU-bounded) instead of one CSV/model pair",
    )
    p_srv.add_argument(
        "--max-models", type=int, default=DEFAULT_MAX_MODELS, metavar="K",
        help="LRU bound on concurrently loaded registry models",
    )
    p_srv.add_argument("--host", default=DEFAULT_HOST)
    p_srv.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help="TCP port (0 = ephemeral; the bound port is announced on stderr)",
    )
    p_srv.add_argument(
        "--http-port", type=int, default=None, metavar="N",
        help="also serve the HTTP/1.1 JSON gateway (+Prometheus /metrics) "
        "on this port (0 = ephemeral; announced as 'http on host:port')",
    )
    p_srv.add_argument(
        "--max-batch", type=int, default=DEFAULT_MAX_BATCH, metavar="N",
        help="the most queued requests one micro-batch flush takes",
    )
    p_srv.add_argument(
        "--queue-limit", type=int, default=DEFAULT_QUEUE_LIMIT, metavar="N",
        help="admission bound; beyond it requests get a typed rejection",
    )
    p_srv.add_argument(
        "--default-timeout-ms", type=float, default=None, metavar="MS",
        help="deadline applied to requests that carry no timeout_ms of "
        "their own (past it they resolve as a typed DeadlineExceededError "
        "/ HTTP 504; default: no deadline)",
    )
    p_srv.add_argument(
        "--max-timeout-ms", type=float, default=None, metavar="MS",
        help="cap on the timeout_ms a request may ask for "
        "(default: uncapped)",
    )
    p_srv.add_argument(
        "--allow-shutdown", action="store_true",
        help="honour the wire 'shutdown' op (CI smoke / orchestration)",
    )
    p_srv.add_argument(
        "--slow-query-ms", type=float, default=None, metavar="MS",
        help="log a structured slow_query warning (with per-stage timings) "
        "for requests over this admission-to-answer latency",
    )
    p_srv.add_argument(
        "--trace-ring", type=int, default=DEFAULT_TRACE_RING, metavar="N",
        help="per-model bound on retained request traces "
        "(GET /v1/models/<id>/traces, wire 'traces' op)",
    )
    p_srv.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="write one Chrome trace-event JSON file per request into DIR "
        "(open in Perfetto / chrome://tracing)",
    )
    _add_parallel_flags(p_srv)
    p_srv.set_defaults(func=cmd_serve)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    obs.configure_logging(level=args.log_level, json_logs=args.log_json)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
