"""The in-process half of the traced run: each layer's public call, timed
from outside on the workload's own model, data and requests.

Every call sits in one of the benchmark's spans; the metrics are medians
over requests (or over repeats for one-off calls).
"""

from __future__ import annotations

import asyncio

from common import median

STORE_OPENS = 5
SESSION_BUILDS = 3
EXPLAIN_PASSES = 5


def fit_layers(profiles: list[dict], save_ms: list[float],
               load_ms: list[float]) -> dict:
    """Offline layers from the persisted ``fit_profile`` of each fit."""

    def phase(profile: dict, name: str) -> dict:
        return next(p for p in profile["phases"] if p["name"] == name)

    def fci_phase(profile: dict, name: str) -> dict:
        return next(p for p in phase(profile, "fci")["phases"] if p["name"] == name)

    def per_fit(fn) -> float:
        return median([fn(p) for p in profiles])

    last = profiles[-1]
    return {
        "data.discretize_s": per_fit(lambda p: phase(p, "discretize")["seconds"]),
        "fd.detect_s": per_fit(lambda p: phase(p, "fd_detect")["seconds"]),
        "fd.edges": phase(last, "fd_detect")["fd_edges"],
        "independence.ci_tests": sum(
            fci_phase(last, name)["tests"] for name in ("skeleton", "possible_d_sep")
        ),
        "independence.ci_cache_hits": sum(
            depth.get("cache_hits", 0) for depth in last["skeleton_depths"]
        ),
        "discovery.skeleton_s": per_fit(lambda p: fci_phase(p, "skeleton")["seconds"]),
        "discovery.pdsep_s": per_fit(
            lambda p: fci_phase(p, "possible_d_sep")["seconds"]
        ),
        "discovery.orient_s": per_fit(
            lambda p: fci_phase(p, "orientation")["seconds"]
            + phase(p, "fd_peel")["seconds"] + phase(p, "fd_orient")["seconds"]
        ),
        "core.model_save_ms": median(save_ms),
        "core.model_load_ms": median(load_ms),
    }


def serving_layers(model, store, query_specs: list[dict], charts: list[dict],
                   spans) -> dict:
    """Session, service and view layers in-process, each timed around its
    public call (the service at the CLI's defaults)."""
    from repro.core.session import ExplainSession
    from repro.core.view import enumerate_view_queries, summarize_view, view_from_spec
    from repro.data.query import query_from_spec
    from repro.data.table import Table
    from repro.serve import ExplanationService

    store_ms = []
    for _ in range(STORE_OPENS):
        with spans.span("data.store_open") as sp:
            table = Table.from_store(store)
        store_ms.append(sp.elapsed * 1e3)
    build_s = []
    for _ in range(SESSION_BUILDS):
        with spans.span("core.session_build") as sp:
            session = ExplainSession(model, table)
        build_s.append(sp.elapsed)
    queries = [query_from_spec(spec, table) for spec in query_specs]

    for query in queries:  # warm every session cache first
        session.explain(query)
    explain_ms = []
    for _ in range(EXPLAIN_PASSES):
        for index, query in enumerate(queries):
            with spans.span("core.session_explain", request=index) as sp:
                session.explain(query)
            explain_ms.append(sp.elapsed * 1e3)

    groupby_ms, enumerate_ms, summarize_ms, pairs = [], [], [], []
    for index, spec in enumerate(charts):
        with spans.span("data.groupby", request=index) as sp:
            view = view_from_spec(spec, table)
        groupby_ms.append(sp.elapsed * 1e3)
        with spans.span("core.enumerate", request=index) as sp:
            specs = enumerate_view_queries(view)
        enumerate_ms.append(sp.elapsed * 1e3)
        with spans.span("core.explain_batch", request=index):
            reports = session.explain_batch([s.query for s in specs], on_error="return")
        with spans.span("core.summarize", request=index) as sp:
            summarize_view(view, specs, reports)
        summarize_ms.append(sp.elapsed * 1e3)
        pairs.append(len(specs))
    view_ms = []
    for index, spec in enumerate(charts):
        with spans.span("core.session_view", request=index) as sp:
            session.explain_view(spec)
        view_ms.append(sp.elapsed * 1e3)

    async def through_service() -> tuple[list[float], list[float]]:
        service_explain, service_view = [], []
        async with ExplanationService(model, table) as service:
            for query in queries:
                await service.explain(query)
            for _ in range(EXPLAIN_PASSES):
                for index, query in enumerate(queries):
                    with spans.span("serve.service_explain", request=index) as sp:
                        await service.explain(query)
                    service_explain.append(sp.elapsed * 1e3)
            for index, spec in enumerate(charts):
                with spans.span("serve.service_view", request=index) as sp:
                    await service.explain_view(spec)
                service_view.append(sp.elapsed * 1e3)
        return service_explain, service_view

    service_explain_ms, service_view_ms = asyncio.run(through_service())
    return {
        "data.store_open_ms": median(store_ms),
        "core.session_build_s": median(build_s),
        "core.session_explain_ms": median(explain_ms),
        "serve.service_explain_ms": median(service_explain_ms),
        "data.groupby_ms": median(groupby_ms),
        "core.enumerate_ms": median(enumerate_ms),
        "core.summarize_ms": median(summarize_ms),
        "core.pairs_per_view": sum(pairs) / len(pairs),
        "core.session_view_ms": median(view_ms),
        "serve.service_view_ms": median(service_view_ms),
    }
