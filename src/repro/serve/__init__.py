"""Explanation service layer: the online phase's concurrent front door.

PR 2–4 built the fit-once artifact (:class:`~repro.core.model.
XInsightModel`), the memoizing :class:`~repro.core.session.ExplainSession`
and the batched Δ kernels; this package puts a server in front of them:

* :class:`ExplanationService` — asyncio micro-batching scheduler with
  admission control, in-batch dedup, executor fan-out and graceful drain;
* :class:`ModelRegistry` — versioned multi-model artifact registry with
  lazy loading, hot reload and LRU eviction; both wire front-ends route
  through it;
* :mod:`repro.serve.ops` — the one request layer under both wire
  front-ends: decoding, field validation, one handler per op, typed
  envelopes, the error → status map and the shared listener lifecycle
  (the ops themselves are the README's "Serving" op table);
* :class:`ExplanationServer` — JSON-lines TCP front-end (stdlib only) and
  :class:`HttpGateway` — HTTP/1.1 JSON gateway plus Prometheus
  ``/metrics``, both over one registry; :func:`run_stack` serves them
  together, surfaced on the CLI as ``repro serve``;
* :class:`ServeClient` — blocking pipelining client for scripts, tests,
  benchmarks and the CI smoke probe, with :class:`RetryPolicy`-governed
  safe retries (connect failures, overload rejections);
* :class:`ServerStats` — queue depth, batch-size histogram, p50/p99
  latency and the session's cache hit rates in one snapshot;
* :class:`FaultPlan` (:mod:`repro.serve.faults`) — deterministic fault
  injection (worker kills, flush delays, artifact corruption, dropped
  connections) behind the ``REPRO_FAULTS`` env var, driving the chaos
  smoke (``python -m repro.serve.smoke --chaos``).
"""

from repro.serve.client import (
    RetryPolicy,
    ServeClient,
    ServeResponseError,
    raise_for_error,
)
from repro.serve.faults import FAULTS_ENV, FaultPlan
from repro.serve.http import DEFAULT_HTTP_PORT, HttpGateway
from repro.serve.metrics import (
    CONTENT_TYPE as METRICS_CONTENT_TYPE,
    metric_value,
    parse_prometheus_text,
    render_metrics,
)
from repro.serve.ops import (
    OPS,
    decode_request,
    error_response,
    ok_response,
)
from repro.serve.protocol import MAX_LINE_BYTES, encode_line
from repro.serve.registry import DEFAULT_MAX_MODELS, ModelRegistry
from repro.serve.server import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    ExplanationServer,
    run_stack,
)
from repro.serve.service import (
    DEFAULT_MAX_BATCH,
    DEFAULT_QUEUE_LIMIT,
    DEFAULT_TRACE_RING,
    ExplanationService,
    ServerStats,
)

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_HTTP_PORT",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_MODELS",
    "DEFAULT_PORT",
    "DEFAULT_QUEUE_LIMIT",
    "DEFAULT_TRACE_RING",
    "ExplanationServer",
    "ExplanationService",
    "FAULTS_ENV",
    "FaultPlan",
    "HttpGateway",
    "MAX_LINE_BYTES",
    "METRICS_CONTENT_TYPE",
    "ModelRegistry",
    "OPS",
    "RetryPolicy",
    "ServeClient",
    "ServeResponseError",
    "ServerStats",
    "decode_request",
    "encode_line",
    "error_response",
    "metric_value",
    "ok_response",
    "parse_prometheus_text",
    "raise_for_error",
    "render_metrics",
    "run_stack",
]
