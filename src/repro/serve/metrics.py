"""Prometheus text-exposition export of the serving stats.

:func:`render_metrics` turns a :class:`~repro.serve.registry.ModelRegistry`
into the ``text/plain; version=0.0.4`` format every Prometheus-compatible
scraper speaks — one labeled series per model for every
:class:`~repro.serve.service.ServerStats` counter, the batch-size
distribution as a real cumulative histogram, the latency window as a
summary with p50/p99 quantiles, queue depths, session cache counters, and
per-model ``_info`` series carrying version + artifact fingerprint::

    repro_serve_completed_total{model="churn"} 4182
    repro_serve_batch_size_bucket{model="churn",le="8"} 97
    repro_serve_latency_seconds{model="churn",quantile="0.99"} 0.0141
    repro_serve_model_info{model="churn",version="2",fingerprint="c52e..."} 1

Everything is computed from loop-confined structures, so the caller
(:func:`repro.serve.ops.metrics_text`, behind the HTTP ``/metrics``
route) must run it on the event loop; the lock-taking per-session
``cache_info`` dicts are pre-fetched off-loop and passed in.

:func:`parse_prometheus_text` is the matching strict parser — used by the
test suite and the smoke probe to assert the output actually *is* valid
exposition format, not something that merely looks like it.
"""

from __future__ import annotations

import math
import re
from typing import Any, Iterable, Mapping

from repro.serve.service import ServerStats, _percentile

PREFIX = "repro_serve"
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: The ServerStats counters exported one labeled series each.
_COUNTERS = (
    ("submitted", "Requests admitted into the service queue."),
    ("completed", "Requests answered with a report."),
    ("failed", "Requests answered with an error."),
    ("rejected", "Requests shed at admission (queue full)."),
    ("deduped", "Requests answered by another request's explain."),
    ("batches", "Micro-batch flushes executed."),
    ("slow_queries", "Requests over the slow-query latency threshold."),
    ("views", "Whole-view summaries served (explain_view)."),
    ("timeouts", "Requests resolved with DeadlineExceededError."),
    ("shed_expired", "Timeouts shed in queue before their flush ran."),
)

#: Fault-tolerance counters that live on the service (not ServerStats).
_SERVICE_COUNTERS = (
    ("worker_restarts", "Process-pool rebuilds forced by worker deaths."),
    ("retries", "Shards/queries re-attempted after infrastructure failures."),
)


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")
    )


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class MetricsBuilder:
    """Accumulates families (``# HELP``/``# TYPE`` + samples) in order."""

    def __init__(self) -> None:
        self._lines: list[str] = []

    def family(self, name: str, kind: str, help_text: str) -> None:
        self._lines.append(f"# HELP {name} {help_text}")
        self._lines.append(f"# TYPE {name} {kind}")

    def sample(
        self, name: str, labels: Mapping[str, str], value: float
    ) -> None:
        if labels:
            rendered = ",".join(
                f'{key}="{_escape_label(str(val))}"'
                for key, val in labels.items()
            )
            self._lines.append(f"{name}{{{rendered}}} {_format_value(value)}")
        else:
            self._lines.append(f"{name} {_format_value(value)}")

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


def _histogram(
    builder: MetricsBuilder, name: str, labels: Mapping[str, str], stats: ServerStats
) -> None:
    """The batch-size Counter as a cumulative Prometheus histogram whose
    bucket bounds are the observed sizes (exact, no binning error)."""
    cumulative = 0
    total_sum = 0.0
    for size, count in sorted(stats.batch_sizes.items()):
        cumulative += count
        total_sum += size * count
        builder.sample(
            f"{name}_bucket", {**labels, "le": str(size)}, cumulative
        )
    builder.sample(f"{name}_bucket", {**labels, "le": "+Inf"}, cumulative)
    builder.sample(f"{name}_sum", labels, total_sum)
    builder.sample(f"{name}_count", labels, cumulative)


def _summary(
    builder: MetricsBuilder, name: str, labels: Mapping[str, str], stats: ServerStats
) -> None:
    """Latency as a summary: quantiles over the sliding window, cumulative
    (monotone) _sum/_count over the process lifetime."""
    window = sorted(stats.latencies)
    for quantile in (0.5, 0.99):
        builder.sample(
            name,
            {**labels, "quantile": str(quantile)},
            _percentile(window, quantile),
        )
    builder.sample(f"{name}_sum", labels, stats.latency_sum_s)
    builder.sample(f"{name}_count", labels, stats.latency_observations)


def render_metrics(
    registry,
    *,
    cache_infos: Mapping[str, Mapping[str, int]] | None = None,
    frontends: Mapping[str, Mapping[str, float]] | None = None,
) -> str:
    """The full ``/metrics`` payload for a registry.

    ``cache_infos`` maps model id → a pre-fetched ``session.cache_info()``
    (fetch those off-loop; the session lock may be held by a flush).
    ``frontends`` maps a front-end name (``http``, ``tcp``) → its
    ``{"requests": n, "connections": n}`` counters.
    """
    entries = sorted(registry.loaded_entries(), key=lambda e: e.model_id)
    builder = MetricsBuilder()

    builder.family(
        f"{PREFIX}_models_loaded", "gauge", "Models currently live (LRU-bounded)."
    )
    builder.sample(f"{PREFIX}_models_loaded", {}, len(entries))
    builder.family(
        f"{PREFIX}_models_available", "gauge",
        "Models servable from the registry directory.",
    )
    builder.sample(f"{PREFIX}_models_available", {}, len(registry.available_ids()))

    builder.family(
        f"{PREFIX}_model_info", "gauge",
        "Live artifact provenance: version and content fingerprint.",
    )
    for entry in entries:
        builder.sample(
            f"{PREFIX}_model_info",
            {
                "model": entry.model_id,
                "version": entry.version,
                "fingerprint": entry.fingerprint,
            },
            1,
        )

    for counter, help_text in _COUNTERS:
        name = f"{PREFIX}_{counter}_total"
        builder.family(name, "counter", help_text)
        for entry in entries:
            builder.sample(
                name,
                {"model": entry.model_id},
                getattr(entry.service.stats, counter),
            )

    for counter, help_text in _SERVICE_COUNTERS:
        name = f"{PREFIX}_{counter}_total"
        builder.family(name, "counter", help_text)
        for entry in entries:
            builder.sample(
                name,
                {"model": entry.model_id},
                getattr(entry.service, counter),
            )

    builder.family(
        f"{PREFIX}_quarantined_models", "gauge",
        "Models whose latest artifact is negative-cached as unloadable.",
    )
    builder.sample(
        f"{PREFIX}_quarantined_models", {}, len(registry.quarantined_models())
    )

    builder.family(
        f"{PREFIX}_queue_depth", "gauge", "Requests waiting for a flush."
    )
    for entry in entries:
        builder.sample(
            f"{PREFIX}_queue_depth", {"model": entry.model_id},
            entry.service.queue_depth,
        )

    builder.family(
        f"{PREFIX}_uptime_seconds", "gauge",
        "Seconds since this model's service was built (resets on hot reload).",
    )
    for entry in entries:
        builder.sample(
            f"{PREFIX}_uptime_seconds", {"model": entry.model_id},
            round(entry.service.stats.uptime_seconds, 3),
        )

    builder.family(
        f"{PREFIX}_batch_size", "histogram",
        "Requests coalesced per micro-batch flush.",
    )
    for entry in entries:
        _histogram(
            builder, f"{PREFIX}_batch_size", {"model": entry.model_id},
            entry.service.stats,
        )

    builder.family(
        f"{PREFIX}_latency_seconds", "summary",
        "Admission-to-answer latency (quantiles over a sliding window).",
    )
    for entry in entries:
        _summary(
            builder, f"{PREFIX}_latency_seconds", {"model": entry.model_id},
            entry.service.stats,
        )

    if cache_infos:
        builder.family(
            f"{PREFIX}_session_cache_total", "counter",
            "Primary-session cache counters (hits/misses per cache).",
        )
        for model_id in sorted(cache_infos):
            for counter, value in sorted(cache_infos[model_id].items()):
                if not isinstance(value, (int, float)):
                    continue  # cache_info may grow nested diagnostics
                builder.sample(
                    f"{PREFIX}_session_cache_total",
                    {"model": model_id, "counter": counter},
                    value,
                )

    if frontends:
        builder.family(
            f"{PREFIX}_frontend_requests_total", "counter",
            "Requests handled per wire front-end.",
        )
        for frontend in sorted(frontends):
            builder.sample(
                f"{PREFIX}_frontend_requests_total",
                {"frontend": frontend},
                frontends[frontend].get("requests", 0),
            )
        builder.family(
            f"{PREFIX}_frontend_connections_total", "counter",
            "Connections accepted per wire front-end.",
        )
        for frontend in sorted(frontends):
            builder.sample(
                f"{PREFIX}_frontend_connections_total",
                {"frontend": frontend},
                frontends[frontend].get("connections", 0),
            )

    return builder.render()


# ----------------------------------------------------------------------
# Strict parser (tests + smoke probe)
# ----------------------------------------------------------------------

_NAME_RE = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_SAMPLE_RE = re.compile(
    rf"^(?P<name>{_NAME_RE})(?:\{{(?P<labels>[^{{}}]*)\}})? "
    r"(?P<value>-?(?:\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|\+Inf|-Inf|NaN))$"
)
_LABEL_RE = re.compile(
    rf"({_NAME_RE})=\"((?:[^\"\\]|\\.)*)\"(?:,|$)"
)


def parse_prometheus_text(
    text: str,
) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Parse (and validate) exposition text into ``{(name, labels): value}``.

    ``labels`` is a sorted tuple of ``(key, value)`` pairs.  Raises
    :class:`ValueError` on any line that is not a valid comment or sample —
    the point is that tests fail when the exporter drifts out of format.
    """
    samples: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            if line.startswith("#") and not re.match(
                rf"^# (HELP|TYPE) {_NAME_RE} .+$", line
            ):
                raise ValueError(f"malformed comment on line {lineno}: {line!r}")
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"malformed sample on line {lineno}: {line!r}")
        labels: list[tuple[str, str]] = []
        raw = match.group("labels")
        if raw:
            consumed = 0
            for pair in _LABEL_RE.finditer(raw):
                labels.append(
                    (
                        pair.group(1),
                        pair.group(2)
                        .replace(r"\n", "\n")
                        .replace(r"\"", '"')
                        .replace(r"\\", "\\"),
                    )
                )
                consumed = pair.end()
            if consumed != len(raw):
                raise ValueError(
                    f"malformed labels on line {lineno}: {raw!r}"
                )
        value_text = match.group("value")
        value = {"+Inf": math.inf, "-Inf": -math.inf}.get(
            value_text, None
        )
        if value is None:
            value = float(value_text)
        samples[(match.group("name"), tuple(sorted(labels)))] = value
    return samples


def metric_value(
    samples: Mapping[tuple[str, tuple[tuple[str, str], ...]], float],
    name: str,
    **labels: str,
) -> float:
    """Convenience lookup into :func:`parse_prometheus_text` output by
    metric name and an exact label set."""
    key = (name, tuple(sorted(labels.items())))
    if key not in samples:
        near: Iterable[Any] = [k for k in samples if k[0] == name]
        raise KeyError(f"no sample {key!r}; have {sorted(near)!r}")
    return samples[key]
