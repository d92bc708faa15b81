"""JSON-lines framing of the TCP wire: one request per line, one response
per line.

UTF-8 JSON with no embedded newlines — a protocol that works with ``nc``,
``telnet``, or four lines of Python.  Each request is an object naming an
``op``; an optional ``id`` (any JSON value) is echoed verbatim in the
response so pipelining clients can match responses to requests without
assuming ordering.  The ops, their fields, payload keys and typed errors
are the README's "Serving" op table, implemented once for both wire
front-ends by :mod:`repro.serve.ops`.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

#: Upper bound on one request (bytes): a TCP line or an HTTP body.  Also
#: passed to the asyncio stream reader as its buffer limit, so an unframed
#: flood cannot balloon server memory.
MAX_LINE_BYTES = 1 << 20


def encode_line(payload: Mapping[str, Any]) -> bytes:
    """One protocol line: compact JSON + newline, UTF-8."""
    return (
        json.dumps(payload, separators=(",", ":"), ensure_ascii=False) + "\n"
    ).encode("utf-8")
