"""Request-scoped trace identity, propagated across tasks and threads.

A *trace id* names one logical request end to end: the serve layer mints
one per HTTP request, the coalescer carries it into the batch executor,
and :mod:`repro.sched` ships it into process workers —
so every span recorded anywhere on behalf of that request can be grouped
back into a single tree (see :mod:`repro.obs.reqtrace`).

The identity lives in a :class:`contextvars.ContextVar`, not thread-local
storage, because the serve path interleaves many requests on one asyncio
event loop: each task gets its own context copy, while explicit
:func:`trace` blocks cover the executor threads and worker processes that
contexts do not cross on their own.

Trace ids are opaque 16-hex-char strings; ``None`` means "not inside any
traced request" and is the ambient default everywhere.
"""

from __future__ import annotations

import contextvars
import os
from contextlib import contextmanager
from typing import Iterator, Optional

_TRACE_ID: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "repro_trace_id", default=None
)


def new_trace_id() -> str:
    """A fresh random trace id (16 hex chars, collision-safe per process)."""
    return os.urandom(8).hex()


def current_trace_id() -> Optional[str]:
    """The trace id of the enclosing :func:`trace` block, or ``None``."""
    return _TRACE_ID.get()


@contextmanager
def trace(trace_id: Optional[str] = None) -> Iterator[str]:
    """Run a block under ``trace_id`` (minted fresh when omitted).

    Spans opened inside the block record the id; nested blocks shadow and
    restore it, so handing a request off to helper code that opens its own
    trace cannot leak identity across requests.
    """
    tid = trace_id if trace_id is not None else new_trace_id()
    token = _TRACE_ID.set(tid)
    try:
        yield tid
    finally:
        _TRACE_ID.reset(token)
