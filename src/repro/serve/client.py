"""Blocking Python client for the partitioning service.

A thin, dependency-free wrapper over :mod:`http.client` that speaks the
:mod:`repro.serve.protocol` schema and converts structured error bodies
into a small exception hierarchy:

* :class:`ServeError` — base; carries ``code`` and ``http_status``.
* :class:`ServerBusyError` — 429 backpressure; carries ``retry_after_s``.
* :class:`DeadlineExceededError` — the per-request deadline expired
  server-side.
* :class:`InfeasibleRequestError` — the solver proved the constraints
  unsatisfiable (a *successful* negative answer, distinct from transport
  failures).

The client is deliberately synchronous — callers embedding it in an async
program should run it in an executor; the service side is where the
concurrency lives.

Retries are **off by default**: construct with ``retries=N`` to make the
client absorb transient failures — 429 backpressure (honoring the
server's ``retry_after_s`` hint), 503 answers (a server shutting down
with work still queued), and transport errors (connection refused while
a server restarts) — with jittered exponential backoff (``backoff_s``
seeding the schedule).  Structural errors (400/404/422/500/504) never
retry.

Example
-------
>>> from repro.serve.client import ServeClient           # doctest: +SKIP
>>> with ServeClient(port=8642) as client:               # doctest: +SKIP
...     sol = client.solve_solution(benchmark="log", n_max=10)
...     sol.n_banks
7
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.partition import PartitionSolution
from ..core.pattern import Pattern
from ..errors import ReproError
from ..io import pattern_to_dict, solution_from_dict
from .protocol import ERROR_DEADLINE, ERROR_INFEASIBLE, ERROR_QUEUE_FULL


class ServeError(ReproError):
    """A structured error answer from the service."""

    def __init__(self, code: str, message: str, http_status: int) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.http_status = http_status


class ServerBusyError(ServeError):
    """429: the intake queue is full; honor ``retry_after_s``."""

    def __init__(self, message: str, http_status: int, retry_after_s: float) -> None:
        super().__init__(ERROR_QUEUE_FULL, message, http_status)
        self.retry_after_s = retry_after_s


class DeadlineExceededError(ServeError):
    """504: the request's ``timeout_ms`` budget expired server-side."""


class InfeasibleRequestError(ServeError):
    """422: the solver proved the requested constraints unsatisfiable."""


def _raise_for(code: str, message: str, status: int, doc: Dict[str, Any]) -> None:
    if code == ERROR_QUEUE_FULL:
        raise ServerBusyError(message, status, float(doc.get("retry_after_s", 1.0)))
    if code == ERROR_DEADLINE:
        raise DeadlineExceededError(code, message, status)
    if code == ERROR_INFEASIBLE:
        raise InfeasibleRequestError(code, message, status)
    raise ServeError(code, message, status)


def _pattern_fields(
    pattern: Optional[Pattern],
    benchmark: Optional[str],
    mask: Optional[Sequence[str]],
) -> Dict[str, Any]:
    sources = sum(x is not None for x in (pattern, benchmark, mask))
    if sources != 1:
        raise ValueError("exactly one of pattern=, benchmark=, mask= is required")
    if pattern is not None:
        doc = pattern_to_dict(pattern)
        fields: Dict[str, Any] = {"offsets": doc["offsets"]}
        if doc["name"]:
            fields["name"] = doc["name"]
        return fields
    if benchmark is not None:
        return {"benchmark": benchmark}
    return {"mask": list(mask)}  # type: ignore[arg-type]


#: Errors the retry loop treats as transient: backpressure, a server that
#: is shutting down, and transport failures.
_RETRYABLE_HTTP = (429, 503)


class ServeClient:
    """One keep-alive HTTP connection to a :class:`PartitionServer`.

    ``retries`` counts *additional* attempts after the first (0 keeps the
    historical fail-fast behaviour); ``backoff_s`` is the base delay,
    doubled per attempt up to ``max_backoff_s`` and jittered ±25% so a
    herd of retrying clients does not re-stampede in lockstep.  A 429's
    ``retry_after_s`` hint, when present, overrides the computed delay.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8642,
        timeout: float = 30.0,
        retries: int = 0,
        backoff_s: float = 0.05,
        max_backoff_s: float = 2.0,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backoff_s < 0 or max_backoff_s < 0:
            raise ValueError("backoff_s and max_backoff_s must be >= 0")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self.max_backoff_s = max_backoff_s
        self._rng = random.Random()
        self._conn: Optional[http.client.HTTPConnection] = None

    # -- connection management --------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # -- transport ---------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, bytes, str]:
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        send_headers = {"Content-Type": "application/json"} if payload else {}
        conn = self._connection()
        try:
            conn.request(method, path, body=payload, headers=send_headers)
            response = conn.getresponse()
            data = response.read()
            return response.status, data, response.headers.get_content_type()
        except (http.client.HTTPException, socket.error):
            # Stale keep-alive (server restarted, idle timeout): one clean
            # retry on a fresh connection, then let the error propagate.
            self.close()
            conn = self._connection()
            conn.request(method, path, body=payload, headers=send_headers)
            response = conn.getresponse()
            data = response.read()
            return response.status, data, response.headers.get_content_type()

    def _delay(self, attempt: int, hint: Optional[float] = None) -> float:
        """The jittered backoff before retry ``attempt`` (0-based)."""
        delay = min(self.backoff_s * (2.0 ** attempt), self.max_backoff_s)
        if hint is not None:
            delay = min(max(hint, 0.0), self.max_backoff_s)
        return delay * (1.0 + self._rng.uniform(-0.25, 0.25))

    def _with_retries(self, call: Callable[[], Any]) -> Any:
        """Run ``call``, absorbing up to ``self.retries`` transient failures."""
        for attempt in range(self.retries + 1):
            try:
                return call()
            except ServeError as exc:
                if attempt >= self.retries or exc.http_status not in _RETRYABLE_HTTP:
                    raise
                hint = getattr(exc, "retry_after_s", None)
                time.sleep(self._delay(attempt, hint))
            except (http.client.HTTPException, socket.error):
                # _request already burned its one clean-reconnect attempt;
                # reaching here means the server end is really down (e.g.
                # mid-restart), so wait before trying again.
                if attempt >= self.retries:
                    raise
                self.close()
                time.sleep(self._delay(attempt))
        raise AssertionError("unreachable")  # pragma: no cover

    def _json_once(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        status, data, _ = self._request(method, path, body)
        try:
            doc = json.loads(data.decode("utf-8")) if data else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeError("internal", f"unparseable response: {exc}", status) from exc
        if status != 200:
            error = doc.get("error", {}) if isinstance(doc, dict) else {}
            _raise_for(
                error.get("code", "internal"),
                error.get("message", f"HTTP {status}"),
                status,
                error,
            )
        return doc

    def _json(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        return self._with_retries(lambda: self._json_once(method, path, body))

    # -- endpoints ---------------------------------------------------------

    def solve(
        self,
        pattern: Optional[Pattern] = None,
        benchmark: Optional[str] = None,
        mask: Optional[Sequence[str]] = None,
        shape: Optional[Sequence[int]] = None,
        n_max: Optional[int] = None,
        objective: str = "latency",
        delta_max: int = 0,
        timeout_ms: Optional[float] = None,
    ) -> Dict[str, Any]:
        """POST /solve; returns the raw response document."""
        body = _pattern_fields(pattern, benchmark, mask)
        if shape is not None:
            body["shape"] = [int(w) for w in shape]
        if n_max is not None:
            body["n_max"] = int(n_max)
        if objective != "latency":
            body["objective"] = objective
        if delta_max:
            body["delta_max"] = int(delta_max)
        if timeout_ms is not None:
            body["timeout_ms"] = timeout_ms
        return self._json("POST", "/solve", body)

    def solve_solution(self, **kwargs: Any) -> PartitionSolution:
        """:meth:`solve`, decoded into a :class:`PartitionSolution`.

        The decoded object is bit-identical to what a direct in-process
        :func:`repro.core.solver.solve` returns for the same arguments.
        """
        return solution_from_dict(self.solve(**kwargs)["solution"])

    def simulate(
        self,
        shape: Sequence[int],
        pattern: Optional[Pattern] = None,
        benchmark: Optional[str] = None,
        mask: Optional[Sequence[str]] = None,
        n_max: Optional[int] = None,
        step: int = 1,
        limit: Optional[int] = None,
        ports: int = 1,
        verify: bool = True,
        engine: str = "auto",
        timeout_ms: Optional[float] = None,
    ) -> Dict[str, Any]:
        """POST /simulate; returns solution + simulation report document."""
        body = _pattern_fields(pattern, benchmark, mask)
        body["shape"] = [int(w) for w in shape]
        if n_max is not None:
            body["n_max"] = int(n_max)
        if step != 1:
            body["step"] = step
        if limit is not None:
            body["limit"] = limit
        if ports != 1:
            body["ports"] = ports
        if not verify:
            body["verify"] = False
        if engine != "auto":
            body["engine"] = engine
        if timeout_ms is not None:
            body["timeout_ms"] = timeout_ms
        return self._json("POST", "/simulate", body)

    def table1(
        self,
        benchmarks: Optional[List[str]] = None,
        repetitions: int = 1,
        timeout_ms: Optional[float] = None,
    ) -> Dict[str, Any]:
        """POST /table1; returns measured rows for the requested benchmarks."""
        body: Dict[str, Any] = {"repetitions": repetitions}
        if benchmarks is not None:
            body["benchmarks"] = list(benchmarks)
        if timeout_ms is not None:
            body["timeout_ms"] = timeout_ms
        return self._json("POST", "/table1", body)

    def healthz(self) -> Dict[str, Any]:
        """GET /healthz."""
        return self._json("GET", "/healthz")

    def metrics_text(self) -> str:
        """GET /metrics — the raw Prometheus exposition text."""
        status, data, _ = self._request("GET", "/metrics")
        if status != 200:
            raise ServeError("internal", f"/metrics returned HTTP {status}", status)
        return data.decode("utf-8")

    # -- debug surface (server must run with debug enabled) ----------------

    def debug_traces(self) -> Dict[str, Any]:
        """GET /debug/traces — recent end-to-end request span trees."""
        return self._json("GET", "/debug/traces")

    def debug_inflight(self) -> Dict[str, Any]:
        """GET /debug/inflight — the coalescer's queued/in-flight jobs."""
        return self._json("GET", "/debug/inflight")

    def debug_store(self) -> Dict[str, Any]:
        """GET /debug/store — solution-store occupancy and hit-rate."""
        return self._json("GET", "/debug/store")
