"""The asyncio partitioning service: HTTP/1.1 over stdlib streams.

One process, one event loop, one batch pipeline.  Connection handlers
parse requests, compute each request's canonical identity once, enforce
deadlines, and answer repeats straight from the in-memory solve cache on
the loop — no queue, no executor hop, no store read.  Everything else
goes through the coalescer (backpressure, shared solve futures).

Where work runs: a solve batch or a simulation whose work estimate
(:meth:`~repro.serve.protocol.SolveSpec.work_estimate`) fits
:data:`~repro.serve.protocol.INLINE_WORK_BUDGET`, ~1.5 ms of work, runs
on the loop, because a thread handoff costs more than a small cold solve.
Larger batches and simulations, batches under the tests' ``solve_delay_s``
hook, and every ``/table1`` build run on executor threads, so intake
stays responsive while they work.  The ``serve.work.inline`` and
``serve.work.executor`` counters on ``/metrics`` count each batch and
simulation by where it ran.

Endpoints
---------
``POST /solve``
    Body: a solve spec (see :mod:`repro.serve.protocol`).  Answered from
    memory on the loop when cached, else coalesced, batched, and looked up
    in the store before solving.  200 with the solution document, or a
    structured error (400/422/429/503/504).
``POST /simulate``
    A solve spec with mandatory ``shape`` plus sweep knobs; the solve takes
    the same path as ``/solve``, then the cycle simulation runs on the
    loop or an executor thread, by its work estimate.  Returns solution +
    simulation report.
``POST /table1``
    ``{"benchmarks": [...], "repetitions": k}`` — regenerates Table 1 rows
    via :func:`repro.eval.table1.build_table`; distinct benchmarks and at
    most :data:`MAX_TABLE1_REPETITIONS` repetitions.
``GET /healthz``
    Liveness + queue/store stats and whether the native tier loaded,
    always JSON 200 while the loop is alive.
``GET /metrics``
    The process metrics registry in Prometheus text format
    (:func:`repro.obs.export.to_prometheus_text`), including store
    occupancy gauges and traffic counters.
``GET /debug/traces`` / ``GET /debug/inflight`` / ``GET /debug/store``
    Live debug surface, **off by default** — start the server with
    ``debug=True`` (CLI: ``--debug``) to enable.  ``/debug/traces`` serves
    a bounded ring of recent end-to-end request span trees (requires
    observability, ``REPRO_OBS=1``); ``/debug/inflight`` the coalescer's
    queued/in-flight jobs with ages and trace ids; ``/debug/store`` the
    solution store's occupancy and hit-rate.

Tracing: with observability enabled every request is assigned a trace id
(returned in the response payload as ``trace_id``).  The id travels with
the work — through the coalescer into the batch, on the loop or a thread
— so the finished spans reassemble into one tree per request, retrievable
from ``/debug/traces``.  Requests that coalesce onto another request's
in-flight solve record a *link* to the leader's trace instead of
duplicating its spans.

Deadlines: a request may carry ``timeout_ms``; past-deadline requests get
``504 deadline_exceeded`` — *the coalesced solve keeps running* (other
waiters, or the store, still want the result), only this response is
abandoned.  Work on the loop cannot be interrupted, so a deadline that
passes during it is checked once the work returns, with the same 504.
Backpressure: a full intake queue answers ``429 queue_full``
with a ``Retry-After`` header instead of queueing unboundedly.  Malformed
HTTP framing (a bad request line, a non-numeric or negative
``Content-Length``, an over-long line) answers ``400 bad_request`` and a
body over :data:`MAX_BODY_BYTES` answers ``413``; both close the
connection.

:func:`serve_in_thread` runs the whole server on a daemon thread for
tests, benchmarks, and embedding in synchronous programs.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import threading
import time
from collections import Counter
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple, Union

from .. import native
from ..core import cache as solve_cache
from ..core.mapping import BankMapping
from ..obs import state as obs_state
from ..obs.export import to_prometheus_text
from ..obs.metrics import registry as obs_registry
from ..obs.reqtrace import REQUEST_SPAN, TraceBuffer, build_trace_tree
from ..obs.tracecontext import new_trace_id, trace
from ..obs.tracer import SpanRecord, span, tracer as obs_tracer
from .coalesce import Coalescer, Outcome, QueueFullError
from .protocol import (
    ERROR_BAD_REQUEST,
    ERROR_DEADLINE,
    ERROR_INTERNAL,
    ERROR_NOT_FOUND,
    ERROR_QUEUE_FULL,
    HTTP_STATUS,
    INLINE_WORK_BUDGET,
    BadRequestError,
    SimulateSpec,
    SolveSpec,
    error_payload,
    parse_simulate_spec,
    parse_solve_spec,
    parse_timeout_s,
    require_mapping,
    solution_payload,
)
from .store import SolutionStore

#: Largest accepted request body; patterns are small, this is generous.
MAX_BODY_BYTES = 1 << 20

#: Largest ``/table1`` ``repetitions``, 5x the ``repro-table1`` default.
#: Each row's LTB time column runs the scalar search ``repetitions // 10``
#: times on an executor thread that ``/simulate`` shares.
MAX_TABLE1_REPETITIONS = 100

#: Request span trees kept for ``/debug/traces``.
DEFAULT_TRACE_BUFFER = 128

#: Leak guard on the process tracer: spans belonging to traces that were
#: never finished (e.g. a leader whose response was abandoned past its
#: deadline while its solve kept running) would otherwise accumulate.
_TRACE_RECORD_CAP = 20_000

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _HttpReply(Exception):
    """Internal control flow: abort the handler with a ready response."""

    def __init__(
        self, status: int, payload: Dict[str, Any], headers: Optional[Dict[str, str]] = None
    ) -> None:
        super().__init__(f"HTTP {status}")
        self.status = status
        self.payload = payload
        self.headers = headers or {}


def _framing_error(status: int, message: str) -> _HttpReply:
    return _HttpReply(status, error_payload(ERROR_BAD_REQUEST, message))


async def read_http_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Parse one HTTP/1.1 request off a stream; None at end of connection.

    Header names are lowercased.  Malformed framing raises
    :class:`_HttpReply` (400, or 413 for an oversized body) so the
    connection handler can answer before it closes the socket.
    """
    try:
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            return None
        parts = line.split()
        if len(parts) != 3 or not line.isascii():
            raise _framing_error(400, f"malformed request line {line[:80]!r}")
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            key, _, value = raw.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
    except ValueError:  # StreamReader.readline: a line outgrew its buffer limit
        raise _framing_error(400, "request line or header too long")
    raw_length = headers.get("content-length", "0") or "0"
    # No real body needs 19 digits, and int() rejects huge digit strings.
    if not (raw_length.isascii() and raw_length.isdigit() and len(raw_length) <= 18):
        raise _framing_error(400, f"invalid Content-Length {raw_length[:40]!r}")
    length = int(raw_length)
    if length > MAX_BODY_BYTES:
        raise _framing_error(
            413, f"body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        )
    body = await reader.readexactly(length) if length else b""
    method, target = parts[0].decode("ascii"), parts[1].decode("ascii")
    return method.upper(), target, headers, body


def _check_deadline(deadline: Optional[float]) -> None:
    """Raise :class:`asyncio.TimeoutError` if ``deadline`` has passed.

    Work on the loop holds every timer until it returns, so a wait that
    ended without a timeout may still have outlived its deadline.
    """
    if deadline is not None and time.monotonic() > deadline:
        raise asyncio.TimeoutError


def _wants_close(connection: str) -> bool:
    """True when a ``Connection`` header value lists the ``close`` option.

    Connection options are a comma-separated list of case-insensitive
    tokens (RFC 9110 §7.6.1), so ``Close`` and ``TE, close`` both count.
    """
    return any(token.strip().lower() == "close" for token in connection.split(","))


def write_http_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: Union[Dict[str, Any], str],
    extra_headers: Dict[str, str],
    keep_alive: bool,
) -> None:
    """Serialize and queue one response: a dict as JSON, a str as text."""
    if isinstance(payload, str):
        body = payload.encode("utf-8")
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        content_type = "application/json"
    head = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    head.extend(f"{k}: {v}" for k, v in extra_headers.items())
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body)
    obs_registry().counter(f"serve.http.{status}").inc()


@dataclasses.dataclass
class _RequestContext:
    """Per-request trace identity, threaded through the handler.

    ``links`` collects trace ids of *other* requests whose in-flight work
    this one attached to (the coalesced leader); they end up on the
    ``serve.request`` root span so a follower's tree points at the tree
    that actually contains the solve.
    """

    trace_id: Optional[str] = None
    links: List[str] = dataclasses.field(default_factory=list)


class PartitionServer:
    """A long-lived partitioning service bound to one host/port."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        store_dir: Optional[str] = None,
        store_max_entries: int = 4096,
        batch_max: int = 32,
        max_pending: int = 256,
        retry_after_s: float = 1.0,
        solve_delay_s: float = 0.0,
        debug: bool = False,
        trace_buffer_size: int = DEFAULT_TRACE_BUFFER,
    ) -> None:
        self.host = host
        self.port = port  # rebound to the real port after start()
        self.store = (
            SolutionStore(store_dir, max_entries=store_max_entries)
            if store_dir
            else None
        )
        self._coalescer_config = dict(
            batch_max=batch_max,
            max_pending=max_pending,
            retry_after_s=retry_after_s,
            solve_delay_s=solve_delay_s,
        )
        self.coalescer: Optional[Coalescer] = None
        self.debug = debug
        self.traces = TraceBuffer(trace_buffer_size)
        self._server: Optional[asyncio.base_events.Server] = None
        self._batch_task: Optional[asyncio.Task] = None
        self._conn_tasks: set = set()
        self._started_at = 0.0
        self._requests = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Load the native tier, bind the socket, start the batch pipeline.

        The first load in a process may compile the extension (under a
        second with gcc).  Doing it before the socket exists means no
        request, and no request handler on the loop, ever waits for that
        compile.
        """
        native.available()
        self.coalescer = Coalescer(store=self.store, **self._coalescer_config)
        self._batch_task = asyncio.get_running_loop().create_task(
            self.coalescer.run()
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()

    async def stop(self) -> None:
        """Stop accepting, fail queued work, release the port, close the store.

        A batch already on its executor thread finishes first, so what it
        solves is stored.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Idle keep-alive handlers are parked in read_http_request; cancel them
        # so no coroutine outlives the loop (a GC'd parked handler raises
        # "Event loop is closed" from its writer-close finally block).
        if self._conn_tasks:
            for task in list(self._conn_tasks):
                task.cancel()
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
            self._conn_tasks.clear()
        if self._batch_task is not None:
            self._batch_task.cancel()
            try:
                await self._batch_task
            except asyncio.CancelledError:
                pass
            self._batch_task = None
        if self.coalescer is not None:
            self.coalescer.close()
            await self.coalescer.drain()
        if self.store is not None:
            self.store.close()

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI wires signals to cancellation)."""
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # -- HTTP plumbing -----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            while True:
                try:
                    request = await read_http_request(reader)
                except _HttpReply as reply:
                    # Malformed framing: the stream position is unknown, so
                    # answer once and close instead of parsing on.
                    write_http_response(
                        writer, reply.status, reply.payload, reply.headers, False
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                method, target, headers, body = request
                keep_alive = not _wants_close(headers.get("connection", ""))
                status, payload, extra = await self._route(method, target, body)
                write_http_response(writer, status, payload, extra, keep_alive)
                await writer.drain()
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass  # client went away mid-request; nothing to answer
        except asyncio.CancelledError:
            pass  # server stopping while this connection idled
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):  # pragma: no cover
                pass

    # -- routing -----------------------------------------------------------

    async def _route(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, Union[Dict[str, Any], str], Dict[str, str]]:
        self._requests += 1
        registry = obs_registry()
        registry.counter("serve.requests").inc()
        started = time.monotonic()
        started_perf = time.perf_counter()
        path = target.split("?", 1)[0]
        ctx = _RequestContext(
            trace_id=new_trace_id() if obs_state.enabled() else None
        )
        status = 500
        try:
            handler = self._resolve_handler(method, path)
            if ctx.trace_id is None:
                payload = await handler(self._parse_body(body), ctx)
            else:
                with trace(ctx.trace_id):
                    payload = await handler(self._parse_body(body), ctx)
                if isinstance(payload, dict):
                    payload.setdefault("trace_id", ctx.trace_id)
            status = 200
            return 200, payload, {}
        except _HttpReply as reply:
            status = reply.status
            return reply.status, reply.payload, reply.headers
        except BadRequestError as exc:
            status = 400
            return 400, error_payload(ERROR_BAD_REQUEST, str(exc)), {}
        except Exception as exc:  # noqa: BLE001 - the server must not die
            registry.counter("serve.errors.internal").inc()
            return 500, error_payload(ERROR_INTERNAL, f"{type(exc).__name__}: {exc}"), {}
        finally:
            elapsed_ms = (time.monotonic() - started) * 1000.0
            registry.log_histogram("serve.request.latency_ms").observe(elapsed_ms)
            if ctx.trace_id is not None:
                self._finish_trace(ctx, method, path, status, started_perf, elapsed_ms)

    def _finish_trace(
        self,
        ctx: _RequestContext,
        method: str,
        path: str,
        status: int,
        started_perf: float,
        elapsed_ms: float,
    ) -> None:
        """Close out a request's trace: root span, tree build, hand-off.

        The ``serve.request`` root is recorded by hand rather than through
        :func:`~repro.obs.tracer.span` because concurrent requests
        interleave on the event-loop thread — the thread-local nesting
        stack would mis-parent one request's spans under another's root.
        The trace id, not the stack, is what ties the tree together:
        :func:`build_trace_tree` adopts every parentless in-trace span
        (batch and simulation work, on the loop or executor threads)
        under this root.
        """
        tr = obs_tracer()
        tr.record(
            SpanRecord(
                span_id=tr.next_id(),
                parent_id=None,
                name=REQUEST_SPAN,
                start=started_perf,
                duration_ms=elapsed_ms,
                thread_id=threading.get_ident(),
                attrs={"method": method, "path": path, "status": status},
                trace_id=ctx.trace_id,
                links=tuple(ctx.links),
            )
        )
        self.traces.add(build_trace_tree(ctx.trace_id, tr.pop_trace(ctx.trace_id)))
        tr.trim(_TRACE_RECORD_CAP)

    def _resolve_handler(
        self, method: str, path: str
    ) -> Callable[[Any, "_RequestContext"], Awaitable[Union[Dict[str, Any], str]]]:
        routes: Dict[Tuple[str, str], Callable[[Any, Any], Awaitable[Any]]] = {
            ("POST", "/solve"): self._handle_solve,
            ("POST", "/simulate"): self._handle_simulate,
            ("POST", "/table1"): self._handle_table1,
            ("GET", "/healthz"): self._handle_healthz,
            ("GET", "/metrics"): self._handle_metrics,
            ("GET", "/debug/traces"): self._handle_debug_traces,
            ("GET", "/debug/inflight"): self._handle_debug_inflight,
            ("GET", "/debug/store"): self._handle_debug_store,
        }
        handler = routes.get((method, path))
        if handler is None:
            known_paths = {p for _, p in routes}
            if path in known_paths:
                raise _HttpReply(
                    405, error_payload(ERROR_BAD_REQUEST, f"{method} not allowed on {path}")
                )
            raise _HttpReply(404, error_payload(ERROR_NOT_FOUND, f"no route {path}"))
        return handler

    @staticmethod
    def _parse_body(body: bytes) -> Any:
        if not body:
            return {}
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequestError(f"body is not valid JSON: {exc}") from exc

    # -- the solve path ----------------------------------------------------

    async def _await_solution(
        self, spec: SolveSpec, deadline: Optional[float], ctx: _RequestContext
    ) -> Tuple[Any, str]:
        """Answer a spec from memory, or submit it and await its shared outcome.

        The spec is reduced to its origin-normalized twin once, and its
        canonical solve key and digest are computed once, here.  So requests
        that differ by translation share one cache entry and coalesce onto
        one solve.  The shared solution comes back with the caller's own
        pattern re-attached — bit-identical to what a direct in-process
        solve of the caller's pattern returns.

        Order: identity, then the expired-deadline check, then the
        in-memory solve cache — a hit is answered right here on the loop
        (no coalescer job, executor hop, or store read) — and only a miss
        is submitted to the coalescer with its key and digest.  Returns
        ``(solution, canonical_digest)``.  When the request
        coalesces onto another request's in-flight job, the leader's trace
        id lands in ``ctx.links``.
        """
        assert self.coalescer is not None
        canon_spec, _corner = spec.canonicalized()
        key = solve_cache.canonical_solve_key(
            canon_spec.pattern.offsets,
            spec.shape[-1] if spec.shape else None,
            spec.n_max,
            spec.objective.value,
            spec.delta_max,
        )
        digest = solve_cache.canonical_solve_digest(key)
        # An already-expired deadline is rejected before any lookup, so a
        # dead request never consumes queue capacity and a cached answer
        # does not mask the deadline.
        remaining = None if deadline is None else deadline - time.monotonic()
        if remaining is not None and remaining <= 0:
            obs_registry().counter("serve.deadline.expired").inc()
            raise _HttpReply(
                HTTP_STATUS[ERROR_DEADLINE],
                error_payload(ERROR_DEADLINE, "deadline expired before solve"),
            )
        hit = solve_cache.cache().get(key, spec.pattern)
        if hit is not None:
            if self.store is not None:
                # Keep the store's eviction order honest: a key served from
                # memory never reaches SolutionStore.get.
                self.store.touch(digest)
            return hit, digest
        try:
            future, leader_trace = self.coalescer.submit_traced(
                canon_spec, key, digest, trace_id=ctx.trace_id
            )
            if (
                leader_trace is not None
                and leader_trace != ctx.trace_id
                and leader_trace not in ctx.links
            ):
                ctx.links.append(leader_trace)
        except QueueFullError as exc:
            raise _HttpReply(
                HTTP_STATUS[ERROR_QUEUE_FULL],
                error_payload(
                    ERROR_QUEUE_FULL, str(exc), retry_after_s=exc.retry_after_s
                ),
                headers={"Retry-After": f"{max(1, round(exc.retry_after_s))}"},
            )
        try:
            # Shield: the future is shared with other coalesced waiters and
            # with the store — this request timing out must not cancel it.
            outcome: Outcome = await asyncio.wait_for(
                asyncio.shield(future), timeout=remaining
            )
            _check_deadline(deadline)
        except asyncio.TimeoutError:
            obs_registry().counter("serve.deadline.expired").inc()
            raise _HttpReply(
                HTTP_STATUS[ERROR_DEADLINE],
                error_payload(ERROR_DEADLINE, "deadline expired during solve"),
            )
        if outcome[0] != "ok":
            _, code, message = outcome
            raise _HttpReply(
                HTTP_STATUS.get(code, 500), error_payload(code, message)
            )
        return solve_cache.reattach(outcome[1], spec.pattern), digest

    @staticmethod
    def _deadline_from(doc: Any) -> Optional[float]:
        timeout_s = parse_timeout_s(doc)
        return None if timeout_s is None else time.monotonic() + timeout_s

    async def _handle_solve(self, doc: Any, ctx: _RequestContext) -> Dict[str, Any]:
        deadline = self._deadline_from(doc)
        spec = parse_solve_spec(doc)
        solution, digest = await self._await_solution(spec, deadline, ctx)
        return solution_payload(solution, spec, digest)

    async def _handle_simulate(self, doc: Any, ctx: _RequestContext) -> Dict[str, Any]:
        deadline = self._deadline_from(doc)
        sim: SimulateSpec = parse_simulate_spec(doc)
        solution, digest = await self._await_solution(sim.solve, deadline, ctx)
        mapping = BankMapping(solution=solution, shape=sim.solve.shape)
        trace_id = ctx.trace_id

        def _run_simulation():
            from ..sim.memsim import simulate_sweep

            def _sweep():
                return simulate_sweep(
                    mapping,
                    step=sim.step,
                    limit=sim.limit,
                    ports_per_bank=sim.ports_per_bank,
                    verify=sim.verify,
                    engine=sim.engine,
                )

            if trace_id is None:
                return _sweep()
            # An executor thread inherits no request context; re-enter the
            # trace (the loop already runs under it) so the sweep's spans
            # land in this request's tree.
            with trace(trace_id):
                with span("serve.simulate", engine=sim.engine):
                    return _sweep()

        remaining = None if deadline is None else deadline - time.monotonic()
        if remaining is not None and remaining <= 0:
            raise _HttpReply(
                HTTP_STATUS[ERROR_DEADLINE],
                error_payload(ERROR_DEADLINE, "deadline expired before simulation"),
            )
        inline = sim.work_estimate() <= INLINE_WORK_BUDGET
        obs_registry().counter(
            "serve.work.inline" if inline else "serve.work.executor"
        ).inc()
        try:
            if inline:
                report = _run_simulation()
            else:
                report = await asyncio.wait_for(
                    asyncio.get_running_loop().run_in_executor(None, _run_simulation),
                    timeout=remaining,
                )
            _check_deadline(deadline)
        except asyncio.TimeoutError:
            raise _HttpReply(
                HTTP_STATUS[ERROR_DEADLINE],
                error_payload(ERROR_DEADLINE, "deadline expired during simulation"),
            )
        payload = solution_payload(solution, sim.solve, digest)
        payload["report"] = report.to_dict()
        return payload

    async def _handle_table1(self, doc: Any, _ctx: _RequestContext) -> Dict[str, Any]:
        doc = require_mapping(doc)
        deadline = self._deadline_from(doc)
        from ..patterns.library import BENCHMARKS

        benchmarks = doc.get("benchmarks")
        if benchmarks is not None:
            if not isinstance(benchmarks, list) or not benchmarks:
                raise BadRequestError("benchmarks must be a non-empty list")
            not_names = [b for b in benchmarks if not isinstance(b, str)]
            if not_names:
                raise BadRequestError(f"benchmarks must be strings, got {not_names!r}")
            unknown = [b for b in benchmarks if b not in BENCHMARKS]
            if unknown:
                raise BadRequestError(f"unknown benchmarks: {unknown}")
            repeated = sorted(b for b, n in Counter(benchmarks).items() if n > 1)
            if repeated:
                raise BadRequestError(f"benchmarks repeat: {repeated}")
        repetitions = doc.get("repetitions", 1)
        if isinstance(repetitions, bool) or not isinstance(repetitions, int) or repetitions < 1:
            raise BadRequestError(f"repetitions must be a positive integer, got {repetitions!r}")
        if repetitions > MAX_TABLE1_REPETITIONS:
            raise BadRequestError(
                f"repetitions {repetitions} is above the cap of {MAX_TABLE1_REPETITIONS}"
            )

        def _build():
            from ..eval.table1 import build_table

            table = build_table(benchmarks, time_repetitions=repetitions)
            return {
                "rows": [
                    {
                        "benchmark": row.benchmark,
                        "ours": row.ours.to_dict(),
                        "ltb": row.ltb.to_dict(),
                        "storage": {k: list(v) for k, v in row.storage.items()},
                    }
                    for row in table.rows
                ],
                "average_storage_improvement": table.average_storage_improvement,
                "average_operations_improvement": table.average_operations_improvement,
            }

        loop = asyncio.get_running_loop()
        remaining = None if deadline is None else deadline - time.monotonic()
        try:
            return await asyncio.wait_for(
                loop.run_in_executor(None, _build), timeout=remaining
            )
        except asyncio.TimeoutError:
            raise _HttpReply(
                HTTP_STATUS[ERROR_DEADLINE],
                error_payload(ERROR_DEADLINE, "deadline expired during table build"),
            )

    # -- introspection -----------------------------------------------------

    async def _handle_healthz(self, _doc: Any, _ctx: _RequestContext) -> Dict[str, Any]:
        assert self.coalescer is not None
        return {
            "status": "ok",
            "uptime_s": time.monotonic() - self._started_at,
            "requests": self._requests,
            "pending": self.coalescer.pending,
            "batch_max": self.coalescer.batch_max,
            "max_pending": self.coalescer.max_pending,
            "debug": self.debug,
            "native": native.available(),
            "store": self.store.stats() if self.store is not None else None,
        }

    async def _handle_metrics(self, _doc: Any, _ctx: _RequestContext) -> str:
        # Mirror the store's occupancy into gauges (and make sure its
        # traffic counters exist even before the first lookup) so the
        # Prometheus text always carries the full serve.store.* family.
        registry = obs_registry()
        if self.store is not None:
            stats = self.store.stats()
            registry.gauge("serve.store.entries").set(stats["entries"])
            registry.gauge("serve.store.bytes").set(stats["bytes"])
            registry.gauge("serve.store.max_entries").set(stats["max_entries"])
            for name in ("hits", "misses", "writes", "evictions"):
                registry.counter(f"serve.store.{name}").inc(0)
        # The in-memory solve cache's lifetime tallies, as gauges (the
        # matching solve.cache.* counters reset with the registry; the
        # instance tallies don't, and a hit-rate derives from this pair).
        mem = solve_cache.cache()
        registry.gauge("serve.solve_cache.hits").set(mem.hits)
        registry.gauge("serve.solve_cache.misses").set(mem.misses)
        registry.gauge("serve.solve_cache.evictions").set(mem.evictions)
        registry.gauge("serve.solve_cache.entries").set(len(mem))
        registry.gauge("serve.solve_cache.maxsize").set(mem.maxsize)
        return to_prometheus_text()

    # -- debug surface (off unless debug=True) -----------------------------

    def _require_debug(self) -> None:
        if not self.debug:
            raise _HttpReply(
                404,
                error_payload(
                    ERROR_NOT_FOUND,
                    "debug endpoints are disabled (start the server with --debug)",
                ),
            )

    async def _handle_debug_traces(self, _doc: Any, _ctx: _RequestContext) -> Dict[str, Any]:
        self._require_debug()
        return {
            "enabled": obs_state.enabled(),
            "count": len(self.traces),
            "traces": self.traces.snapshot(),
        }

    async def _handle_debug_inflight(self, _doc: Any, _ctx: _RequestContext) -> Dict[str, Any]:
        self._require_debug()
        assert self.coalescer is not None
        return self.coalescer.debug_state()

    async def _handle_debug_store(self, _doc: Any, _ctx: _RequestContext) -> Dict[str, Any]:
        self._require_debug()
        return {"store": self.store.stats() if self.store is not None else None}


class ThreadedServer:
    """A :class:`PartitionServer` running its own event loop on a thread.

    The synchronous embedding used by tests, benchmarks, and the CI smoke:
    construction blocks until the port is bound; :meth:`stop` blocks until
    the loop has fully wound down.
    """

    def __init__(self, **kwargs: Any) -> None:
        self.server = PartitionServer(**kwargs)
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30.0)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._started.is_set():  # pragma: no cover - defensive
            raise RuntimeError("server failed to start within 30s")

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.host

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
        except BaseException as exc:  # pragma: no cover - bind failures
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self.server.stop())
            self._loop.close()

    def stop(self) -> None:
        """Shut the server down and join its thread."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30.0)

    def __enter__(self) -> "ThreadedServer":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.stop()


def serve_in_thread(**kwargs: Any) -> ThreadedServer:
    """Start a server on a daemon thread; returns once the port is bound."""
    return ThreadedServer(**kwargs)
