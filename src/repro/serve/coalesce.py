"""Request intake: coalescing, micro-batching, and the solve tier.

The coalescer handles the requests the event loop could not answer from
the in-memory solve cache (:mod:`repro.core.cache`).  The server computes
each request's identity once — the canonical solve key (the
symmetry-quotient identity) and its :func:`~repro.core.cache.stable_digest`
— and hands both in with the canonical spec, so nothing here recomputes
them.  Partitioning solves are CPU-bound, so the intake path:

1. **Coalesces** — requests whose digest matches a queued or in-flight
   job attach to that job's future instead of scheduling work.  Sixteen
   clients asking for translated — or reflected, or leading-axis permuted
   — copies of the same stencil cost exactly one solve.
2. **Micro-batches** — queued distinct jobs drain in batches (up to
   ``batch_max``), one batch at a time.  A batch whose specs' work
   estimates (:meth:`~repro.serve.protocol.SolveSpec.work_estimate`) sum
   to at most :data:`~repro.serve.protocol.INLINE_WORK_BUDGET` runs right
   on the event loop: a small cold solve takes ~0.1 ms, less than the
   thread handoff it would otherwise pay.  A batch over the budget, or
   one carrying the test hook ``solve_delay_s``, takes one executor hop.
   The ``serve.work.inline`` and ``serve.work.executor`` counters say
   which way each batch went.
3. **Checks the store first** — a :class:`~repro.serve.store.SolutionStore`
   hit resolves the job without any solve, which is what makes a warm
   restart serve its old working set with zero new solves.
4. **Solves in process** — the misses run through the DAG scheduler
   (:func:`repro.sched.map_tasks`, digest-keyed), serially, wherever the
   batch runs, with ``solve(..., cache=False)``: the loop has already
   missed the in-memory cache for them.  The spec is already canonical,
   and the loop's ``canonicalize`` memoized it as its own representative,
   so the solver's ``canonicalize`` is a memo hit.
5. **Appends** — each fresh solution is appended to the store's log, one
   ``os.write`` per solve.

Every solution a batch produces — store hit or fresh solve — is put into
the in-memory solve cache under the job's key, so the next request for it
is answered on the loop.  Batches run one at a time, so exactly one batch,
on the loop or on its thread, writes the cache at any moment.  Cancelling
:meth:`Coalescer.run` cannot stop a batch already on its thread;
:meth:`Coalescer.drain` waits for it, so a stopping server stores what
that batch solved before it closes the store.

Jobs resolve to *outcome tuples* — ``("ok", PartitionSolution)`` or
``("err", code, message)`` — rather than raised exceptions, because one
outcome may fan out to many waiters and an exception instance must not be
shared across tasks that may add context to it.

Backpressure is a hard bound on distinct queued-plus-in-flight jobs:
:meth:`Coalescer.submit_traced` raises :class:`QueueFullError` (the server
maps it to ``429`` + ``Retry-After``) instead of queueing unboundedly.
Attaching to an existing job is always allowed — it costs no work.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, ContextManager, Dict, Hashable, List, Optional, Tuple

from ..core import cache as solve_cache
from ..core.solver import solve
from ..errors import InfeasibleConstraintError, ReproError
from ..obs import state as obs_state
from ..obs.metrics import registry as obs_registry
from ..obs.tracecontext import trace
from ..obs.tracer import span
from ..sched import map_tasks
from .protocol import (
    ERROR_INFEASIBLE,
    ERROR_INTERNAL,
    ERROR_SHUTTING_DOWN,
    INLINE_WORK_BUDGET,
    SolveSpec,
)
from .store import SolutionStore

#: Outcome tuple: ("ok", solution) | ("err", code, message).
Outcome = Tuple[Any, ...]

#: A batch item: (digest, canonical solve key, canonical spec, trace id of
#: the leader request or None).
BatchItem = Tuple[str, Hashable, SolveSpec, Optional[str]]


def _trace_ctx(trace_id: Optional[str]) -> "ContextManager[Any]":
    """Enter a request's trace for batch work done on its behalf, if any."""
    return trace(trace_id) if trace_id is not None else nullcontext()


class QueueFullError(ReproError):
    """The intake queue is at capacity; retry after ``retry_after_s``."""

    def __init__(self, pending: int, retry_after_s: float) -> None:
        super().__init__(
            f"solve queue is full ({pending} jobs pending); "
            f"retry in {retry_after_s:g}s"
        )
        self.pending = pending
        self.retry_after_s = retry_after_s


def _solve_outcome(spec: SolveSpec) -> Outcome:
    # cache=False: the loop has already missed the in-memory cache for this
    # key, and _execute_batch fills it with the result.
    try:
        result = solve(
            spec.pattern,
            shape=spec.shape,
            n_max=spec.n_max,
            objective=spec.objective,
            delta_max=spec.delta_max,
            cache=False,
        )
        return ("ok", result.solution)
    except InfeasibleConstraintError as exc:
        return ("err", ERROR_INFEASIBLE, str(exc))
    except Exception as exc:  # noqa: BLE001 - a worker must never leak raises
        return ("err", ERROR_INTERNAL, f"{type(exc).__name__}: {exc}")


def _solve_task(item: BatchItem) -> Outcome:
    """One canonical solve, returning only the canonical
    :class:`~repro.core.partition.PartitionSolution` — mappings are shape
    arithmetic the requester rebuilds.

    The leader's trace id travels in the item payload (neither the batch
    thread nor the coalescer's own task carries the request's context), so
    a ``serve.solve`` span recorded here lands in the requesting trace's
    tree.
    """
    digest, _key, spec, trace_id = item
    if not obs_state.enabled():
        return _solve_outcome(spec)
    with _trace_ctx(trace_id):
        with span(
            "serve.solve", digest=digest[:12], pattern=spec.pattern.name or "?"
        ):
            return _solve_outcome(spec)


def _store_lookup(
    store: SolutionStore, digest: str, spec: SolveSpec, trace_id: Optional[str]
):
    if not obs_state.enabled():
        return store.get(digest, spec.pattern)
    with _trace_ctx(trace_id):
        with span("serve.store.get", digest=digest[:12]) as lookup:
            stored = store.get(digest, spec.pattern)
            lookup.annotate(hit=stored is not None)
            return stored


def _execute_batch(
    batch: List[BatchItem],
    store: Optional[SolutionStore],
    solve_delay_s: float,
) -> Dict[str, Outcome]:
    """Resolve one micro-batch of distinct jobs, on the loop or a thread.

    Store hits short-circuit.  The remainder solves in process through the
    scheduler's :func:`~repro.sched.map_tasks`, keyed by canonical digest
    (the coalescer already deduplicates upstream, so the keys are belt-and-
    braces against a caller that batches duplicates directly), and fresh
    solutions are appended to the store.  Every solution, stored or
    fresh, goes into the in-memory solve cache under its item's key.  Each
    item carries its leader's trace id, so store lookups and solves span
    into the right request tree even though the batch serves many requests
    at once.
    """
    if solve_delay_s > 0:
        time.sleep(solve_delay_s)
    memory = solve_cache.cache()
    outcomes: Dict[str, Outcome] = {}
    to_solve: List[BatchItem] = []
    for item in batch:
        digest, key, spec, trace_id = item
        stored = (
            _store_lookup(store, digest, spec, trace_id)
            if store is not None
            else None
        )
        if stored is not None:
            memory.put(key, stored)
            outcomes[digest] = ("ok", stored)
        else:
            to_solve.append(item)
    if to_solve:
        results = map_tasks(
            _solve_task,
            to_solve,
            keys=[digest for digest, _key, _spec, _tid in to_solve],
        )
        for (digest, key, spec, _trace_id), outcome in zip(to_solve, results):
            outcomes[digest] = outcome
            if outcome[0] != "ok":
                continue
            memory.put(key, outcome[1])
            if store is not None:
                store.put(
                    digest,
                    outcome[1],
                    meta={"pattern": spec.pattern.name, "m": spec.pattern.size},
                )
    return outcomes


@dataclass
class _Job:
    spec: SolveSpec
    key: Hashable
    future: "asyncio.Future[Outcome]"
    trace_id: Optional[str] = None
    submitted_at: float = 0.0


@dataclass
class _Flight:
    """An in-flight job: its shared future plus debug/trace provenance."""

    future: "asyncio.Future[Outcome]"
    trace_id: Optional[str] = None
    started_at: float = 0.0


class Coalescer:
    """Single-event-loop intake queue; see the module docstring.

    Not thread-safe by design: :meth:`submit_traced` must be called from
    the event loop that runs :meth:`run` (the store and solve tiers it drives
    *are* thread safe).
    """

    def __init__(
        self,
        store: Optional[SolutionStore] = None,
        batch_max: int = 32,
        max_pending: int = 256,
        retry_after_s: float = 1.0,
        solve_delay_s: float = 0.0,
    ) -> None:
        if batch_max < 1:
            raise ValueError(f"batch_max must be positive, got {batch_max}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be positive, got {max_pending}")
        self.store = store
        self.batch_max = batch_max
        self.max_pending = max_pending
        self.retry_after_s = retry_after_s
        self.solve_delay_s = solve_delay_s
        self._queued: "OrderedDict[str, _Job]" = OrderedDict()
        self._inflight: Dict[str, _Flight] = {}
        self._wake = asyncio.Event()
        self._closed = False
        # The batch on the executor thread, which cancelling run() cannot stop.
        self._running: "Optional[asyncio.Future[Dict[str, Outcome]]]" = None

    # -- intake ------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Distinct jobs queued or in flight (the backpressure quantity)."""
        return len(self._queued) + len(self._inflight)

    def submit_traced(
        self,
        spec: SolveSpec,
        key: Hashable,
        digest: str,
        trace_id: Optional[str] = None,
    ) -> Tuple["asyncio.Future[Outcome]", Optional[str]]:
        """Queue a canonical solve (or attach to its twin); returns its future.

        ``spec`` is the canonical-frame spec, ``key`` its canonical solve
        key and ``digest`` the key's :func:`~repro.core.cache.stable_digest`
        — the caller computes them once per request.  The returned future
        is shared between every coalesced requester: callers must not
        cancel it directly (wrap waits in ``asyncio.shield``) and must map
        the canonical solution back into their own frame.

        Returns ``(future, leader_trace_id)``: ``leader_trace_id`` is
        ``None`` when this request *is* the leader (it scheduled the job,
        its trace will contain the solve spans) and the leader's trace id
        when the request coalesced onto existing work — the caller records
        that as a span *link* instead of duplicating the leader's subtree.
        """
        registry = obs_registry()
        if self._closed:
            loop = asyncio.get_running_loop()
            future: "asyncio.Future[Outcome]" = loop.create_future()
            future.set_result(
                ("err", ERROR_SHUTTING_DOWN, "server is shutting down")
            )
            return future, None
        inflight = self._inflight.get(digest)
        if inflight is not None:
            registry.counter("serve.coalesce.attached").inc()
            return inflight.future, inflight.trace_id
        queued = self._queued.get(digest)
        if queued is not None:
            registry.counter("serve.coalesce.attached").inc()
            return queued.future, queued.trace_id
        if self.pending >= self.max_pending:
            registry.counter("serve.coalesce.rejected").inc()
            raise QueueFullError(self.pending, retry_after_s=self.retry_after_s)
        loop = asyncio.get_running_loop()
        job = _Job(
            spec=spec,
            key=key,
            future=loop.create_future(),
            trace_id=trace_id,
            submitted_at=time.monotonic(),
        )
        self._queued[digest] = job
        registry.counter("serve.coalesce.scheduled").inc()
        self._wake.set()
        return job.future, None

    # -- the batch loop ----------------------------------------------------

    async def run(self) -> None:
        """Drain the queue forever in micro-batches; cancel to stop."""
        loop = asyncio.get_running_loop()
        registry = obs_registry()
        try:
            while True:
                await self._wake.wait()
                batch: List[BatchItem] = []
                futures: Dict[str, "asyncio.Future[Outcome]"] = {}
                while self._queued and len(batch) < self.batch_max:
                    digest, job = self._queued.popitem(last=False)
                    self._inflight[digest] = _Flight(
                        future=job.future,
                        trace_id=job.trace_id,
                        started_at=time.monotonic(),
                    )
                    batch.append((digest, job.key, job.spec, job.trace_id))
                    futures[digest] = job.future
                if not self._queued:
                    self._wake.clear()
                if not batch:
                    continue
                registry.histogram("serve.batch.size").observe(len(batch))
                inline = self.solve_delay_s <= 0 and (
                    sum(spec.work_estimate() for _d, _k, spec, _t in batch)
                    <= INLINE_WORK_BUDGET
                )
                try:
                    if inline:
                        registry.counter("serve.work.inline").inc()
                        outcomes = _execute_batch(batch, self.store, 0.0)
                    else:
                        registry.counter("serve.work.executor").inc()
                        self._running = loop.run_in_executor(
                            None, _execute_batch, batch, self.store, self.solve_delay_s
                        )
                        outcomes = await asyncio.shield(self._running)
                except Exception as exc:  # noqa: BLE001 - keep the loop alive
                    outcomes = {
                        digest: ("err", ERROR_INTERNAL, f"batch failed: {exc}")
                        for digest, _key, _spec, _tid in batch
                    }
                for digest, future in futures.items():
                    self._inflight.pop(digest, None)
                    if not future.done():
                        future.set_result(
                            outcomes.get(
                                digest,
                                ("err", ERROR_INTERNAL, "job produced no outcome"),
                            )
                        )
                if inline:
                    # Let the rest of the loop run before the next batch, so
                    # a deep queue holds the loop one budget at a time.
                    await asyncio.sleep(0)
        finally:
            self.close()

    async def drain(self) -> None:
        """Wait until the batch on the executor thread, if any, has finished.

        Cancelling :meth:`run` fails the batch's waiters but cannot stop
        its thread, which still stores what it solves; a stop awaits this
        before it closes the store.
        """
        running, self._running = self._running, None
        if running is not None:
            await asyncio.wait([running])

    def close(self) -> None:
        """Refuse new work and fail everything still queued or in flight."""
        self._closed = True
        shutdown: Outcome = ("err", ERROR_SHUTTING_DOWN, "server is shutting down")
        for job in self._queued.values():
            if not job.future.done():
                job.future.set_result(shutdown)
        self._queued.clear()
        for flight in self._inflight.values():
            if not flight.future.done():
                flight.future.set_result(shutdown)
        self._inflight.clear()

    # -- debug -------------------------------------------------------------

    def debug_state(self) -> Dict[str, Any]:
        """Point-in-time view of the intake queue for ``/debug/inflight``."""
        now = time.monotonic()
        return {
            "pending": self.pending,
            "max_pending": self.max_pending,
            "queued": [
                {
                    "digest": digest,
                    "pattern": job.spec.pattern.name,
                    "age_s": round(now - job.submitted_at, 6),
                    "trace_id": job.trace_id,
                }
                for digest, job in self._queued.items()
            ],
            "inflight": [
                {
                    "digest": digest,
                    "age_s": round(now - flight.started_at, 6),
                    "trace_id": flight.trace_id,
                }
                for digest, flight in self._inflight.items()
            ],
        }
