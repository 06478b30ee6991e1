"""Deterministic DAG runtime: ready-queue execution with shared-solve dedup.

Every evaluation pipeline in this repo — Table 1 rows, case-study chains,
sweep grids, verify suites, the serve micro-batch tier — is a DAG
(pattern → solve → simulate → aggregate) whose upstream solve nodes are
heavily shared.  This runtime is the repo's only executor: a flat map is
the degenerate DAG (:func:`map_tasks`), and where structure exists shared
work runs once and nothing barriers on the slowest element.

Semantics
---------
* **Topological ready-queue execution** — tasks run as soon as their
  dependencies finish; ties break on registration order, so a serial run
  (``jobs`` <= 1) executes in one deterministic topological order.
* **Digest-keyed deduplication** — tasks carrying equal keys (by
  :func:`repro.core.cache.stable_digest`) collapse onto one execution;
  every duplicate receives the *identical* result object, so N grid cells
  sharing one canonical pattern trigger exactly one solve whose result
  fans out bit-identically.
* **Per-task placement** — ``inline`` in the scheduler loop for
  sub-millisecond arithmetic, ``process`` for heavy solves/simulations
  (shipped through a registry-dump + span-merge channel, so worker
  metrics and trace trees reassemble in the parent).
* **Streaming** — :func:`run_stream` yields a :class:`TaskResult` the
  moment each task settles; there is no global barrier, so callers can
  emit finished rows while slower subgraphs are still running.
* **Subtree failure isolation** — an exception fails only its task;
  transitive dependents are cancelled with the failure surfaced per node
  (:class:`DependencyFailedError`), and unrelated subgraphs keep running.
* **Crash resilience** — a process worker that dies (OOM kill, hard
  ``exit``) breaks the pool; affected tasks are rescheduled once on a
  fresh pool before being failed.

Telemetry: ``sched.tasks_total`` / ``sched.dedup_hits`` /
``sched.rescheduled`` / ``sched.cancelled`` counters and the
``sched.task_ms`` log histogram land in the process-global registry
(visible on ``/metrics`` and every ``--emit-metrics`` snapshot), and the
caller's trace id rides into every worker so PR 6's span trees still
reassemble across the process border.
"""

from __future__ import annotations

import heapq
import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.cache import stable_digest
from ..errors import ReproError
from ..obs import state as obs_state
from ..obs.metrics import registry as obs_registry
from ..obs.tracecontext import current_trace_id, trace
from ..obs.tracer import tracer as obs_tracer
from .task import Task

#: Times a task whose process worker crashed is re-queued before failing.
RESCHEDULE_LIMIT = 1

#: Registry names (counters + the per-task wall-clock log histogram).
TASKS_TOTAL = "sched.tasks_total"
DEDUP_HITS = "sched.dedup_hits"
RESCHEDULED = "sched.rescheduled"
CANCELLED = "sched.cancelled"
TASK_HISTOGRAM = "sched.task_ms"


class CycleError(ReproError):
    """The submitted task graph contains a dependency cycle."""

    def __init__(self, names: Sequence[str]) -> None:
        super().__init__("task dependency cycle: " + " -> ".join(names))
        self.cycle = tuple(names)


class DependencyFailedError(ReproError):
    """A task was cancelled because an upstream dependency failed."""

    def __init__(self, task: Task, dep: Task, cause: BaseException) -> None:
        super().__init__(
            f"task {task.name!r} cancelled: dependency {dep.name!r} "
            f"{'was cancelled' if isinstance(cause, DependencyFailedError) else 'failed'}"
            f" ({type(cause).__name__}: {cause})"
        )
        self.task = task
        self.dep = dep
        self.__cause__ = cause


@dataclass
class TaskResult:
    """One settled task, as streamed by :func:`run_stream`.

    ``state`` is ``"done"`` (value valid), ``"failed"`` (``error`` is the
    task's own exception), or ``"cancelled"`` (``error`` is a
    :class:`DependencyFailedError` naming the failed ancestor).
    ``deduped`` marks results that fanned out from another task's
    execution; their ``duration_ms`` is 0 because no work ran.
    """

    task: Task
    state: str
    value: Any = None
    error: Optional[BaseException] = None
    attempts: int = 0
    deduped: bool = False
    duration_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return self.state == "done"


# -- worker entry points (top-level: picklable) ---------------------------


def _process_entry(payload: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """Run one task in a pool worker; ship metrics/spans home with the value.

    The worker-side half of the dump/merge channel: the process-global
    registry is reset first (a forked worker inherits an opaque copy of the
    parent's metrics), the task runs under the caller's trace id, and the
    return tuple carries the registry delta plus any spans recorded, for
    the parent to merge in completion order.
    """
    fn, args, dep_values, trace_id, traced = payload
    registry = obs_registry()
    registry.reset()
    tr = obs_tracer()
    mark = tr.mark()
    worker_id = f"pid{os.getpid()}"
    started = time.perf_counter()
    ctx = trace(trace_id) if trace_id is not None else nullcontext()
    with ctx:
        value = fn(*args, *dep_values)
    duration_ms = (time.perf_counter() - started) * 1000.0
    events = tr.dump_since(mark) if traced else []
    return value, registry.dump(worker_id=worker_id), events, worker_id, duration_ms


def _resolve_workers(jobs: Optional[int], n_tasks: int) -> int:
    """Effective worker count: ``None``/``1`` is serial, never more than tasks.

    ``jobs <= 0`` raises — "zero workers" is always an upstream arithmetic
    bug (a miscomputed CLI default, a bad division), never a serial request.
    """
    if jobs is None:
        return 1
    if jobs <= 0:
        raise ValueError(
            f"jobs must be a positive worker count (or None for serial), got {jobs}"
        )
    if jobs == 1 or n_tasks <= 1:
        return 1
    return min(jobs, n_tasks)


class _Run:
    """One scheduler execution: plan (validate, dedup) then iterate."""

    def __init__(self, roots: Iterable[Task], jobs: Optional[int]) -> None:
        self.order = self._register(roots)
        self.index = {t: i for i, t in enumerate(self.order)}
        self.alias_of: Dict[Task, Task] = {}
        self.aliases: Dict[Task, List[Task]] = {}
        self._dedup()
        self.executables = [t for t in self.order if t not in self.alias_of]
        self.workers = _resolve_workers(jobs, len(self.executables))
        self.resolved_deps: Dict[Task, List[Task]] = {
            t: [self._resolve(d) for d in t.deps] for t in self.executables
        }
        self.pending: Dict[Task, int] = {
            t: len(set(self.resolved_deps[t])) for t in self.executables
        }
        self.dependents: Dict[Task, List[Task]] = {t: [] for t in self.executables}
        for t in self.executables:
            for dep in set(self.resolved_deps[t]):
                self.dependents[dep].append(t)
        self.results: Dict[Task, TaskResult] = {}
        self.attempts: Dict[Task, int] = {}
        self._ready: List[Tuple[int, Task]] = []
        for t in self.executables:
            if self.pending[t] == 0:
                heapq.heappush(self._ready, (self.index[t], t))
        self._inflight: Dict[Future, Task] = {}
        self._procs: Optional[ProcessPoolExecutor] = None
        self._traced = obs_state.enabled()
        self._trace_id = current_trace_id()
        self._parent_span = obs_tracer().current_parent() if self._traced else None

    # -- planning ---------------------------------------------------------

    @staticmethod
    def _register(roots: Iterable[Task]) -> List[Task]:
        """Dependency-first registration order; raises on cycles up front."""
        order: List[Task] = []
        VISITING, DONE = 0, 1
        state: Dict[Task, int] = {}
        path: List[Task] = []
        for root in roots:
            if state.get(root) == DONE:
                continue
            stack: List[Tuple[Task, Iterator[Task]]] = [(root, iter(root.deps))]
            state[root] = VISITING
            path.append(root)
            while stack:
                task, deps = stack[-1]
                dep = next(deps, None)
                if dep is None:
                    stack.pop()
                    path.pop()
                    state[task] = DONE
                    order.append(task)
                    continue
                dep_state = state.get(dep)
                if dep_state == DONE:
                    continue
                if dep_state == VISITING:
                    start = path.index(dep)
                    raise CycleError(
                        [t.name for t in path[start:]] + [dep.name]
                    )
                state[dep] = VISITING
                path.append(dep)
                stack.append((dep, iter(dep.deps)))
        return order

    def _dedup(self) -> None:
        primary: Dict[str, Task] = {}
        for task in self.order:
            if task.key is None:
                continue
            digest = stable_digest(task.key)
            rep = primary.get(digest)
            if rep is None:
                primary[digest] = task
            else:
                self.alias_of[task] = rep
                self.aliases.setdefault(rep, []).append(task)

    def _resolve(self, task: Task) -> Task:
        return self.alias_of.get(task, task)

    # -- placement / submission -------------------------------------------

    def _placement(self, task: Task) -> str:
        if self.workers == 1:
            return "inline"
        if task.placement == "auto":
            return "process"
        return task.placement

    def _dep_values(self, task: Task) -> List[Any]:
        return [self.results[self._resolve(d)].value for d in task.deps]

    def _submit(self, task: Task) -> Future:
        self.attempts[task] = self.attempts.get(task, 0) + 1
        if self._procs is None:
            self._procs = ProcessPoolExecutor(max_workers=self.workers)
        payload = (
            task.fn,
            task.args,
            self._dep_values(task),
            self._trace_id,
            self._traced,
        )
        return self._procs.submit(_process_entry, payload)

    def _broken_pool(self) -> None:
        if self._procs is not None:
            self._procs.shutdown(wait=False, cancel_futures=True)
            self._procs = None

    def _shutdown(self) -> None:
        # wait=True: free on normal exhaustion (nothing is running), and on
        # abandonment it joins the pool threads instead of racing their
        # atexit wakeup pipe ("Bad file descriptor" noise at interpreter exit).
        if self._procs is not None:
            self._procs.shutdown(wait=True, cancel_futures=True)
            self._procs = None

    # -- completion --------------------------------------------------------

    def _settle(self, result: TaskResult) -> Iterator[TaskResult]:
        """Record one primary task's outcome; fan out to aliases/dependents."""
        registry = obs_registry()
        task = result.task
        self.results[task] = result
        if result.state != "cancelled":
            registry.counter(TASKS_TOTAL).inc()
            registry.log_histogram(TASK_HISTOGRAM).observe(result.duration_ms)
        yield result
        for alias in self.aliases.get(task, ()):
            shadow = TaskResult(
                task=alias,
                state=result.state,
                value=result.value,
                error=result.error,
                attempts=result.attempts,
                deduped=True,
            )
            self.results[alias] = shadow
            if result.state == "done":
                registry.counter(DEDUP_HITS).inc()
            yield shadow
        if result.state == "done":
            for dependent in self.dependents[task]:
                if dependent in self.results:
                    continue
                self.pending[dependent] -= 1
                if self.pending[dependent] == 0:
                    heapq.heappush(self._ready, (self.index[dependent], dependent))
        else:
            yield from self._cancel_dependents(task, result.error)

    def _cancel_dependents(
        self, failed: Task, cause: Optional[BaseException]
    ) -> Iterator[TaskResult]:
        """Cancel the failed task's transitive dependents, depth first."""
        registry = obs_registry()
        for dependent in sorted(self.dependents[failed], key=self.index.get):
            if dependent in self.results:
                continue
            error = DependencyFailedError(
                dependent, failed, cause if cause is not None else ReproError("failed")
            )
            registry.counter(CANCELLED).inc()
            yield from self._settle(
                TaskResult(task=dependent, state="cancelled", error=error)
            )

    def _run_inline(self, task: Task) -> Iterator[TaskResult]:
        self.attempts[task] = self.attempts.get(task, 0) + 1
        started = time.perf_counter()
        try:
            value = task.fn(*task.args, *self._dep_values(task))
        except Exception as exc:  # noqa: BLE001 - surfaced per node
            yield from self._settle(
                TaskResult(
                    task=task,
                    state="failed",
                    error=exc,
                    attempts=self.attempts[task],
                    duration_ms=(time.perf_counter() - started) * 1000.0,
                )
            )
            return
        yield from self._settle(
            TaskResult(
                task=task,
                state="done",
                value=value,
                attempts=self.attempts[task],
                duration_ms=(time.perf_counter() - started) * 1000.0,
            )
        )

    def _handle_future(self, task: Task, future: Future) -> Iterator[TaskResult]:
        try:
            payload = future.result()
        except BrokenProcessPool as exc:
            self._broken_pool()
            if self.attempts.get(task, 0) <= RESCHEDULE_LIMIT:
                obs_registry().counter(RESCHEDULED).inc()
                heapq.heappush(self._ready, (self.index[task], task))
                return
            yield from self._settle(
                TaskResult(
                    task=task,
                    state="failed",
                    error=exc,
                    attempts=self.attempts.get(task, 0),
                )
            )
            return
        except Exception as exc:  # noqa: BLE001 - surfaced per node
            yield from self._settle(
                TaskResult(
                    task=task,
                    state="failed",
                    error=exc,
                    attempts=self.attempts.get(task, 0),
                )
            )
            return
        value, dump, events, worker_id, duration_ms = payload
        obs_registry().merge(dump)
        if self._traced and events:
            obs_tracer().merge(
                events, parent_id=self._parent_span, worker_id=worker_id
            )
        yield from self._settle(
            TaskResult(
                task=task,
                state="done",
                value=value,
                attempts=self.attempts.get(task, 0),
                duration_ms=duration_ms,
            )
        )

    # -- the loop ----------------------------------------------------------

    def iterate(self) -> Iterator[TaskResult]:
        try:
            while self._ready or self._inflight:
                while self._ready:
                    _, task = heapq.heappop(self._ready)
                    if task in self.results:
                        continue  # cancelled while queued
                    if self._placement(task) == "inline":
                        yield from self._run_inline(task)
                    else:
                        self._inflight[self._submit(task)] = task
                if not self._inflight:
                    continue
                done, _ = wait(self._inflight, return_when=FIRST_COMPLETED)
                for future in done:
                    yield from self._handle_future(self._inflight.pop(future), future)
        finally:
            self._shutdown()


def run_stream(
    tasks: Sequence[Task], jobs: Optional[int] = None
) -> Iterator[TaskResult]:
    """Execute the DAG reachable from ``tasks``; stream results as they settle.

    The graph is validated (cycle detection, dedup resolution) *before* any
    task runs — a :class:`CycleError` raises here, never mid-flight.  The
    returned iterator yields one :class:`TaskResult` per registered task
    (deduplicated twins included) in completion order; serial runs
    (``jobs`` <= 1) complete in deterministic topological registration
    order.  Abandoning the iterator shuts the worker pools down.
    """
    run = _Run(tasks, jobs)
    return run.iterate()


def gather(tasks: Sequence[Task], jobs: Optional[int] = None) -> List[Any]:
    """Execute the DAG and return ``tasks``'s values in input order.

    The barrier-style entry point for callers that need every result
    anyway (Table 1, verify suites).  If any requested task failed or was
    cancelled, the earliest-registered failure's exception is raised after
    the rest of the graph has settled.
    """
    tasks = list(tasks)
    results: Dict[Task, TaskResult] = {}
    for result in run_stream(tasks, jobs=jobs):
        results[result.task] = result
    failed = [results[t] for t in tasks if not results[t].ok]
    if failed:
        raise failed[0].error  # type: ignore[misc]
    return [results[t].value for t in tasks]


def map_tasks(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    jobs: Optional[int] = None,
    keys: Optional[Sequence[Any]] = None,
    placement: str = "auto",
) -> List[Any]:
    """Map ``fn`` over ``items`` as a DAG of independent tasks.

    Results come back in input order.  ``keys`` (parallel to ``items``)
    enables digest-keyed deduplication: items whose keys digest identically
    run once and share the result object.  Without ``keys`` every item runs.
    """
    if keys is not None and len(keys) != len(items):
        raise ValueError(
            f"keys must parallel items ({len(keys)} keys, {len(items)} items)"
        )
    tasks = [
        Task(
            fn,
            args=(item,),
            key=keys[i] if keys is not None else None,
            placement=placement,
        )
        for i, item in enumerate(items)
    ]
    return gather(tasks, jobs=jobs)
