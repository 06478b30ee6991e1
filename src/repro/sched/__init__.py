"""Dependency-aware task scheduler with shared-solve deduplication.

Public surface:

* :class:`~repro.sched.task.Task` — one DAG node: ``fn(*args, *dep_values)``,
  a dedup ``key``, and a ``placement`` hint.
* :func:`~repro.sched.runtime.run_stream` — execute a DAG, streaming
  :class:`~repro.sched.runtime.TaskResult`\\ s in completion order.
* :func:`~repro.sched.runtime.gather` — execute and return values in input
  order (raises the first failure).
* :func:`~repro.sched.runtime.map_tasks` — flat-map adapter used by the
  eval/verify/serve harnesses.

This is the only executor: Table 1, the case study, the sweeps, verify and
serve all run through it.

See ``docs/SCHEDULER.md`` for the task model, placement rules, and
deduplication semantics.
"""

from .runtime import (
    CANCELLED,
    DEDUP_HITS,
    RESCHEDULE_LIMIT,
    RESCHEDULED,
    TASK_HISTOGRAM,
    TASKS_TOTAL,
    CycleError,
    DependencyFailedError,
    TaskResult,
    gather,
    map_tasks,
    run_stream,
)
from .task import PLACEMENTS, Task

__all__ = [
    "Task",
    "TaskResult",
    "CycleError",
    "DependencyFailedError",
    "run_stream",
    "gather",
    "map_tasks",
    "PLACEMENTS",
    "RESCHEDULE_LIMIT",
    "TASKS_TOTAL",
    "DEDUP_HITS",
    "RESCHEDULED",
    "CANCELLED",
    "TASK_HISTOGRAM",
]
