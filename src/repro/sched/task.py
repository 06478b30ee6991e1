"""Task nodes for the dependency-aware scheduler.

A :class:`Task` is one node of an evaluation DAG: a picklable function,
its static arguments, the tasks whose results it consumes, an optional
deduplication key, and a placement hint.  Tasks are compared by identity
(two nodes with the same function are still two nodes); *sharing* is
expressed through ``key`` — tasks whose keys digest identically are
collapsed to a single execution by the runtime (see
:mod:`repro.sched.runtime`).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional, Sequence, Tuple

#: Valid ``placement`` values, in documentation order.
PLACEMENTS = ("auto", "inline", "process")

_task_ids = itertools.count(1)


class Task:
    """One schedulable unit of work.

    Parameters
    ----------
    fn:
        The task body.  Called as ``fn(*args, *dep_values)`` where
        ``dep_values`` are the results of ``deps`` in order.  Must be a
        top-level (picklable) function when ``placement`` resolves to
        ``"process"``.
    args:
        Static positional arguments, bound before the dependency results.
    deps:
        Upstream tasks whose results this task consumes.  The runtime
        guarantees they have finished (successfully) before ``fn`` runs;
        if any of them fails, this task is cancelled instead of run.
    key:
        Optional deduplication identity.  Two tasks whose keys produce the
        same :func:`repro.core.cache.stable_digest` are the *same work*:
        only the first-registered one executes, and every duplicate
        receives the identical result object.  ``None`` (default) means
        "always unique".  The key must be JSON-expressible (nested
        tuples/lists/dicts of scalars) — the cache-key tuples built by
        :func:`repro.core.cache.canonical_key` qualify directly.
    placement:
        Where the task body runs: ``"inline"`` in the scheduler loop
        (sub-millisecond arithmetic, aggregations), ``"process"`` on
        worker processes (heavy solves/simulations), or ``"auto"``
        (process when the run is parallel, inline otherwise).  Serial runs
        (``jobs`` <= 1) execute everything inline regardless.
    name:
        Label for errors, spans, and debug output.
    """

    __slots__ = ("fn", "args", "deps", "key", "placement", "name", "task_id")

    def __init__(
        self,
        fn: Callable[..., Any],
        args: Sequence[Any] = (),
        deps: Sequence["Task"] = (),
        key: Optional[Any] = None,
        placement: str = "auto",
        name: str = "",
    ) -> None:
        if placement not in PLACEMENTS:
            raise ValueError(
                f"placement must be one of {PLACEMENTS}, got {placement!r}"
            )
        for dep in deps:
            if not isinstance(dep, Task):
                raise TypeError(f"deps must be Task instances, got {dep!r}")
        self.fn = fn
        self.args: Tuple[Any, ...] = tuple(args)
        self.deps: Tuple["Task", ...] = tuple(deps)
        self.key = key
        self.placement = placement
        self.task_id = next(_task_ids)
        self.name = name or getattr(fn, "__name__", "task")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Task(#{self.task_id} {self.name!r} placement={self.placement} "
            f"deps={len(self.deps)} key={'yes' if self.key is not None else 'no'})"
        )
