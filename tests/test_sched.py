"""Scheduler core: planning, dedup, streaming, failure and crash semantics.

The ISSUE-7 contract tier for :mod:`repro.sched`: cycles are rejected
before anything runs, duplicate-digest tasks execute exactly once with a
bit-identical fan-out, a failure cancels only its own subtree, and a
crashed process worker is rescheduled once on a fresh pool before the
task is failed.  Everything here must hold identically at ``jobs=None``
and ``jobs=N`` — the scheduler is a speed/sharing knob, never a
semantics knob.
"""

from __future__ import annotations

import importlib
import os

import pytest

from repro import obs
from repro.obs import metrics as obs_metrics
from repro.obs.tracer import span, tracer
from repro.sched import (
    CANCELLED,
    DEDUP_HITS,
    RESCHEDULE_LIMIT,
    RESCHEDULED,
    TASK_HISTOGRAM,
    TASKS_TOTAL,
    CycleError,
    DependencyFailedError,
    Task,
    TaskResult,
    gather,
    map_tasks,
    run_stream,
)

@pytest.fixture(autouse=True)
def _clean_registry():
    obs.reset()
    yield
    obs.reset()


def _counter(name: str) -> int:
    return obs_metrics.registry().snapshot()["counters"].get(name, 0)


# -- top-level bodies (process placement requires picklable functions) -----


def _square(x: int) -> int:
    return x * x


def _add(x: int, y: int) -> int:
    return x + y


def _boom(msg: str) -> None:
    raise ValueError(msg)


def _payload_dict(tag: str, n: int):
    return {"tag": tag, "values": [i * n for i in range(4)]}


def _crash_once(marker_path: str) -> str:
    """Die hard on the first attempt, succeed on the retry."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w") as handle:
            handle.write("crashed")
        os._exit(1)
    return "recovered"


def _always_crash(_marker_unused: str) -> str:
    os._exit(1)
    return "unreachable"  # pragma: no cover


def _traced_body(item: int) -> str:
    with span("sched.test.work", item=item):
        return obs.current_trace_id() or ""


#: A sweep grid whose cells share solves: LoG under two bank ceilings, each
#: translated 8 ways, on a 32×32 array — 16 cells over 2 canonical solves.
_GRID_N_MAXES = (8, 10)
_GRID_TRANSLATIONS = 8
_GRID_SHAPE = (32, 32)


def _grid_solve(n_max: int) -> dict:
    """A cell's shareable work: a cold solve of LoG and its simulation.

    ``cache=False``: the memo would hide real solver executions (per
    worker, so nondeterministically), and the saving under test must come
    from the scheduler's dedup alone.
    """
    from repro.core.solver import solve
    from repro.patterns import log_pattern
    from repro.sim.memsim import simulate_sweep

    result = solve(log_pattern(), shape=_GRID_SHAPE, n_max=n_max, cache=False)
    report = simulate_sweep(result.mapping, verify=False, engine="auto")
    solution = result.solution
    return {
        "n_banks": solution.n_banks,
        "delta_ii": solution.delta_ii,
        "alpha": list(solution.transform.alpha),
        "measured_ii": report.measured_ii,
        "overhead_elements": result.overhead_elements,
    }


def _grid_row(cell, shared: dict) -> dict:
    """A cell's own arithmetic on the shared solve."""
    from repro.patterns import log_pattern

    translation, n_max = cell
    first = log_pattern().translated(translation).offsets[0]
    alpha, n_banks = shared["alpha"], shared["n_banks"]
    return {
        "cell": (translation, n_max),
        "first_offset_bank": sum(a * o for a, o in zip(alpha, first)) % n_banks,
        **{k: v for k, v in shared.items() if k != "alpha"},
    }


def _grid_flat_cell(cell) -> dict:
    """The flat map's cell: its own solve and simulation, then its row."""
    return _grid_row(cell, _grid_solve(cell[1]))


class TestPlanning:
    def test_cycle_detected_before_any_execution(self):
        ran = []
        a = Task(ran.append, args=("a",), name="a")
        b = Task(ran.append, args=("b",), deps=(a,), name="b")
        c = Task(ran.append, args=("c",), deps=(b,), name="c")
        a.deps = (c,)  # close the loop
        with pytest.raises(CycleError) as excinfo:
            run_stream([c])  # planning happens eagerly, before iteration
        assert ran == []
        assert set(excinfo.value.cycle) >= {"a", "b", "c"}

    def test_self_cycle(self):
        t = Task(_square, args=(2,), name="selfish")
        t.deps = (t,)
        with pytest.raises(CycleError):
            run_stream([t])

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="positive worker count"):
            run_stream([Task(_square, args=(2,))], jobs=0)
        with pytest.raises(ValueError, match="positive worker count"):
            gather([Task(_square, args=(2,))], jobs=-3)

    def test_placement_and_dep_validation(self):
        for placement in ("gpu", "thread"):
            with pytest.raises(ValueError, match="placement must be one of"):
                Task(_square, args=(1,), placement=placement)
        with pytest.raises(TypeError, match="deps must be Task"):
            Task(_square, args=(1,), deps=(lambda: None,))

    def test_diamond_runs_shared_dep_once(self):
        calls = []

        def base():
            calls.append("base")
            return 10

        root = Task(base, name="base")
        left = Task(_add, args=(1,), deps=(root,))
        right = Task(_add, args=(2,), deps=(root,))
        top = Task(_add, deps=(left, right))
        assert gather([top]) == [23]
        assert calls == ["base"]


class TestDedup:
    def test_duplicate_digest_runs_exactly_once_serial(self):
        calls = []

        def solve(tag):
            calls.append(tag)
            return {"tag": tag, "banks": [1, 2, 3]}

        tasks = [
            Task(solve, args=(f"t{i}",), key=("shared", "alpha"), name=f"t{i}")
            for i in range(5)
        ]
        before = _counter(DEDUP_HITS)
        outcomes = list(run_stream(tasks))
        # Exactly one execution; the other four are deduped shadows whose
        # value is the *identical* object (bit-identical fan-out).
        assert calls == ["t0"]
        primary = [o for o in outcomes if not o.deduped]
        shadows = [o for o in outcomes if o.deduped]
        assert len(primary) == 1 and len(shadows) == 4
        for shadow in shadows:
            assert shadow.ok
            assert shadow.value is primary[0].value
        assert _counter(DEDUP_HITS) - before == 4

    def test_dedup_fanout_bit_identical_across_processes(self):
        # 4 tasks, 2 distinct keys, forced process placement at jobs=2:
        # exactly 2 executions, and each alias shares its primary's object.
        tasks = [
            Task(
                _payload_dict,
                args=(f"k{i % 2}", i % 2),
                key=("proc-shared", i % 2),
                placement="process",
                name=f"cell{i}",
            )
            for i in range(4)
        ]
        outcomes = list(run_stream(tasks, jobs=2))
        primary = {o.task.key[1]: o for o in outcomes if not o.deduped}
        shadows = [o for o in outcomes if o.deduped]
        assert len(primary) == 2 and len(shadows) == 2
        for shadow in shadows:
            twin = primary[shadow.task.key[1]]
            assert shadow.value is twin.value
            assert shadow.value == _payload_dict(*shadow.task.args)

    def test_alias_dependents_rewire_to_the_representative(self):
        calls = []

        def solve():
            calls.append(1)
            return 7

        first = Task(solve, key="same")
        twin = Task(solve, key="same")
        downstream = Task(_square, deps=(twin,))  # depends on the *alias*
        assert gather([first, downstream]) == [7, 49]
        assert calls == [1]

    def test_distinct_keys_do_not_collapse(self):
        tasks = [Task(_square, args=(i,), key=("unique", i)) for i in range(4)]
        assert gather(tasks) == [0, 1, 4, 9]

    def test_translated_solve_keys_share_a_digest(self):
        # The paper-level sharing property TestSharedSolveGrid leans on:
        # translated copies of one pattern canonicalize to one solve key.
        from repro.core.cache import solve_key, stable_digest
        from repro.patterns import log_pattern

        base = log_pattern()
        shifted = [(dx + 3, dy + 5) for dx, dy in base.offsets]
        translated = type(base)(name=base.name, offsets=tuple(shifted))
        k1 = solve_key(base, (32, 32), 8, "latency", 0)
        k2 = solve_key(translated, (32, 32), 8, "latency", 0)
        assert stable_digest(k1) == stable_digest(k2)


class TestFailureIsolation:
    def _graph(self):
        a = Task(_boom, args=("kaput",), name="a")
        b = Task(_square, args=(2,), deps=(a,), name="b")
        c = Task(_square, args=(3,), deps=(b,), name="c")
        d = Task(_square, args=(4,), name="d")  # unrelated subgraph
        return a, b, c, d

    def test_failure_cancels_subtree_only(self):
        a, b, c, d = self._graph()
        before = _counter(CANCELLED)
        states = {o.task.name: o for o in run_stream([c, d])}
        assert states["a"].state == "failed"
        assert isinstance(states["a"].error, ValueError)
        assert states["b"].state == "cancelled"
        assert states["c"].state == "cancelled"
        assert states["d"].state == "done" and states["d"].value == 16
        assert _counter(CANCELLED) - before == 2

    def test_cancellation_error_chains_to_root_cause(self):
        a, b, c, d = self._graph()
        states = {o.task.name: o for o in run_stream([c, d])}
        err_b = states["b"].error
        assert isinstance(err_b, DependencyFailedError)
        assert err_b.dep is a and isinstance(err_b.__cause__, ValueError)
        err_c = states["c"].error
        assert isinstance(err_c, DependencyFailedError)
        assert err_c.dep is b
        # Walk the chain back to the original exception.
        root = err_c.__cause__
        while isinstance(root, DependencyFailedError):
            root = root.__cause__
        assert isinstance(root, ValueError) and "kaput" in str(root)

    def test_gather_raises_the_earliest_failure(self):
        a, b, c, d = self._graph()
        with pytest.raises(ValueError, match="kaput"):
            gather([a, d])

    def test_failed_process_task_surfaces_its_own_exception(self):
        bad = Task(_boom, args=("in-worker",), placement="process", name="bad")
        good = Task(_square, args=(6,), placement="process", name="good")
        states = {o.task.name: o for o in run_stream([bad, good], jobs=2)}
        assert states["bad"].state == "failed"
        assert isinstance(states["bad"].error, ValueError)
        assert states["good"].state == "done" and states["good"].value == 36


class TestStreaming:
    def test_results_stream_before_the_graph_finishes(self):
        ran = []

        def body(i):
            ran.append(i)
            return i

        tasks = [Task(body, args=(i,)) for i in range(5)]
        stream = run_stream(tasks)  # serial: lazy, one task per yield
        first = next(stream)
        assert isinstance(first, TaskResult) and first.ok
        assert ran == [0]  # nothing past the first yield has run
        rest = list(stream)
        assert ran == [0, 1, 2, 3, 4]
        assert len(rest) == 4

    def test_serial_completion_order_is_registration_order(self):
        tasks = [Task(_square, args=(i,)) for i in range(6)]
        order = [o.task for o in run_stream(tasks)]
        assert order == tasks


class TestCrashResilience:
    def test_crashed_worker_rescheduled_once_then_succeeds(self, tmp_path):
        marker = tmp_path / "crash-once.marker"
        crasher = Task(
            _crash_once, args=(str(marker),), placement="process", name="crasher"
        )
        # Inline companion keeps the resolved worker count at 2 without
        # putting a second task in the blast radius of the broken pool.
        companion = Task(_square, args=(9,), placement="inline", name="companion")
        before = _counter(RESCHEDULED)
        states = {o.task.name: o for o in run_stream([crasher, companion], jobs=2)}
        assert states["companion"].value == 81
        assert states["crasher"].state == "done"
        assert states["crasher"].value == "recovered"
        assert states["crasher"].attempts == RESCHEDULE_LIMIT + 1
        assert _counter(RESCHEDULED) - before == 1
        assert marker.exists()

    def test_crash_beyond_limit_fails_task_and_cancels_dependents(self, tmp_path):
        crasher = Task(
            _always_crash, args=("-",), placement="process", name="crasher"
        )
        dependent = Task(
            _square, args=(2,), deps=(crasher,), placement="inline", name="dep"
        )
        bystander = Task(_square, args=(5,), placement="inline", name="bystander")
        before = _counter(RESCHEDULED)
        states = {
            o.task.name: o for o in run_stream([dependent, bystander], jobs=2)
        }
        assert states["crasher"].state == "failed"
        assert states["crasher"].attempts == RESCHEDULE_LIMIT + 1
        assert states["dep"].state == "cancelled"
        assert states["bystander"].state == "done" and states["bystander"].value == 25
        assert _counter(RESCHEDULED) - before == RESCHEDULE_LIMIT


class TestMapTasks:
    def test_matches_flat_map_in_order(self):
        items = list(range(12))
        assert map_tasks(_square, items) == [x * x for x in items]
        assert map_tasks(_square, items, jobs=3) == [x * x for x in items]

    def test_keys_enable_dedup(self):
        calls = []

        def body(item):
            calls.append(item)
            return item % 3

        items = list(range(9))
        values = map_tasks(body, items, keys=[i % 3 for i in items])
        assert values == [i % 3 for i in items]
        assert calls == [0, 1, 2]  # one execution per distinct key

    def test_keys_must_parallel_items(self):
        with pytest.raises(ValueError, match="keys must parallel items"):
            map_tasks(_square, [1, 2, 3], keys=[1, 2])

    def test_empty_items(self):
        assert map_tasks(_square, [], jobs=4) == []

    def test_serial_path_never_builds_a_pool(self, monkeypatch):
        runtime = importlib.import_module("repro.sched.runtime")

        class _Bomb:
            def __init__(self, *a, **k):
                raise AssertionError("serial path must not construct a pool")

        monkeypatch.setattr(runtime, "ProcessPoolExecutor", _Bomb)
        assert map_tasks(_square, [1, 2, 3], jobs=1) == [1, 4, 9]
        assert map_tasks(_square, [7], jobs=8) == [49]


class TestSharedSolveGrid:
    def test_keyed_dag_matches_the_flat_map_with_fewer_solves(self):
        from repro.core.cache import solve_key, stable_digest
        from repro.patterns import log_pattern

        cells = [
            ((t, 2 * t), n_max)
            for t in range(_GRID_TRANSLATIONS)
            for n_max in _GRID_N_MAXES
        ]
        flat = map_tasks(_grid_flat_cell, cells, jobs=2)

        keys, row_tasks = [], []
        for cell in cells:
            translation, n_max = cell
            pattern = log_pattern().translated(translation)
            key = ("grid.solve", solve_key(pattern, _GRID_SHAPE, n_max, "latency", 0))
            keys.append(key)
            solve_task = Task(
                _grid_solve, args=(n_max,), key=key, placement="process"
            )
            row_tasks.append(
                Task(_grid_row, args=(cell,), deps=(solve_task,), placement="inline")
            )
        index = {task: i for i, task in enumerate(row_tasks)}
        rows = [None] * len(row_tasks)
        solves = 0
        for outcome in run_stream(row_tasks, jobs=2):
            assert outcome.ok, outcome.error
            if outcome.task in index:
                rows[index[outcome.task]] = outcome.value
            elif not outcome.deduped:
                solves += 1

        assert rows == flat
        distinct = len({stable_digest(key) for key in keys})
        assert len(cells) / distinct >= 4
        # The flat map solves once per cell, by construction.
        assert solves <= len(cells)
        assert 1 - solves / len(cells) >= 0.30


class TestTelemetry:
    def test_counters_and_histogram_on_the_shared_registry(self):
        before_total = _counter(TASKS_TOTAL)
        list(run_stream([Task(_square, args=(i,)) for i in range(4)]))
        snap = obs_metrics.registry().snapshot()
        assert snap["counters"][TASKS_TOTAL] - before_total == 4
        assert TASK_HISTOGRAM in snap["histograms"]
        assert snap["histograms"][TASK_HISTOGRAM]["count"] >= 4

    def test_trace_id_propagates_into_process_workers(self):
        obs.enable()
        try:
            obs.reset()
            with obs.trace("sched-trace-1"):
                seen = map_tasks(
                    _traced_body, [1, 2], jobs=2, placement="process"
                )
            assert seen == ["sched-trace-1", "sched-trace-1"]
            # Worker spans merged home, stamped with the worker identity
            # so PR-6 trace trees reassemble across the process border.
            records = tracer().records_for("sched-trace-1")
            work = [r for r in records if r.name == "sched.test.work"]
            assert len(work) == 2
            assert all(r.attrs.get("worker_id", "").startswith("pid") for r in work)
        finally:
            obs.reset()
            obs.disable()
