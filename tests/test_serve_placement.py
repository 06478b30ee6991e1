"""Where the server runs work: on its event loop, or on an executor thread.

A solve batch or a simulation whose work estimate fits
:data:`~repro.serve.protocol.INLINE_WORK_BUDGET` runs on the loop; larger
work runs on an executor thread, so the loop keeps answering meanwhile.
The placement tests record the thread the work ran on and compare it with
the server's loop thread.  The over-budget ones hold the work on an event
that the test sets only after a concurrent ``/healthz`` has answered, so
they fail (instead of racing) if that work ever lands on the loop.
"""

from __future__ import annotations

import importlib
import random
import sys
import threading
import time
from itertools import islice
from pathlib import Path

import pytest

from repro.core import Pattern
from repro.core.mapping import BankMapping
from repro.core.solver import Objective, solve
from repro.io import solution_from_dict
from repro.obs import registry
from repro.patterns import log_pattern, se_pattern
from repro.serve import DeadlineExceededError, ServeClient, serve_in_thread
from repro.serve.protocol import (
    ELEMENT_WORK,
    INLINE_WORK_BUDGET,
    PAIR_WORK,
    SOLVE_WORK,
    SWEEP_CELL_WORK,
    SolveSpec,
    parse_simulate_spec,
    parse_solve_spec,
)

# perfbench is a top-level directory of the checkout, not an installed package.
ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.specs import ColdSpecs  # noqa: E402

coalesce_mod = importlib.import_module("repro.serve.coalesce")
memsim_mod = importlib.import_module("repro.sim.memsim")


def _counter(name: str) -> int:
    return registry().snapshot()["counters"].get(name, 0)


def _placements() -> tuple:
    return _counter("serve.work.inline"), _counter("serve.work.executor")


def _big_pattern() -> Pattern:
    """724 distinct random offsets in a 200×200 box: the largest m admitted."""
    rng = random.Random(724)
    points = set()
    while len(points) < 724:
        points.add((rng.randrange(200), rng.randrange(200)))
    return Pattern(sorted(points), name="m724")


def _recording(real, threads, gate=None):
    """``real`` wrapped to record its thread and, with a gate, to wait on it."""

    def wrapper(*args, **kwargs):
        threads.append(threading.get_ident())
        if gate is not None:
            started, release = gate
            started.set()
            release.wait(timeout=30.0)
        return real(*args, **kwargs)

    return wrapper


def _simulated(doc, pattern, shape):
    """The report an in-process simulation of the served solution gives."""
    solution = solution_from_dict(doc["solution"])
    assert solution == solve(pattern, shape=shape, cache=False).solution
    return memsim_mod.simulate_sweep(BankMapping(solution=solution, shape=shape))


class TestWorkEstimate:
    def test_every_cold_benchmark_request_fits_the_budget(self):
        # perfbench's serve_cold traffic is what the inline path is for.
        for request in islice(ColdSpecs(1), 400):
            if request.endpoint == "/simulate":
                sim = parse_simulate_spec(request.doc)
                assert sim.work_estimate() <= INLINE_WORK_BUDGET, request.doc
                spec = sim.solve
            else:
                spec = parse_solve_spec(request.doc)
            assert spec.work_estimate() <= INLINE_WORK_BUDGET, request.doc

    @pytest.mark.parametrize(
        "doc",
        [
            {"offsets": [list(p) for p in _big_pattern().offsets]},
            {"benchmark": "log", "shape": [8, 2**18], "objective": "storage"},
            {"benchmark": "log", "n_max": 2**18, "objective": "banks"},
        ],
        ids=["m724", "storage-2^18", "banks-2^18"],
    )
    def test_heavy_solves_exceed_the_budget(self, doc):
        assert parse_solve_spec(doc).work_estimate() > INLINE_WORK_BUDGET

    @pytest.mark.parametrize(
        "doc",
        [
            {"benchmark": "log", "shape": [1024, 1024]},
            {"benchmark": "log", "shape": [32, 48], "engine": "scalar"},
            {"benchmark": "se", "shape": [16, 16], "engine": "scalar"},
        ],
        ids=["native-1024x1024", "scalar-32x48", "scalar-16x16"],
    )
    def test_heavy_simulations_exceed_the_budget(self, doc):
        assert parse_simulate_spec(doc).work_estimate() > INLINE_WORK_BUDGET

    def test_estimate_is_shared_by_a_symmetry_orbit(self):
        spec = parse_solve_spec(
            {"offsets": [[0, 0], [0, 1], [1, 0]], "shape": [24, 40],
             "objective": "storage", "n_max": 9}
        )
        canonical, _op = spec.canonicalized()
        assert canonical.work_estimate() == spec.work_estimate()

    @pytest.mark.parametrize(
        "objective, n_max, ceiling",
        [
            (Objective.LATENCY, None, 0),  # N_f is optimal: no sweep
            (Objective.LATENCY, 4, 4),  # a binding n_max bounds the sweep
            (Objective.LATENCY, 10**9, 25),  # ... and so does N_f <= 5·5
            (Objective.BANKS, None, 25),  # sweeps to N_f <= 5·5
            (Objective.BANKS, 40, 40),
            (Objective.STORAGE, None, 48),  # sweeps to the innermost extent
            (Objective.STORAGE, 7, 7),
        ],
    )
    def test_solve_estimate_terms(self, objective, n_max, ceiling):
        spec = SolveSpec(log_pattern(), (64, 48), n_max, objective, 0)
        m = log_pattern().size
        assert spec.work_estimate() == (
            SOLVE_WORK + PAIR_WORK * m * (m - 1) // 2 + SWEEP_CELL_WORK * ceiling * m
        )

    def test_simulate_estimate_counts_elements_and_reads(self):
        sim = parse_simulate_spec(
            {"benchmark": "log", "shape": [16, 20], "step": 2, "engine": "native"}
        )
        # LoG is 5×5: 12 × 16 loop offsets, every second one on each axis.
        reads = 6 * 8 * log_pattern().size
        assert sim.work_estimate() == ELEMENT_WORK["native"] * (16 * 20 + reads)
        limited = parse_simulate_spec(
            {"benchmark": "log", "shape": [16, 20], "limit": 5, "engine": "scalar"}
        )
        assert limited.work_estimate() == ELEMENT_WORK["scalar"] * (
            16 * 20 + 5 * log_pattern().size
        )


class TestInlinePlacement:
    def test_small_cold_solve_runs_on_the_loop(self, tmp_path, monkeypatch):
        threads: list = []
        monkeypatch.setattr(
            coalesce_mod, "solve", _recording(coalesce_mod.solve, threads)
        )
        before = _placements()
        with serve_in_thread(store_dir=str(tmp_path / "s")) as srv:
            with ServeClient(port=srv.port) as client:
                doc = client.solve(benchmark="log", shape=(64, 64))
            loop_thread = srv._thread.ident
        inline, executor = _placements()
        assert threads == [loop_thread]
        assert (inline - before[0], executor - before[1]) == (1, 0)
        direct = solve(log_pattern(), shape=(64, 64), cache=False).solution
        assert solution_from_dict(doc["solution"]) == direct

    def test_small_simulate_runs_on_the_loop(self, tmp_path, monkeypatch):
        threads: list = []
        monkeypatch.setattr(
            memsim_mod,
            "simulate_sweep",
            _recording(memsim_mod.simulate_sweep, threads),
        )
        before = _placements()
        with serve_in_thread(store_dir=str(tmp_path / "s")) as srv:
            with ServeClient(port=srv.port) as client:
                doc = client.simulate(benchmark="se", shape=(16, 16))
            loop_thread = srv._thread.ident
        inline, executor = _placements()
        assert threads == [loop_thread]
        # The solve batch and the simulation both ran on the loop.
        assert (inline - before[0], executor - before[1]) == (2, 0)
        assert doc["report"] == _simulated(doc, se_pattern(), (16, 16)).to_dict()


class TestExecutorPlacement:
    def _held_while_healthz_answers(self, srv, request, gate):
        """Run ``request`` on a thread; ``/healthz`` must answer while the
        gated work waits, and only then is the work released."""
        started, release = gate
        result: dict = {}

        def send():
            try:
                with ServeClient(port=srv.port) as client:
                    result["doc"] = request(client)
            except Exception as exc:  # pragma: no cover - surfaced below
                result["error"] = exc

        sender = threading.Thread(target=send)
        sender.start()
        try:
            assert started.wait(timeout=30.0), "the work never started"
            with ServeClient(port=srv.port, timeout=5.0) as probe:
                assert probe.healthz()["status"] == "ok"
        finally:
            release.set()
            sender.join(timeout=60.0)
        assert "error" not in result, result.get("error")
        return result["doc"]

    def test_heavy_solve_runs_on_an_executor_thread(self, tmp_path, monkeypatch):
        threads: list = []
        gate = (threading.Event(), threading.Event())
        monkeypatch.setattr(
            coalesce_mod, "solve", _recording(coalesce_mod.solve, threads, gate)
        )
        pattern = _big_pattern()
        before = _placements()
        with serve_in_thread(store_dir=str(tmp_path / "s")) as srv:
            doc = self._held_while_healthz_answers(
                srv, lambda client: client.solve(pattern=pattern), gate
            )
            loop_thread = srv._thread.ident
        inline, executor = _placements()
        assert len(threads) == 1 and threads[0] != loop_thread
        assert (inline - before[0], executor - before[1]) == (0, 1)
        direct = solve(pattern, cache=False).solution
        assert solution_from_dict(doc["solution"]) == direct

    def test_heavy_simulate_runs_on_an_executor_thread(self, tmp_path, monkeypatch):
        threads: list = []
        gate = (threading.Event(), threading.Event())
        monkeypatch.setattr(
            memsim_mod,
            "simulate_sweep",
            _recording(memsim_mod.simulate_sweep, threads, gate),
        )
        shape = (1024, 1024)
        before = _placements()
        with serve_in_thread(store_dir=str(tmp_path / "s")) as srv:
            doc = self._held_while_healthz_answers(
                srv, lambda client: client.simulate(benchmark="se", shape=shape), gate
            )
            loop_thread = srv._thread.ident
        inline, executor = _placements()
        assert len(threads) == 1 and threads[0] != loop_thread
        # The small solve ran on the loop; the sweep went to a thread.
        assert (inline - before[0], executor - before[1]) == (1, 1)
        assert doc["report"] == _simulated(doc, se_pattern(), shape).to_dict()


def _slowed(real, seconds):
    def wrapper(*args, **kwargs):
        time.sleep(seconds)
        return real(*args, **kwargs)

    return wrapper


class TestInlineDeadlines:
    def test_deadline_passing_during_an_inline_simulation_is_504(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            memsim_mod, "simulate_sweep", _slowed(memsim_mod.simulate_sweep, 0.3)
        )
        before = _placements()
        with serve_in_thread(store_dir=str(tmp_path / "s")) as srv:
            with ServeClient(port=srv.port) as client:
                with pytest.raises(DeadlineExceededError) as info:
                    client.simulate(benchmark="se", shape=(16, 16), timeout_ms=150)
                assert info.value.http_status == 504
                assert "during simulation" in str(info.value)
                # The solve before the sweep was stored all the same.
                assert client.healthz()["store"]["entries"] == 1
        inline, executor = _placements()
        assert (inline - before[0], executor - before[1]) == (2, 0)

    def test_deadline_passing_during_an_inline_batch_is_504_but_stored(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(coalesce_mod, "solve", _slowed(coalesce_mod.solve, 0.3))
        before = _placements()
        with serve_in_thread(store_dir=str(tmp_path / "s")) as srv:
            with ServeClient(port=srv.port) as client:
                with pytest.raises(DeadlineExceededError) as info:
                    client.solve(benchmark="median", timeout_ms=150)
                assert info.value.http_status == 504
                assert "during solve" in str(info.value)
                assert client.healthz()["store"]["entries"] == 1
                scheduled = _counter("serve.coalesce.scheduled")
                # The solution is in memory: the repeat schedules nothing.
                doc = client.solve(benchmark="median")
                assert _counter("serve.coalesce.scheduled") == scheduled
        assert doc["solution"]["n_banks"] == 8
        inline, executor = _placements()
        assert (inline - before[0], executor - before[1]) == (1, 0)
