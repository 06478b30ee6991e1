"""The paper's own result, in-process: Table 1 and the §5 case study.

Timing covers our cold solve (``repro.core.solver.solve`` with
``cache=False``) and the LTB exhaustive search
(``repro.baselines.ltb.ltb_partition(engine="auto")``) on the seven Table 1
patterns, plus the LoG case-study sweep ``N_max = 1 … 10``.  Both entry
points are called through their modules, so a :class:`~layers.Probe`
installed on them sees every call.

Every answer is checked exactly: bank counts against the paper, the case
study against its published row, and op counts, storage blocks and LTB
vectors tried against the values this repository reproduces.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

import repro.baselines.ltb as ltb_mod
import repro.core.solver as solver_mod
from repro.core.opcount import OpCounter
from repro.core.partition import partition, same_size_sweep
from repro.eval.metrics import storage_blocks
from repro.eval.paper_data import PAPER_CASESTUDY_SWEEP as CASESTUDY_ROW
from repro.eval.paper_data import RESOLUTION_ORDER as RESOLUTIONS
from repro.patterns.library import BENCHMARKS, benchmark_shape
from repro.patterns.library import EXPECTED_BANKS as BANKS

from . import layers
from .common import (
    ROOT, SEGMENTS, BenchmarkError, Speed, calibrated, child_env, factor, median, p99,
    timed_setups, unit_speeds,
)

#: Arithmetic op counts (ours via ``partition(ops=...)``, LTB via
#: ``ltb_partition(ops=...)``) and LTB candidate vectors tried.
OPS = {
    "log": (258, 1222, 19),
    "canny": (782, 4193, 31),
    "prewitt": (123, 3257, 77),
    "se": (66, 195, 8),
    "sobel3d": (950, 3937227, 18396),
    "median": (106, 359, 11),
    "gaussian": (162, 4418, 96),
}

#: Storage overhead in 9 kb blocks at SD, HD, FullHD, WQXGA, 4K (ours, LTB).
STORAGE = {
    "log": ((2, 18, 40, 54, 74), (10, 27, 48, 57, 104)),
    "canny": ((23, 12, 67, 0, 100), (31, 37, 77, 42, 138)),
    "prewitt": ((7, 0, 0, 9, 0), (14, 9, 12, 23, 12)),
    "se": ((0, 0, 0, 0, 0), (0, 0, 0, 0, 0)),
    "sobel3d": (
        (2667, 8000, 18000, 35556, 72000),
        (8101, 24302, 36225, 77251, 103894),
    ),
    "median": ((0, 0, 0, 0, 0), (7, 4, 27, 19, 32)),
    "gaussian": ((2, 18, 40, 54, 74), (0, 0, 0, 0, 0)),
}

#: Partitioning calls in a round: 7 cold solves, 7 LTB searches and the
#: 10 case-study solves.
CALLS_PER_ROUND = 2 * len(BENCHMARKS) + 10


def casestudy_expected() -> List[Tuple[int, int]]:
    """(banks, δP) that ``solve(log, n_max=k)`` must return for k = 1 … 10.

    The latency policy takes the smallest ``N ≤ k`` with the fewest
    conflicts — derived here from the published row alone.
    """
    out = []
    for k in range(1, 11):
        best = min(CASESTUDY_ROW[:k])
        chosen = CASESTUDY_ROW.index(best) + 1
        out.append((chosen, best - 1))
    return out


def check_cells() -> Tuple[int, int, List[str]]:
    """Op counts, storage blocks, vectors tried and the case-study row.

    Returns ``(attempted, failed, messages)``.  Untimed.
    """
    attempted = failed = 0
    problems: List[str] = []

    def check(label: str, got: Any, want: Any) -> None:
        nonlocal attempted, failed
        attempted += 1
        if got != want:
            failed += 1
            problems.append(f"{label}: got {got!r}, want {want!r}")

    for name, factory in BENCHMARKS.items():
        pattern = factory()
        ours_ops = OpCounter()
        ours = partition(pattern, ops=ours_ops)
        ltb_ops = OpCounter()
        ltb = ltb_mod.ltb_partition(pattern, ops=ltb_ops, engine="auto")
        check(f"{name} ops", (ours_ops.total, ltb_ops.total, ltb.vectors_tried), OPS[name])
        check(f"{name} banks", (ours.n_banks, ltb.solution.n_banks), BANKS[name])
        for index, (algorithm, n_banks) in enumerate(
            (("ours", ours.n_banks), ("ltb", ltb.solution.n_banks))
        ):
            cells = tuple(
                storage_blocks(benchmark_shape(name, res), n_banks, algorithm)
                for res in RESOLUTIONS
            )
            check(f"{name} {algorithm} storage", cells, STORAGE[name][index])
    log = BENCHMARKS["log"]()
    check("casestudy row", same_size_sweep(log, 10).conflicts_by_n[1:], CASESTUDY_ROW)
    return attempted, failed, problems


class Table1Timer:
    """Timed rounds over the Table 1 patterns; one round = every measurement.

    A round solves each pattern cold, runs the LTB search on each, and
    sweeps the case study, in a seeded pattern order.  Each answer is
    checked against the published bank counts.  Each round is tagged with
    the calibrated slot it ran in (:attr:`slot`).
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"perfbench:table1:{seed}")
        self.patterns = [(name, factory()) for name, factory in BENCHMARKS.items()]
        self.log = BENCHMARKS["log"]()
        self.expected_case = casestudy_expected()
        self.ours_ms: Dict[str, List[float]] = {name: [] for name, _ in self.patterns}
        self.ltb_ms: Dict[str, List[float]] = {name: [] for name, _ in self.patterns}
        self.case_ms: List[float] = []
        self.round_slot: List[int] = []
        self.slot = 0
        self.vectors_tried = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def _check(self, label: str, got: Any, want: Any) -> None:
        self.attempted += 1
        if got != want:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: got {got!r}, want {want!r}")

    def round(self) -> None:
        order = list(self.patterns)
        self.rng.shuffle(order)
        clock = time.perf_counter
        for name, pattern in order:
            started = clock()
            result = solver_mod.solve(pattern, cache=False)
            self.ours_ms[name].append((clock() - started) * 1000.0)
            self._check(f"{name} ours banks", result.solution.n_banks, BANKS[name][0])
        self.vectors_tried = 0
        for name, pattern in order:
            started = clock()
            ltb = ltb_mod.ltb_partition(pattern, engine="auto")
            self.ltb_ms[name].append((clock() - started) * 1000.0)
            self._check(f"{name} ltb banks", ltb.solution.n_banks, BANKS[name][1])
            self.vectors_tried += ltb.vectors_tried
        started = clock()
        answers = [
            solver_mod.solve(self.log, n_max=k, cache=False).solution
            for k in range(1, 11)
        ]
        self.case_ms.append((clock() - started) * 1000.0)
        self.round_slot.append(self.slot)
        self._check(
            "casestudy",
            [(s.n_banks, s.delta_ii) for s in answers],
            self.expected_case,
        )

    def run_for(self, seconds: float, min_rounds: int = 1) -> int:
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds < min_rounds or time.perf_counter() < deadline:
            self.round()
            rounds += 1
        return rounds

    def run_rounds(self, rounds: int) -> None:
        for _ in range(rounds):
            self.round()

    # -- figures -----------------------------------------------------------

    def figures(self, speeds: List[Speed], latency: bool) -> Dict[str, float]:
        """Table 1 times, and with ``latency`` the solve percentiles and rate.

        Every sample is scaled by the host speed of its slot, then the
        figures are taken over all rounds.
        """
        def scaled(samples: List[float], metric: str) -> List[float]:
            return [
                ms * factor(speeds[slot], "client", metric)
                for ms, slot in zip(samples, self.round_slot)
            ]

        ours = {name: scaled(v, "table1_ours_ms") for name, v in self.ours_ms.items()}
        ltb = {name: scaled(v, "table1_ltb_ms") for name, v in self.ltb_ms.items()}
        case = scaled(self.case_ms, "casestudy_ms")
        out = {
            "table1_ours_ms": sum(median(v) for v in ours.values()),
            "table1_ltb_ms": sum(median(v) for v in ltb.values()),
            "casestudy_ms": median(case),
        }
        if latency:
            solves = [ms for row in zip(*ours.values()) for ms in row]  # time order
            out["solve_p50_ms"] = median(solves)
            out["solve_p99_ms"] = p99(solves)
            # Calls completed per second of the rounds' time in those calls.
            busy_ms = sum(solves) + sum(sum(v) for v in ltb.values()) + sum(case)
            out["rps"] = CALLS_PER_ROUND * len(case) / (busy_ms / 1000.0)
        return out


# -- the workload --------------------------------------------------------------

#: What an in-process caller pays before its first answer: interpreter
#: start, imports, and one solve.
_READY = (
    "import repro.baselines.ltb, repro.core.solver, repro.patterns.library as lib\n"
    "repro.core.solver.solve(lib.log_pattern(), cache=False)\n"
    "print('ready', flush=True)\n"
)


def time_ready() -> float:
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", _READY], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    try:
        line = proc.stdout.readline() if proc.stdout else b""
        elapsed = time.perf_counter() - started
    finally:
        if proc.stdout:
            proc.stdout.close()
        proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise BenchmarkError("the in-process ready check failed")
    return elapsed


def cold_solve_count() -> int:
    """Cold solves this process has run (the ``solve.cold_ms`` histogram)."""
    from repro.obs.metrics import registry

    histogram = registry().log_histograms().get("solve.cold_ms")
    return histogram.count if histogram is not None else 0


def run_table1(
    seed: int, seconds: float, traced: bool, between: Callable[[int], None]
) -> Dict[str, Any]:
    setup_s, setups = timed_setups(lambda _i: time_ready(), "client")
    attempted, failed, problems = check_cells()
    Table1Timer(seed).run_rounds(2)  # warm imports and allocator, untimed
    timer = Table1Timer(seed)
    probe = layers.Probe()
    cold_solves = 0

    def segment(i: int) -> None:
        nonlocal cold_solves
        timer.slot = i
        if traced:
            probe.install(layers.INPROCESS_SITES)
        cold_before = cold_solve_count()
        try:
            timer.run_for(seconds / SEGMENTS)
        finally:
            probe.uninstall()
        cold_solves += cold_solve_count() - cold_before
        between(i)

    speeds = calibrated(SEGMENTS, segment)
    dump = probe.dump()
    rounds = len(timer.case_ms)
    e2e = timer.figures(speeds, latency=True)
    e2e["setup_s"] = setup_s
    raw = timer.figures(unit_speeds(SEGMENTS), latency=True)
    raw["setup_s"] = median(setups)
    result: Dict[str, Any] = {
        "e2e": e2e,
        "raw": raw,
        "speeds": speeds,
        "samples": {
            "setup": len(setups),
            "rounds": rounds,
            "solve": rounds * len(timer.patterns),
        },
        "attempted": attempted + timer.attempted,
        "failed": failed + timer.failed,
        "problems": problems + timer.problems,
        "extra": {},
    }
    if traced:
        solves = layers.calls(dump, "core.solver.solve")
        metrics = layers.common_metrics(dump)
        metrics.update({
            "core.cache.canonicalize_per_req": (
                layers.calls(dump, "core.cache.canonicalize") / solves
            ),
            "serve.server.unaccounted_us": 0.0,
            "serve.coalesce.attach_ratio": 0.0,
            "serve.coalesce.batch_mean": 0.0,
            "serve.store.hit_ratio": 0.0,
            "core.solver.cold_solves": cold_solves,
            "baselines.ltb.vectors_tried": timer.vectors_tried,
        })
        result["layers"] = metrics
    return result
