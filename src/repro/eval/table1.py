"""Table 1 harness: regenerate the paper's main experimental table.

For every benchmark pattern (LoG, Canny, Prewitt, SE, Sobel3D, Median,
Gaussian) and both algorithms, compute: minimum bank count, storage
overhead in 9 kb memory blocks at five resolutions, instrumented arithmetic
operation count, and execution time.  Improvement rows follow the paper's
convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..obs.metrics import registry as obs_registry
from ..obs.tracer import span
from ..patterns.library import BENCHMARKS, benchmark_shape
from ..sched import map_tasks
from .metrics import AlgorithmRun, improvement, run_ltb, run_ours, storage_blocks
from .paper_data import RESOLUTION_ORDER


@dataclass(frozen=True)
class Table1Row:
    """Measured results for one benchmark.

    Attributes
    ----------
    benchmark:
        Pattern name (Table 1 row label).
    ours / ltb:
        Algorithm runs (banks, op counts, timing).
    storage:
        algorithm → per-resolution overhead in memory blocks.
    """

    benchmark: str
    ours: AlgorithmRun
    ltb: AlgorithmRun
    storage: Dict[str, Tuple[int, ...]]

    def storage_improvements(self) -> Tuple[float, ...]:
        """Per-resolution storage saving, in percent."""
        return tuple(
            improvement(l, o)
            for l, o in zip(self.storage["ltb"], self.storage["ours"])
        )

    @property
    def operations_improvement(self) -> float:
        return improvement(self.ltb.operations, self.ours.operations)

    @property
    def time_improvement(self) -> float:
        return improvement(self.ltb.time_ms, self.ours.time_ms)


@dataclass(frozen=True)
class Table1:
    """The full measured table plus the paper-style averages."""

    rows: Tuple[Table1Row, ...]

    def row(self, benchmark: str) -> Table1Row:
        for r in self.rows:
            if r.benchmark == benchmark:
                return r
        raise KeyError(f"no row for benchmark {benchmark!r}")

    @property
    def average_storage_improvement(self) -> float:
        """Mean over every (benchmark, resolution) cell, paper footer style."""
        cells: List[float] = []
        for r in self.rows:
            cells.extend(r.storage_improvements())
        return sum(cells) / len(cells)

    @property
    def average_operations_improvement(self) -> float:
        vals = [r.operations_improvement for r in self.rows]
        return sum(vals) / len(vals)

    @property
    def average_time_improvement(self) -> float:
        vals = [r.time_improvement for r in self.rows]
        return sum(vals) / len(vals)


def build_row(
    benchmark: str,
    resolutions: Sequence[str] = RESOLUTION_ORDER,
    time_repetitions: int = 20,
    ltb_engine: str = "auto",
) -> Table1Row:
    """Measure one benchmark end to end.

    ``ltb_engine`` selects the LTB search engine for the instrumented run;
    the reported LTB milliseconds always time the scalar reference (see
    :func:`~repro.eval.metrics.run_ltb`).
    """
    if benchmark not in BENCHMARKS:
        raise KeyError(f"unknown benchmark {benchmark!r}")
    pattern = BENCHMARKS[benchmark]()
    with span("eval.table1.row", benchmark=benchmark):
        ours = run_ours(pattern, repetitions=time_repetitions)
        ltb = run_ltb(
            pattern,
            repetitions=max(1, time_repetitions // 10),
            engine=ltb_engine,
        )

        storage: Dict[str, Tuple[int, ...]] = {}
        registry = obs_registry()
        for algorithm, run in (("ours", ours), ("ltb", ltb)):
            cells = []
            for resolution in resolutions:
                shape = benchmark_shape(benchmark, resolution)
                blocks = storage_blocks(shape, run.n_banks, algorithm)
                cells.append(blocks)
                registry.gauge(
                    f"eval.{benchmark}.{algorithm}.storage_blocks.{resolution}"
                ).set(blocks)
            storage[algorithm] = tuple(cells)
    return Table1Row(benchmark=benchmark, ours=ours, ltb=ltb, storage=storage)


def _row_task(task: Tuple[str, int, str]) -> Table1Row:
    """Scheduler task body: one row, bare.

    All configuration (including the LTB engine) travels in the task
    payload: workers inherit no CLI state.  The scheduler's process channel
    resets the worker registry and merges its dump home, so the row returns
    alone — dumping here too would double-count every metric it records.
    """
    benchmark, time_repetitions, ltb_engine = task
    return build_row(
        benchmark, time_repetitions=time_repetitions, ltb_engine=ltb_engine
    )


def build_table(
    benchmarks: Sequence[str] | None = None,
    time_repetitions: int = 20,
    jobs: int | None = None,
    ltb_engine: str = "auto",
) -> Table1:
    """Measure the full Table 1 (or a subset of rows).

    Rows run through the DAG scheduler (:func:`repro.sched.map_tasks`):
    ``jobs`` > 1 measures them on that many worker processes, ``None`` or
    1 inline.  Results (and the metrics each row publishes) come back in
    benchmark order, so the table and the registry match a serial run.
    """
    names = list(benchmarks) if benchmarks is not None else list(BENCHMARKS)
    with span("eval.table1.build", benchmarks=",".join(names), jobs=jobs):
        payloads = [(name, time_repetitions, ltb_engine) for name in names]
        rows = tuple(map_tasks(_row_task, payloads, jobs=jobs))
    table = Table1(rows=rows)
    registry = obs_registry()
    registry.gauge("eval.table1.average_storage_improvement").set(
        table.average_storage_improvement
    )
    registry.gauge("eval.table1.average_operations_improvement").set(
        table.average_operations_improvement
    )
    registry.gauge("eval.table1.average_time_improvement").set(
        table.average_time_improvement
    )
    return table
