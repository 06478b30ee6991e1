"""Parameter-sweep series: figure-style data beyond the single Table 1.

Each function returns a list of (x, ...) rows — the series a plot would
show — so benchmark output can report trends: overhead vs bank count,
overhead vs resolution, throughput vs unroll factor, energy vs scheme.

The parallel sweeps run through the DAG scheduler (:mod:`repro.sched`),
which adds streaming: pass ``on_row`` to receive ``(index, row)`` callbacks
the moment each point completes — no barrier on the slowest point — while
the returned list stays in input order and byte-identical to a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..baselines.ltb import ltb_overhead_elements
from ..core.mapping import BankMapping, ours_overhead_elements
from ..core.partition import partition, widen_solution
from ..core.pattern import Pattern
from ..core.solver import solve
from ..hw.bram import overhead_blocks
from ..hw.energy import (
    EnergyModel,
    banked_sweep_energy,
    duplicated_sweep_energy,
    monolithic_sweep_energy,
)
from ..patterns.generators import unrolled
from ..patterns.library import RESOLUTIONS
from ..sched import Task, run_stream

#: Streaming callback: ``on_row(index, row)`` as each point completes.
RowCallback = Callable[[int, Any], None]


def _map_rows(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    jobs: Optional[int],
    on_row: Optional[RowCallback] = None,
) -> List[Any]:
    """Ordered map over sweep points, streaming completions to ``on_row``.

    The list comes back in input order regardless of completion order, so
    the default (no callback) behavior is indistinguishable from a flat map.
    """
    tasks = [Task(fn, args=(item,)) for item in items]
    index = {task: i for i, task in enumerate(tasks)}
    results: List[Any] = [None] * len(tasks)
    for outcome in run_stream(tasks, jobs=jobs):
        if not outcome.ok:
            raise outcome.error
        i = index[outcome.task]
        results[i] = outcome.value
        if on_row is not None:
            on_row(i, outcome.value)
    return results


@dataclass(frozen=True)
class OverheadPoint:
    """One point of an overhead-vs-banks series.

    ``delta_ii`` is populated only when the series was computed for a
    concrete pattern (it is the solver's achieved ``δP`` under the point's
    bank budget); pure-geometry series leave it ``None``.
    """

    n_banks: int
    ours_elements: int
    ltb_elements: int
    delta_ii: Optional[int] = None

    @property
    def ratio(self) -> float:
        if self.ours_elements == 0:
            return float("inf") if self.ltb_elements else 1.0
        return self.ltb_elements / self.ours_elements


def _overhead_point_task(
    task: Tuple[Tuple[int, ...], int, Optional[Pattern]]
) -> OverheadPoint:
    shape, n, pattern = task
    delta = None
    if pattern is not None:
        delta = solve(pattern, n_max=n).solution.delta_ii
    return OverheadPoint(
        n_banks=n,
        ours_elements=ours_overhead_elements(shape, n),
        ltb_elements=ltb_overhead_elements(shape, n),
        delta_ii=delta,
    )


def overhead_vs_banks(
    shape: Sequence[int],
    bank_range: Sequence[int],
    pattern: Pattern | None = None,
    jobs: int | None = None,
    on_row: Optional[RowCallback] = None,
) -> List[OverheadPoint]:
    """Padding overhead of both strategies across bank counts.

    With a ``pattern``, each point additionally reports the achieved
    ``δP`` under that bank budget (a :func:`repro.core.solver.solve` per
    point — memoized by the canonical cache, so a warm re-run is pure
    lookups).  ``jobs`` fans the points out over worker processes;
    ``on_row`` streams each finished point.
    """
    tasks = [(tuple(shape), n, pattern) for n in bank_range]
    return _map_rows(_overhead_point_task, tasks, jobs=jobs, on_row=on_row)


def _resolution_row_task(
    task: Tuple[str, Tuple[int, ...], int]
) -> Tuple[str, int, int]:
    name, shape, banks = task
    ours = overhead_blocks(ours_overhead_elements(shape, banks))
    ltb = overhead_blocks(ltb_overhead_elements(shape, banks))
    return (name, ours, ltb)


def overhead_vs_resolution(
    pattern: Pattern,
    algorithm_banks: int | None = None,
    jobs: int | None = None,
    on_row: Optional[RowCallback] = None,
) -> List[Tuple[str, int, int]]:
    """(resolution, ours blocks, ltb blocks) across the Table 1 sizes.

    ``algorithm_banks`` defaults to the pattern's own ``N_f`` so callers
    can pass just the pattern.
    """
    banks = (
        algorithm_banks if algorithm_banks is not None else partition(pattern).n_banks
    )
    tasks = [(name, shape, banks) for name, shape in RESOLUTIONS.items()]
    return _map_rows(_resolution_row_task, tasks, jobs=jobs, on_row=on_row)


def _unroll_row_task(
    task: Tuple[Pattern, int, Optional[int]]
) -> Tuple[int, int, int, float]:
    pattern, factor, n_max = task
    widened = unrolled(pattern, factor) if factor > 1 else pattern
    solution = partition(widened, n_max=n_max)
    ii = solution.delta_ii + 1
    return (factor, solution.n_banks, ii, factor * pattern.size / ii)


def throughput_vs_unroll(
    pattern: Pattern,
    factors: Sequence[int],
    n_max: int | None = None,
    jobs: int | None = None,
    on_row: Optional[RowCallback] = None,
) -> List[Tuple[int, int, int, float]]:
    """(factor, banks, II, elements-per-cycle) for unrolled variants.

    Throughput is the base pattern's elements delivered per cycle:
    ``factor · m / II`` — the series shows bandwidth scaling linearly with
    banks until ``n_max`` caps it.
    """
    tasks = [(pattern, factor, n_max) for factor in factors]
    return _map_rows(_unroll_row_task, tasks, jobs=jobs, on_row=on_row)


def energy_vs_scheme(
    pattern: Pattern,
    shape: Sequence[int],
    iterations: int,
    model: EnergyModel | None = None,
) -> List[Tuple[str, float, float, float]]:
    """(scheme, dynamic, leakage, total) for the three architectures.

    Compares the paper's banking against the two Section 1 alternatives it
    argues against: a monolithic multi-ported memory and full duplication.
    """
    model = model or EnergyModel()
    solution = partition(pattern)
    mapping = BankMapping(solution=solution, shape=tuple(shape))
    total = mapping.original_elements
    m = pattern.size

    banked = banked_sweep_energy(mapping, iterations, model)
    mono = monolithic_sweep_energy(total, m, iterations, ports=m, model=model)
    dup = duplicated_sweep_energy(total, m, iterations, model)
    return [
        ("banked", banked.dynamic, banked.leakage, banked.total),
        ("multiport", mono.dynamic, mono.leakage, mono.total),
        ("duplicate", dup.dynamic, dup.leakage, dup.total),
    ]


def bandwidth_vs_ports(
    pattern: Pattern, bandwidths: Sequence[int]
) -> List[Tuple[int, int, int]]:
    """(bank bandwidth B, physical banks, ports per bank) fold series."""
    base = partition(pattern)
    rows = []
    for bandwidth in bandwidths:
        wide = widen_solution(base, bandwidth)
        rows.append((bandwidth, wide.n_banks, wide.bank_ports))
    return rows
