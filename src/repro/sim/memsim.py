"""Cycle-level banked-memory simulation.

Replays an access trace against a :class:`~repro.hw.banked_memory.BankedMemory`
and reports the *measured* initiation interval: the cycles each iteration's
parallel read actually took given port arbitration.  This closes the loop
between the analytic ``δP`` (Definition 4) and observable hardware behaviour
— every benchmark's headline claim ("one cycle per iteration") is validated
here rather than assumed.

Telemetry: with observability on (``REPRO_OBS=1`` or ``repro.obs.enable()``)
the sweep records spans (``sim.simulate_sweep`` → load / trace / loop), a
``sim.cycles_per_iteration`` histogram and per-bank conflict counters in the
global registry, and — always, when the caller passes a
:class:`~repro.obs.conflicts.ConflictTable` — full conflict attribution
down to the pattern-offset pairs responsible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict

import numpy as np

from ..core.mapping import BankMapping
from ..core.partition import PartitionSolution
from ..errors import SimulationError
from ..hw.banked_memory import BankedMemory
from ..obs import state as obs_state
from ..obs.conflicts import ConflictTable
from ..obs.metrics import registry as obs_registry
from ..obs.tracer import span
from .trace import pattern_trace
from .vectorized import SweepStats, simulate_sweep_vectorized

#: Engine names accepted by :func:`simulate_sweep`.  ``"native"`` is the
#: compiled tier (:mod:`repro.native`, built on first use): preferred by
#: ``"auto"`` whenever it loads, and a clear
#: :class:`~repro.errors.NativeUnavailableError` when forced without it.
ENGINES = ("auto", "scalar", "vectorized", "native")


@dataclass(frozen=True)
class SimulationReport:
    """Measured behaviour of a partitioning solution under a real sweep.

    Attributes
    ----------
    iterations:
        Loop iterations simulated.
    total_cycles:
        Memory cycles consumed by all parallel reads.
    worst_cycles:
        Slowest single iteration (measured ``δP + 1``).
    cycle_histogram:
        cycles-per-iteration → iteration count.
    bank_utilization:
        Fraction of each bank's slots holding real data after load.
    ports_per_bank:
        Port width the memory was actually simulated with (after any
        widening demanded by the solution's ``bank_ports``).
    """

    iterations: int
    total_cycles: int
    worst_cycles: int
    cycle_histogram: Dict[int, int]
    bank_utilization: Dict[int, float]
    ports_per_bank: int = 1

    @property
    def measured_ii(self) -> float:
        """Average cycles per iteration (1.0 = fully parallel)."""
        return self.total_cycles / self.iterations

    @property
    def measured_delta_ii(self) -> int:
        """Worst-case extra cycles: the empirical ``δP``."""
        return self.worst_cycles - 1

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (dict keys become strings; see ``from_dict``)."""
        return {
            "iterations": self.iterations,
            "total_cycles": self.total_cycles,
            "worst_cycles": self.worst_cycles,
            "cycle_histogram": {
                str(k): v for k, v in sorted(self.cycle_histogram.items())
            },
            "bank_utilization": {
                str(k): v for k, v in sorted(self.bank_utilization.items())
            },
            "ports_per_bank": self.ports_per_bank,
            "measured_ii": self.measured_ii,
            "measured_delta_ii": self.measured_delta_ii,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SimulationReport":
        """Inverse of :meth:`to_dict` (derived fields are recomputed)."""
        return cls(
            iterations=int(payload["iterations"]),
            total_cycles=int(payload["total_cycles"]),
            worst_cycles=int(payload["worst_cycles"]),
            cycle_histogram={
                int(k): int(v) for k, v in payload["cycle_histogram"].items()
            },
            bank_utilization={
                int(k): float(v) for k, v in payload["bank_utilization"].items()
            },
            ports_per_bank=int(payload.get("ports_per_bank", 1)),
        )


def _vectorized_capable(mapping: BankMapping) -> bool:
    """Whether the bulk engine's batch math is valid for this mapping.

    The vectorized path recomputes ``B(x)``/``F(x)`` from the mapping's
    *formulas*, so a subclass that overrides the scalar address methods
    (tests use exactly this to inject corruption) would silently diverge.
    Eligible are the stock mapping types plus any type with a registered
    bulk kernel (:func:`repro.core.vectorized.register_bulk_kernel` — the
    baseline cyclic/block mappings register theirs at import).  Kernel
    lookup is by exact type, so subclasses of registered types also fall
    back to the scalar reference.
    """
    from ..core.packed import PackedBankMapping
    from ..core.vectorized import has_bulk_kernel

    return type(mapping) in (BankMapping, PackedBankMapping) or has_bulk_kernel(
        type(mapping)
    )


def resolve_engine(mapping: BankMapping, engine: str = "auto") -> str:
    """Concrete engine ``simulate_sweep`` will run for this mapping.

    Selection order for ``"auto"``: ``native`` (when the compiled
    extension, built on first use, loads) → ``vectorized`` → ``scalar``.
    The native engine shares the vectorized
    engine's eligibility rule — its fused kernels and hybrid bulk path
    recompute addresses from the mapping's *formulas*, so a subclass that
    overrides the scalar address methods must fall back to scalar.

    Forcing an ineligible engine raises: :class:`SimulationError` for a
    formula-overriding subclass, :class:`~repro.errors.NativeUnavailableError`
    for ``engine="native"`` without a usable extension.  ``"auto"`` never
    raises — missing native degrades silently to the NumPy engines.
    """
    from .. import native

    if engine not in ENGINES:
        raise SimulationError(
            f"unknown simulation engine {engine!r}; choose one of {ENGINES}"
        )
    bulk_capable = _vectorized_capable(mapping)
    if engine == "auto":
        if not bulk_capable:
            return "scalar"
        return "native" if native.available() else "vectorized"
    if engine in ("vectorized", "native") and not bulk_capable:
        raise SimulationError(
            f"engine={engine!r} supports stock BankMapping types and types "
            f"with a registered bulk kernel only; {type(mapping).__name__} "
            "overrides scalar address methods the bulk path cannot honor — "
            "use engine='scalar' (or register_bulk_kernel for the type)"
        )
    if engine == "native":
        native.require()  # NativeUnavailableError when it cannot load
    return engine


def _simulate_sweep_scalar(
    mapping: BankMapping,
    array: "np.ndarray" | None,
    step: int,
    limit: int | None,
    ports_per_bank: int,
    verify: bool,
    attribution: ConflictTable | None,
) -> SweepStats:
    """Reference engine: replay the trace through :class:`BankedMemory`."""
    memory = BankedMemory(mapping=mapping, ports_per_bank=ports_per_bank)
    with span("sim.load_array"):
        if array is None:
            array = np.arange(
                int(np.prod(mapping.shape)), dtype=np.int64
            ).reshape(mapping.shape)
        memory.load_array(array)

    solution: PartitionSolution = mapping.solution
    with span("sim.trace_build"):
        trace = pattern_trace(
            solution.pattern, mapping.shape, step=step, limit=limit
        )
    pattern_offsets = solution.pattern.offsets

    histogram: Dict[int, int] = {}
    total = 0
    worst = 0
    with span("sim.sweep_loop", iterations=len(trace), verify=verify):
        for iteration in trace:
            result = memory.parallel_read(list(iteration.reads))
            if verify:
                expected = [int(array[e]) for e in iteration.reads]
                if result.values != expected:
                    raise SimulationError(
                        f"data corruption at offset {iteration.offset}: "
                        f"got {result.values}, expected {expected}"
                    )
            histogram[result.cycles] = histogram.get(result.cycles, 0) + 1
            total += result.cycles
            worst = max(worst, result.cycles)
            if attribution is not None:
                attribution.record_iteration(
                    pattern_offsets, result.banks_touched, result.cycles
                )

    return SweepStats(
        iterations=len(trace),
        total_cycles=total,
        worst_cycles=worst,
        cycle_histogram=histogram,
        bank_utilization=memory.utilization(),
        ports_per_bank=memory.ports_per_bank,
        bank_conflicts=memory.conflict_counts(),
        bank_accesses=memory.access_counts(),
    )


def _publish_report(
    stats: SweepStats, attribution: ConflictTable | None, obs_on: bool
) -> SimulationReport:
    """Shared tail: attribution totals, registry mirroring, report build.

    Both engines funnel through here, so what the outside world sees (the
    report fields and every metric name) is engine-independent by
    construction.
    """
    if attribution is not None:
        attribution.observed_bank_conflicts = dict(stats.bank_conflicts)
    if obs_on:
        reg = obs_registry()
        cycles_hist = reg.histogram("sim.cycles_per_iteration")
        for cycles, count in stats.cycle_histogram.items():
            cycles_hist.observe(cycles, count)
        for bank, count in stats.bank_conflicts.items():
            if count:
                reg.counter(f"sim.bank.{bank}.conflicts").inc(count)
        for bank, count in stats.bank_accesses.items():
            if count:
                reg.counter(f"sim.bank.{bank}.accesses").inc(count)
        reg.counter("sim.iterations").inc(stats.iterations)
        reg.counter("sim.total_cycles").inc(stats.total_cycles)

    return SimulationReport(
        iterations=stats.iterations,
        total_cycles=stats.total_cycles,
        worst_cycles=stats.worst_cycles,
        cycle_histogram=stats.cycle_histogram,
        bank_utilization=stats.bank_utilization,
        ports_per_bank=stats.ports_per_bank,
    )


def simulate_sweep(
    mapping: BankMapping,
    array: "np.ndarray" | None = None,
    step: int = 1,
    limit: int | None = None,
    ports_per_bank: int = 1,
    verify: bool = True,
    conflicts: ConflictTable | None = None,
    engine: str = "auto",
) -> SimulationReport:
    """Sweep the solution's pattern across the array and measure cycles.

    Parameters
    ----------
    mapping:
        The full address mapping under test.
    array:
        Data to load; synthesized (arange) when omitted.
    step, limit:
        Domain striding / truncation for large arrays.
    ports_per_bank:
        Bank bandwidth ``B`` (paper default 1).
    verify:
        Cross-check every read against the source array.  On by default;
        benchmarks that time the sweep should pass ``verify=False`` so the
        check does not dominate and distort the telemetry.
    conflicts:
        Optional :class:`~repro.obs.conflicts.ConflictTable` to fill with
        per-bank / per-offset-pair attribution.  Its port width must match
        the memory's effective width.  When omitted, attribution is still
        collected (and mirrored into the metrics registry) whenever
        observability is enabled.
    engine:
        ``"auto"`` (default) uses the fastest eligible engine for the
        mapping — the compiled ``native`` tier when the optional extension
        is built (:mod:`repro.native`), else the ``vectorized`` NumPy path
        for stock mapping types, else the scalar reference;
        ``"scalar"``/``"vectorized"``/``"native"`` force an engine.  All
        produce bit-identical reports.  Forcing a bulk engine on a mapping
        subclass with overridden address methods is an error, and forcing
        ``"native"`` without the extension raises
        :class:`~repro.errors.NativeUnavailableError` (see
        :func:`resolve_engine`).
    """
    engine = resolve_engine(mapping, engine)

    if ports_per_bank < 1:
        raise SimulationError(
            f"ports_per_bank must be positive, got {ports_per_bank}"
        )
    effective_ports = max(ports_per_bank, mapping.solution.bank_ports)
    attribution = conflicts
    if attribution is not None and attribution.ports_per_bank != effective_ports:
        raise SimulationError(
            f"conflict table expects {attribution.ports_per_bank} port(s) "
            f"but the memory serves {effective_ports}"
        )
    obs_on = obs_state.enabled()
    if attribution is None and obs_on:
        attribution = ConflictTable(effective_ports)

    started = time.perf_counter()
    with span("sim.simulate_sweep", shape=mapping.shape, engine=engine):
        if engine == "native":
            from .native import simulate_sweep_native

            stats = simulate_sweep_native(
                mapping,
                array=array,
                step=step,
                limit=limit,
                ports_per_bank=ports_per_bank,
                verify=verify,
                attribution=attribution,
            )
        elif engine == "vectorized":
            stats = simulate_sweep_vectorized(
                mapping,
                array=array,
                step=step,
                limit=limit,
                ports_per_bank=ports_per_bank,
                verify=verify,
                attribution=attribution,
            )
        else:
            stats = _simulate_sweep_scalar(
                mapping, array, step, limit, ports_per_bank, verify, attribution
            )
        report = _publish_report(stats, attribution, obs_on)
    obs_registry().log_histogram("sim.simulate_ms").observe(
        (time.perf_counter() - started) * 1000.0
    )
    return report


def simulate_unpartitioned(
    pattern_size: int, iterations: int, ports: int = 1
) -> int:
    """Cycles a single-bank memory needs for the same sweep (the baseline).

    With one ``ports``-wide memory, each iteration's ``m`` reads serialize
    into ``⌈m / ports⌉`` cycles.
    """
    if min(pattern_size, iterations, ports) < 1:
        raise SimulationError("pattern_size, iterations and ports must be positive")
    per_iteration = -(-pattern_size // ports)
    return per_iteration * iterations


def speedup_vs_unpartitioned(report: SimulationReport, pattern_size: int) -> float:
    """Measured speedup of the banked memory over a single bank.

    The baseline single-bank memory gets the same port width the banked
    simulation ran with (``report.ports_per_bank``), so dual-port runs are
    compared against a dual-port monolith — apples to apples.
    """
    baseline = simulate_unpartitioned(
        pattern_size, report.iterations, ports=report.ports_per_bank
    )
    return baseline / report.total_cycles
