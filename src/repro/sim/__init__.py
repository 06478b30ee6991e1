"""Banked-memory simulation: traces, cycle measurement, functional checks."""

from .engine import PipelineModel, banked_model, serialized_model
from .functional import (
    BankedStencilResult,
    banked_stencil,
    golden_stencil,
    verify_banked_stencil,
)
from .memsim import (
    ENGINES,
    SimulationReport,
    SweepStats,
    resolve_engine,
    simulate_sweep,
    simulate_unpartitioned,
    speedup_vs_unpartitioned,
)
from .trace import (
    TraceIteration,
    domain_ranges,
    iteration_domain,
    pattern_trace,
    trace_addresses,
)

__all__ = [
    "ENGINES",
    "SweepStats",
    "domain_ranges",
    "PipelineModel",
    "banked_model",
    "serialized_model",
    "BankedStencilResult",
    "banked_stencil",
    "golden_stencil",
    "verify_banked_stencil",
    "SimulationReport",
    "resolve_engine",
    "simulate_sweep",
    "simulate_unpartitioned",
    "speedup_vs_unpartitioned",
    "TraceIteration",
    "iteration_domain",
    "pattern_trace",
    "trace_addresses",
]
