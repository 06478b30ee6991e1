"""Access-trace generation for loop nests sweeping a pattern.

A stencil loop nest visits every interior offset ``s`` of the array and
reads the pattern instance ``P_s``.  A *trace* is the per-iteration list of
element addresses; the simulator replays it against a banked memory to
measure achieved initiation intervals instead of trusting analytic claims.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from ..core.pattern import Pattern
from ..errors import SimulationError

Element = Tuple[int, ...]


@dataclass(frozen=True)
class TraceIteration:
    """One loop iteration: the loop offset and the addresses it reads."""

    offset: Element
    reads: Tuple[Element, ...]


def domain_ranges(
    pattern: Pattern, shape: Sequence[int], step: int = 1
) -> List[range]:
    """Per-dimension loop ranges keeping the whole pattern inside the array.

    The validated building block shared by the scalar trace generator and
    the native simulator: both must agree exactly on the iteration domain,
    so both derive it from this one function.  A ``step`` longer than an
    axis's span is clamped to the span, which visits the same single
    offset and keeps the step within int64 for the native engine.
    """
    if step < 1:
        raise SimulationError(f"step must be positive, got {step}")
    dims = tuple(int(w) for w in shape)
    if len(dims) != pattern.ndim:
        raise SimulationError(
            f"shape {dims} does not match pattern dimensionality {pattern.ndim}"
        )
    lo, hi = pattern.mins, pattern.maxs
    ranges = []
    for j, w in enumerate(dims):
        start = -lo[j]
        stop = w - hi[j]
        if stop <= start:
            raise SimulationError(
                f"array of shape {dims} too small for pattern extent along dim {j}"
            )
        ranges.append(range(start, stop, min(step, stop - start)))
    return ranges


def iteration_domain(
    pattern: Pattern, shape: Sequence[int], step: int = 1
) -> Iterator[Element]:
    """Loop offsets ``s`` keeping the whole pattern inside the array.

    Mirrors the paper's Fig. 1(b) loop bounds (``i = 3 … 638`` etc. come
    from keeping the 5×5 window in a 640×480 frame).  ``step`` strides the
    domain for cheap sampling of huge arrays.
    """
    return itertools.product(*domain_ranges(pattern, shape, step))


def pattern_trace(
    pattern: Pattern, shape: Sequence[int], step: int = 1, limit: int | None = None
) -> List[TraceIteration]:
    """Materialize the trace of a full pattern sweep (optionally truncated)."""
    trace: List[TraceIteration] = []
    for count, offset in enumerate(iteration_domain(pattern, shape, step)):
        if limit is not None and count >= limit:
            break
        instance = pattern.translated(offset)
        trace.append(TraceIteration(offset=offset, reads=instance.offsets))
    if not trace:
        raise SimulationError("empty trace: domain produced no iterations")
    return trace


def trace_addresses(trace: Sequence[TraceIteration]) -> Iterator[Element]:
    """Flatten a trace to its raw address stream."""
    for iteration in trace:
        yield from iteration.reads
