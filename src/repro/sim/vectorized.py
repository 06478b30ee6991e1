"""Vectorized sweep simulation: the whole trace in a few NumPy kernels.

The scalar simulator in :mod:`repro.sim.memsim` replays a trace one
iteration at a time through :class:`~repro.hw.banked_memory.BankedMemory`
— a faithful hardware model, but Python-loop bound: a megapixel sweep
costs hundreds of thousands of `parallel_read` calls, each doing ``m``
scalar address translations.  This module computes the *identical*
:class:`~repro.sim.memsim.SimulationReport` without instantiating banks
at all:

1. **Load** — scatter the source array into flat per-bank storage with one
   :func:`~repro.core.vectorized.bulk_addresses` call per bounded chunk of
   the element grid (duplicate addresses resolve last-write-wins, exactly
   like the scalar ``poke`` order).
2. **Trace** — the iteration domain is an integer grid, so loop offsets are
   generated arithmetically; the full read set of a chunk of iterations is
   one broadcasted add of the pattern offsets.
3. **Cycles** — the scalar port arbiter serves ``ports`` claims per bank
   per cycle, so an iteration touching bank ``b`` with ``k_b`` reads takes
   ``max_b ⌈k_b / ports⌉`` cycles.  A ``bincount`` over (iteration, bank)
   pairs yields every ``k_b`` at once; the per-bank failed-claim tallies the
   hardware counters would have recorded follow in closed form
   (``Σ_{j≥1} max(0, k − j·ports)``).

Equivalence with the scalar engine — including the corruption check, the
uninitialized-read guard, conflict attribution, and the report fields bit
for bit — is enforced by unit and Hypothesis property tests.

Memory stays bounded on huge shapes: both the load pass and the trace pass
work in chunks of at most :func:`~repro.core.vectorized.chunk_budget`
coordinate rows (``chunk=`` overrides the default).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.mapping import BankMapping
from ..core.vectorized import bulk_addresses, chunk_budget, iter_element_chunks
from ..errors import SimulationError
from ..obs.conflicts import ConflictTable
from ..obs.tracer import span
from .trace import domain_ranges


@dataclass
class SweepStats:
    """Raw sweep measurements shared by both engines.

    The dispatcher in :mod:`repro.sim.memsim` turns this into the public
    :class:`~repro.sim.memsim.SimulationReport` and mirrors it into the
    metrics registry, so the two engines cannot drift in how they publish.
    """

    iterations: int
    total_cycles: int
    worst_cycles: int
    cycle_histogram: Dict[int, int]
    bank_utilization: Dict[int, float]
    ports_per_bank: int
    bank_conflicts: Dict[int, int]
    bank_accesses: Dict[int, int]


def _loaded_storage(
    mapping: BankMapping,
    array: "np.ndarray",
    bases: "np.ndarray",
    sizes: "np.ndarray",
    chunk: int | None,
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Scatter the array into flat bank storage; return (values, written)."""
    data = np.asarray(array)
    if data.shape != mapping.shape:
        raise SimulationError(
            f"array shape {data.shape} does not match mapping shape "
            f"{mapping.shape}"
        )
    flat = data.reshape(-1)
    total_slots = int(bases[-1] + sizes[-1]) if len(sizes) else 0
    storage = np.zeros(total_slots, dtype=np.int64)
    written = np.zeros(total_slots, dtype=bool)
    for start, elements in iter_element_chunks(mapping.shape, chunk):
        banks, offsets = bulk_addresses(mapping, elements)
        if (offsets < 0).any() or (offsets >= sizes[banks]).any():
            bad = int(np.nonzero((offsets < 0) | (offsets >= sizes[banks]))[0][0])
            raise SimulationError(
                f"offset {int(offsets[bad])} out of range for bank "
                f"{int(banks[bad])} of size {int(sizes[banks[bad]])}"
            )
        addresses = bases[banks] + offsets
        # Row-major element order + NumPy's last-write-wins fancy assignment
        # reproduce the scalar load exactly, collisions included.
        storage[addresses] = flat[start : start + len(elements)].astype(np.int64)
        written[addresses] = True
    return storage, written


def _iteration_block(
    ranges, lens: Tuple[int, ...], lo: int, hi: int
) -> "np.ndarray":
    """Loop offsets for row-major strided-domain indices ``lo … hi - 1``."""
    linear = np.arange(lo, hi, dtype=np.int64)
    coords = np.unravel_index(linear, lens)
    block = np.empty((hi - lo, len(lens)), dtype=np.int64)
    for dim, rng in enumerate(ranges):
        block[:, dim] = rng.start + coords[dim] * rng.step
    return block


def _raise_corruption(
    offsets_block: "np.ndarray",
    values: "np.ndarray",
    expected: "np.ndarray",
    iteration: int,
) -> None:
    got = [int(v) for v in values[iteration]]
    want = [int(v) for v in expected[iteration]]
    offset = tuple(int(c) for c in offsets_block[iteration])
    raise SimulationError(
        f"data corruption at offset {offset}: got {got}, expected {want}"
    )


def simulate_sweep_vectorized(
    mapping: BankMapping,
    array: "np.ndarray" | None = None,
    step: int = 1,
    limit: int | None = None,
    ports_per_bank: int = 1,
    verify: bool = True,
    attribution: Optional[ConflictTable] = None,
    chunk: int | None = None,
) -> SweepStats:
    """Run the full sweep measurement in NumPy; see the module docstring.

    The caller (``simulate_sweep``) owns parameter validation shared with
    the scalar engine (port widths, conflict-table compatibility) and the
    conversion of the returned :class:`SweepStats` into a report.
    """
    solution = mapping.solution
    pattern = solution.pattern
    ports = max(ports_per_bank, solution.bank_ports)
    n_banks = mapping.n_banks

    sizes = np.array(
        [mapping.bank_size(b) for b in range(n_banks)], dtype=np.int64
    )
    bases = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.int64)

    with span("sim.load_array"):
        if array is None:
            array = np.arange(
                int(np.prod(mapping.shape)), dtype=np.int64
            ).reshape(mapping.shape)
        storage, written = _loaded_storage(mapping, array, bases, sizes, chunk)
        occupancy = np.add.reduceat(written, bases) if n_banks else np.array([])
        flat_array = np.asarray(array).reshape(-1)

    with span("sim.trace_build"):
        ranges = domain_ranges(pattern, mapping.shape, step)
        lens = tuple(len(r) for r in ranges)
        total_iterations = 1
        for n in lens:
            total_iterations *= n
        if limit is not None:
            total_iterations = min(total_iterations, limit)
        if total_iterations < 1:
            raise SimulationError("empty trace: domain produced no iterations")
        deltas = np.asarray(pattern.offsets, dtype=np.int64)
        m = pattern.size
        shape_arr = np.asarray(mapping.shape, dtype=np.int64)

    budget = chunk_budget(chunk)
    iter_chunk = max(1, budget // max(m, n_banks))

    histogram: Dict[int, int] = {}
    total = 0
    worst = 0
    conflict_totals = np.zeros(n_banks, dtype=np.int64)
    access_totals = np.zeros(n_banks, dtype=np.int64)
    pattern_offsets = pattern.offsets

    with span("sim.sweep_loop", iterations=total_iterations, verify=verify):
        for lo in range(0, total_iterations, iter_chunk):
            hi = min(lo + iter_chunk, total_iterations)
            block = _iteration_block(ranges, lens, lo, hi)
            count = hi - lo
            elements = (block[:, None, :] + deltas[None, :, :]).reshape(-1, len(lens))
            banks, offsets = bulk_addresses(mapping, elements)
            addresses = bases[banks] + offsets

            missing = ~written[addresses]
            if missing.any():
                bad = elements[int(np.nonzero(missing)[0][0])]
                raise SimulationError(
                    f"read of uninitialized element {tuple(int(c) for c in bad)}"
                )
            if verify:
                values = storage[addresses].reshape(count, m)
                linear = np.ravel_multi_index(tuple(elements.T), tuple(int(w) for w in shape_arr))
                expected = flat_array[linear].astype(np.int64).reshape(count, m)
                mismatch = values != expected
                if mismatch.any():
                    _raise_corruption(
                        block, values, expected, int(np.nonzero(mismatch.any(axis=1))[0][0])
                    )

            keys = (
                np.repeat(np.arange(count, dtype=np.int64), m) * n_banks + banks
            )
            per_bank = np.bincount(keys, minlength=count * n_banks).reshape(
                count, n_banks
            )
            cycles = -(-per_bank.max(axis=1) // ports)

            counts = np.bincount(cycles)
            for value in np.nonzero(counts)[0]:
                histogram[int(value)] = histogram.get(int(value), 0) + int(
                    counts[value]
                )
            total += int(cycles.sum())
            worst = max(worst, int(cycles.max()))

            # Failed port claims per (iteration, bank), in closed form:
            # q = floor((k - 1) / ports) retry rounds, each losing k - j*ports.
            q = np.maximum(per_bank - 1, 0) // ports
            failed = q * per_bank - ports * (q * (q + 1) // 2)
            conflict_totals += failed.sum(axis=0)
            access_totals += per_bank.sum(axis=0)

            if attribution is not None:
                banks_matrix = banks.reshape(count, m)
                for i in range(count):
                    attribution.record_iteration(
                        pattern_offsets,
                        [int(b) for b in banks_matrix[i]],
                        int(cycles[i]),
                    )

    utilization = {
        b: (int(occupancy[b]) / int(sizes[b]) if int(sizes[b]) else 0.0)
        for b in range(n_banks)
    }
    return SweepStats(
        iterations=total_iterations,
        total_cycles=total,
        worst_cycles=worst,
        cycle_histogram=histogram,
        bank_utilization=utilization,
        ports_per_bank=ports,
        bank_conflicts={b: int(conflict_totals[b]) for b in range(n_banks)},
        bank_accesses={b: int(access_totals[b]) for b in range(n_banks)},
    )
