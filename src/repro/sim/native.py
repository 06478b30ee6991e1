"""Native (compiled) sweep simulation: the whole measurement in C.

Mappings with a registered **native spec**
(:func:`repro.native.register_native_spec`: the stock Section 4.4 mapping
in its direct, two-level and wide schemes, and the cyclic/block baselines)
run in two calls into :mod:`repro.native._native`.  Both reduce an element
``x`` to one integer ``T`` — ``(α·x) mod KN`` for the linear schemes, the
banked coordinate for cyclic/block — kept as a (quotient, remainder) pair
by ``N`` (the chunk for block).  One part picks the bank from a table of
about ``N`` entries built once per call; the other scales into the in-bank
offset.  Pairs add with one carry, so no read divides:

* ``load_banks`` scatters the array into flat bank storage in row-major
  order, last write wins, carrying the pair along each row, and checks
  every offset against its bank's ``bank_size``.
* ``sweep`` walks the strided iteration domain itself.  Each pattern
  offset's pair and address ravels are computed once per call, the loop
  offset's once per row and then carried along it.  Every read passes the
  out-of-range guard, the uninitialized-read guard and, with ``verify``,
  the comparison with the source array.  Cycles and failed port claims
  come from tables over ``k = 0 … m`` claims of one bank.  Where the
  remainder picks the bank (linear, cyclic), an iteration's banks depend on
  its loop offset's remainder alone, so without attribution the accounting
  runs once per remainder, weighted by its visits; otherwise once per
  iteration.

Both kernels take offsets relative to the array's origin (loop offsets
plus the pattern's minimum corner, pattern offsets less it), so every
coordinate lies in ``[0, shape)``: a pattern translated far beyond int64
simulates like any other, and the products with ``α`` are taken in 128
bits.  Error messages are rebuilt from the original offsets.

The load reaches an element along array rows and the sweep along
iteration rows plus per-offset terms, so the two guards cross-check the
two walks on every read.  What no runtime guard can see is a spec that is
injective but disagrees with the mapping's formulas; the engine matrix and
the ``repro.verify`` differential oracles catch that.

Without attribution the sweep is one call over the whole domain.  With it,
the domain goes in chunks of about ``DEFAULT_CHUNK_ELEMENTS``
(:mod:`repro.core.vectorized`) reads, whose banks and cycles feed the
conflict table.  The kernel reports errors by the same chunks either way:
a missing read anywhere in a chunk outranks a corruption found earlier in
it, and a corruption outranks any error in a later chunk, so the error a
sweep raises does not depend on attribution.

Mapping types without a spec (``PackedBankMapping``, formula-overriding
subclasses) run the scalar reference instead; see
:func:`repro.sim.memsim.resolve_engine`.  Reports equal the scalar
reference's :class:`~repro.sim.memsim.SweepStats`, bit for bit and with
the same error messages.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import vectorized
from ..core.mapping import BankMapping
from ..core.pattern import Pattern
from ..errors import SimulationError
from ..native import native_spec_for, require
from ..obs.conflicts import ConflictTable
from ..obs.tracer import span
from .memsim import SweepStats
from .trace import domain_ranges

_STATUS_OK = 0
_STATUS_MISSING = 1
_STATUS_CORRUPT = 2
_STATUS_BAD_ADDRESS = 3
_STATUS_OUT_OF_RANGE = 4


def _raise_missing(element: Sequence[int]) -> None:
    raise SimulationError(
        f"read of uninitialized element {tuple(int(c) for c in element)}"
    )


def _raise_bad_address(kernel: str, element: Sequence[int]) -> None:
    raise SimulationError(
        f"native {kernel} kernel computed an out-of-range address for "
        f"element {tuple(int(c) for c in element)}; the mapping's native "
        "spec disagrees with its allocation"
    )


def _check_array_shape(mapping: BankMapping, data: "np.ndarray") -> None:
    if data.shape != mapping.shape:
        raise SimulationError(
            f"array shape {data.shape} does not match mapping shape "
            f"{mapping.shape}"
        )


def _sweep_domain(
    mapping: BankMapping, step: int, limit: int | None
) -> Tuple[List[range], Tuple[int, ...], int]:
    """The sweep's loop ranges, their lengths, and the iterations to run."""
    ranges = domain_ranges(mapping.solution.pattern, mapping.shape, step)
    lens = tuple(len(r) for r in ranges)
    total = vectorized.grid_size(lens)
    if limit is not None:
        total = min(total, limit)
    if total < 1:
        raise SimulationError("empty trace: domain produced no iterations")
    return ranges, lens, total


def _origin_deltas(pattern: Pattern) -> "np.ndarray":
    """The pattern's offsets less its minimum corner ``mins``, as (m, n).

    The kernels take loop offsets plus ``mins`` and pattern offsets less
    it.  Every element ``s + d`` stays the same and every coordinate lies
    in ``[0, shape)``, so a pattern translated far beyond int64 still fits.
    """
    low = pattern.mins
    return np.array(
        [[c - lo for c, lo in zip(offset, low)] for offset in pattern.offsets],
        dtype=np.int64,
    )


def _raise_corruption(
    ranges: Sequence[range],
    relative: Sequence[int],
    got: Sequence[int],
    expected: Sequence[int],
) -> None:
    """The scalar engine's corruption error for the iteration whose loop
    offset, relative to the origin, is ``relative``."""
    offset = tuple(rng.start + int(c) for rng, c in zip(ranges, relative))
    raise SimulationError(
        f"data corruption at offset {offset}: got {[int(v) for v in got]}, "
        f"expected {[int(v) for v in expected]}"
    )


def _bank_layout(mapping: BankMapping) -> Tuple["np.ndarray", "np.ndarray"]:
    """Per-bank sizes (``mapping.bank_size``) and their flat-storage bases."""
    sizes = np.array(
        [mapping.bank_size(b) for b in range(mapping.n_banks)], dtype=np.int64
    )
    bases = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.int64)
    return sizes, bases


def _kernel_layout(spec: Dict[str, Any], shape: Tuple[int, ...]) -> tuple:
    """The leading arguments of ``load_banks`` and ``sweep``.

    The spec's integer fields, ``α`` reduced modulo the window (only
    ``(α·x) mod KN`` is ever used, and the reduction keeps any ``α`` in
    int64), the bank shape and the array shape.
    """
    window = spec.get("window", 1)
    alpha = spec.get("alpha")
    fields = (
        spec["kind"],
        spec.get("scheme", 0),
        spec["n_banks"],
        spec.get("inner", 1),
        window,
        spec.get("bank_ports", 1),
        spec.get("inner_bank_size", 1),
        spec.get("dim", 0),
        spec.get("divisor", 1),
    )
    return (
        fields,
        None
        if alpha is None
        else np.array([int(a) % window for a in alpha], dtype=np.int64),
        np.array(spec["bank_shape"], dtype=np.int64),
        np.array(shape, dtype=np.int64),
    )


def _sweep_stats(
    mapping: BankMapping,
    iterations: int,
    total: int,
    worst: int,
    hist_acc: "np.ndarray",
    occupancy: "np.ndarray",
    sizes: "np.ndarray",
    ports: int,
    conflict_totals: "np.ndarray",
    access_totals: "np.ndarray",
) -> SweepStats:
    n_banks = mapping.n_banks
    return SweepStats(
        iterations=iterations,
        total_cycles=total,
        worst_cycles=worst,
        cycle_histogram={
            int(c): int(hist_acc[c]) for c in np.nonzero(hist_acc)[0]
        },
        bank_utilization={
            b: (int(occupancy[b]) / int(sizes[b]) if int(sizes[b]) else 0.0)
            for b in range(n_banks)
        },
        ports_per_bank=ports,
        bank_conflicts={b: int(conflict_totals[b]) for b in range(n_banks)},
        bank_accesses={b: int(access_totals[b]) for b in range(n_banks)},
    )


def simulate_sweep_native(
    mapping: BankMapping,
    array: "np.ndarray" | None = None,
    step: int = 1,
    limit: int | None = None,
    ports_per_bank: int = 1,
    verify: bool = True,
    attribution: Optional[ConflictTable] = None,
) -> SweepStats:
    """Run the full sweep measurement through the compiled kernels.

    The caller (``simulate_sweep``) owns engine resolution — including the
    :class:`~repro.errors.NativeUnavailableError` raised when the extension
    is absent and the :class:`SimulationError` for a mapping without a
    native spec — and shared parameter validation, exactly as for the
    scalar engine.
    """
    compiled = require()
    spec = native_spec_for(mapping)
    if spec is None:
        raise SimulationError(
            f"{type(mapping).__name__} has no registered native spec"
        )
    solution = mapping.solution
    pattern = solution.pattern
    ports = max(ports_per_bank, solution.bank_ports)
    n_banks = mapping.n_banks
    m = pattern.size
    shape = mapping.shape
    layout = _kernel_layout(spec, shape)
    sizes, bases = _bank_layout(mapping)

    with span("sim.load_array"):
        if array is None:
            flat = np.arange(vectorized.grid_size(shape), dtype=np.int64)
        else:
            data = np.asarray(array)
            _check_array_shape(mapping, data)
            flat = np.ascontiguousarray(data, dtype=np.int64).reshape(-1)
        slots = int(sizes.sum())
        storage = np.zeros(slots, dtype=np.int64)
        written = np.zeros(slots, dtype=np.uint8)
        occupancy = np.zeros(n_banks, dtype=np.int64)
        status, index, bank, offset = compiled.load_banks(
            *layout, flat, bases, sizes, storage, written, occupancy
        )
        if status == _STATUS_OUT_OF_RANGE:
            raise SimulationError(
                f"offset {offset} out of range for bank {bank} of size "
                f"{int(sizes[bank])}"
            )
        if status != _STATUS_OK:
            _raise_bad_address("load", np.unravel_index(index, shape))

    with span("sim.trace_build"):
        ranges, lens, total_iterations = _sweep_domain(mapping, step, limit)
        deltas = _origin_deltas(pattern)
        steps = np.array([r.step for r in ranges], dtype=np.int64)
        lens_arr = np.array(lens, dtype=np.int64)

    # Chunks bound the attribution buffers and set error precedence.
    iter_chunk = max(1, vectorized.DEFAULT_CHUNK_ELEMENTS // max(m, n_banks))
    # Ports beyond m change no cycle count; clamping keeps them in int64.
    arith_ports = min(ports, m)
    hist_acc = np.zeros(-(-m // arith_ports) + 1, dtype=np.int64)
    conflict_totals = np.zeros(n_banks, dtype=np.int64)
    access_totals = np.zeros(n_banks, dtype=np.int64)
    got = np.empty(m, dtype=np.int64)
    per_call = iter_chunk if attribution is not None else total_iterations
    total = 0
    worst = 0

    with span("sim.sweep_loop", iterations=total_iterations, verify=verify):
        for lo in range(0, total_iterations, per_call):
            hi = min(lo + per_call, total_iterations)
            count = hi - lo
            cycles_out = banks_out = None
            if attribution is not None:
                cycles_out = np.empty(count, dtype=np.int64)
                banks_out = np.empty(count * m, dtype=np.int64)
            status, err_iter, err_read, call_total, call_worst = compiled.sweep(
                *layout, deltas, m, steps, lens_arr, lo, hi, iter_chunk, bases,
                storage, written, flat, arith_ports, 1 if verify else 0,
                hist_acc, conflict_totals, access_totals, cycles_out,
                banks_out, got,
            )
            if status != _STATUS_OK:
                relative = np.array(np.unravel_index(err_iter, lens)) * steps
                elements = relative + deltas
                if status == _STATUS_CORRUPT:
                    expected = flat[np.ravel_multi_index(tuple(elements.T), shape)]
                    _raise_corruption(ranges, relative, got, expected)
                if status == _STATUS_MISSING:
                    _raise_missing(elements[err_read])
                _raise_bad_address("sweep", elements[err_read])
            total += call_total
            worst = max(worst, call_worst)
            if attribution is not None:
                for banks, cycles in zip(
                    banks_out.reshape(count, m).tolist(), cycles_out.tolist()
                ):
                    attribution.record_iteration(pattern.offsets, banks, cycles)

    return _sweep_stats(
        mapping, total_iterations, total, worst, hist_acc, occupancy, sizes,
        ports, conflict_totals, access_totals,
    )
