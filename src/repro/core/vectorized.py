"""Vectorized (NumPy) bulk address translation.

The scalar :class:`~repro.core.mapping.BankMapping` methods are the
reference implementation — direct transcriptions of the paper's formulas,
exercised by the property tests.  For whole-array work (loading a frame
into banks, checking bijectivity on megapixel images, tracing long sweeps)
translating one element at a time is orders of magnitude too slow in
Python, so this module provides batch equivalents that compute ``B(x)``
and ``F(x)`` for every element of an array in a handful of NumPy kernels.

Equivalence with the scalar path is asserted by tests (and cheaply
checkable at runtime via :func:`verify_bulk_matches_scalar`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Tuple

import numpy as np

from ..errors import MappingError
from .mapping import BankMapping

#: A bulk address kernel: ``(mapping, (k, n) elements) -> (banks, offsets)``.
BulkKernel = Callable[
    [BankMapping, "np.ndarray"], Tuple["np.ndarray", "np.ndarray"]
]

#: Registered bulk kernels for mapping types whose address math is *not*
#: the stock closed forms (e.g. the baseline cyclic/block mappings).  Keyed
#: by exact type — a subclass of a registered type does NOT inherit the
#: kernel, mirroring the simulator's conservative dispatch: overriding a
#: scalar address method silently invalidates the batch math.
_BULK_KERNELS: Dict[type, BulkKernel] = {}


def register_bulk_kernel(mapping_type: type, kernel: BulkKernel) -> None:
    """Register a vectorized ``(B(x), F(x))`` kernel for a mapping type.

    Registration makes the type eligible for every bulk consumer at once:
    :func:`bulk_addresses` (hence the vectorized simulator's ``auto``
    dispatch), :func:`scatter_to_banks`, and both bulk verifiers.  The
    kernel must agree with the type's scalar ``address_of`` for all
    in-range elements — :func:`verify_bulk_matches_scalar` spot-checks
    exactly that.
    """
    if not (isinstance(mapping_type, type) and issubclass(mapping_type, BankMapping)):
        raise MappingError(
            f"bulk kernels require a BankMapping subclass, got {mapping_type!r}"
        )
    if not callable(kernel):
        raise MappingError(f"bulk kernel for {mapping_type.__name__} is not callable")
    _BULK_KERNELS[mapping_type] = kernel


def has_bulk_kernel(mapping_type: type) -> bool:
    """Whether ``mapping_type`` (exactly, not via inheritance) has a kernel."""
    return mapping_type in _BULK_KERNELS

#: Default number of coordinate rows materialized per bulk chunk.  A chunk
#: is a ``(chunk, n)`` int64 block, so the default caps transient memory at
#: a few megabytes regardless of the array size.  Override per call.
DEFAULT_CHUNK_ELEMENTS = 1 << 18

#: Hard ceiling on a *fully materialized* element grid.  Above this,
#: :func:`element_grid` refuses and callers must stream chunks via
#: :func:`iter_element_chunks`.
DEFAULT_MAX_GRID_ELEMENTS = 1 << 26


def chunk_budget(chunk: int | None = None) -> int:
    """Resolve the bulk chunk size: explicit arg > default."""
    if chunk is not None:
        if chunk < 1:
            raise MappingError(f"chunk size must be positive, got {chunk}")
        return chunk
    return DEFAULT_CHUNK_ELEMENTS


def grid_size(shape: Tuple[int, ...]) -> int:
    """Number of elements in an array of ``shape``."""
    total = 1
    for w in shape:
        total *= int(w)
    return total


def element_grid(shape: Tuple[int, ...]) -> "np.ndarray":
    """All element coordinates of an array, shape ``(W, n)`` row-major.

    Assembled chunk-wise into one preallocated output so the transient
    footprint stays bounded, and guarded against shapes whose full grid
    would not fit in memory at all — stream those with
    :func:`iter_element_chunks` instead.
    """
    total = grid_size(shape)
    if total > DEFAULT_MAX_GRID_ELEMENTS:
        raise MappingError(
            f"element grid of shape {tuple(shape)} has {total} elements, above "
            f"the materialization cap of {DEFAULT_MAX_GRID_ELEMENTS}; process "
            "it in bounded chunks with iter_element_chunks()"
        )
    out = np.empty((total, len(shape)), dtype=np.int64)
    for start, block in iter_element_chunks(shape):
        out[start : start + len(block)] = block
    return out


def iter_element_chunks(
    shape: Tuple[int, ...], chunk: int | None = None
) -> Iterator[Tuple[int, "np.ndarray"]]:
    """Stream the element grid in row-major order, bounded chunks at a time.

    Yields ``(start, block)`` pairs where ``block`` is a ``(k, n)`` int64
    coordinate array covering linear (row-major) indices
    ``start … start + k - 1``.  Peak memory is ``O(chunk · n)`` regardless
    of the array size, which is what makes whole-frame bulk operations safe
    on shapes whose full grid would exceed memory.
    """
    total = grid_size(shape)
    size = chunk_budget(chunk)
    dims = tuple(int(w) for w in shape)
    for start in range(0, total, size):
        stop = min(start + size, total)
        linear = np.arange(start, stop, dtype=np.int64)
        yield start, np.stack(np.unravel_index(linear, dims), axis=1)


def bulk_transform(mapping: BankMapping, elements: "np.ndarray") -> "np.ndarray":
    """``α · x`` for a batch of elements, shape ``(k, n)`` → ``(k,)``."""
    alpha = np.asarray(mapping.solution.transform.alpha, dtype=np.int64)
    elements = np.asarray(elements, dtype=np.int64)
    if elements.ndim != 2 or elements.shape[1] != mapping.ndim:
        raise MappingError(
            f"expected elements of shape (k, {mapping.ndim}), got {elements.shape}"
        )
    return elements @ alpha


def bulk_bank_of(mapping: BankMapping, elements: "np.ndarray") -> "np.ndarray":
    """Vectorized ``B(x)`` for a batch of elements."""
    value = bulk_transform(mapping, elements)
    solution = mapping.solution
    if solution.scheme == "two-level":
        return (value % solution.n_unconstrained) % solution.n_banks
    if solution.scheme == "wide":
        return (value % solution.n_unconstrained) // solution.bank_ports
    return value % solution.n_banks


def bulk_offset_of(mapping: BankMapping, elements: "np.ndarray") -> "np.ndarray":
    """Vectorized ``F(x)`` (linear in-bank offsets) for a batch of elements."""
    from .packed import PackedBankMapping

    elements = np.asarray(elements, dtype=np.int64)
    if isinstance(mapping, PackedBankMapping):
        return _bulk_offset_packed(mapping, elements)
    value = bulk_transform(mapping, elements)
    inner = mapping._inner_banks
    window = mapping.rows_per_bank * inner
    x_new = (value % window) // inner

    # Row-major ravel over the bank shape (w_0, ..., w_{n-2}, K).
    bank_shape = mapping.bank_shape
    offset = np.zeros(len(elements), dtype=np.int64)
    for dim, width in enumerate(bank_shape[:-1]):
        offset = offset * width + elements[:, dim]
    offset = offset * bank_shape[-1] + x_new

    solution = mapping.solution
    if solution.scheme in ("two-level", "wide"):
        inner_index = value % solution.n_unconstrained
        if solution.scheme == "two-level":
            sub = inner_index // solution.n_banks
        else:
            sub = inner_index % solution.bank_ports
        offset = offset + sub * mapping.inner_bank_size
    return offset


def _bulk_offset_packed(mapping, elements: "np.ndarray") -> "np.ndarray":
    """Packed-tail variant of :func:`bulk_offset_of`.

    The prefix uses the closed form with ``K = ⌊w/N⌋``; tail elements fall
    back to the mapping's precomputed rank table (inherently a lookup —
    that irregularity is the scheme's documented trade-off).
    """
    value = bulk_transform(mapping, elements)
    n = mapping.n_banks
    k = mapping.prefix_rows
    tail_start = k * n

    offsets = np.zeros(len(elements), dtype=np.int64)
    last = elements[:, -1]
    prefix = last < tail_start

    if prefix.any() and k > 0:
        window = k * n
        x_new = (value[prefix] % window) // n
        bank_shape = mapping.shape[:-1] + (k,)
        linear = np.zeros(int(prefix.sum()), dtype=np.int64)
        head = elements[prefix]
        for dim, width in enumerate(bank_shape[:-1]):
            linear = linear * width + head[:, dim]
        offsets[prefix] = linear * bank_shape[-1] + x_new

    tail = ~prefix
    if tail.any():
        base = mapping.prefix_bank_size
        ranks = np.array(
            [
                mapping._tail_ranks[tuple(int(c) for c in row)]
                for row in elements[tail]
            ],
            dtype=np.int64,
        )
        offsets[tail] = base + ranks
    return offsets


def bulk_addresses(
    mapping: BankMapping, elements: "np.ndarray"
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Vectorized ``(B(x), F(x))`` pair for a batch of elements.

    Dispatches to a registered bulk kernel when the mapping's exact type
    has one (see :func:`register_bulk_kernel`); otherwise uses the stock
    closed forms.
    """
    kernel = _BULK_KERNELS.get(type(mapping))
    if kernel is not None:
        banks, offsets = kernel(mapping, np.asarray(elements, dtype=np.int64))
        return (
            np.asarray(banks, dtype=np.int64),
            np.asarray(offsets, dtype=np.int64),
        )
    return bulk_bank_of(mapping, elements), bulk_offset_of(mapping, elements)


def scatter_to_banks(mapping: BankMapping, array: "np.ndarray") -> list:
    """Distribute a whole array into per-bank value vectors in one pass.

    Returns a list of 1-D arrays, one per physical bank, sized to the bank
    and filled with the array's values at their mapped offsets (padding
    slots hold 0 and are flagged in the companion mask).  This is the bulk
    equivalent of :meth:`repro.hw.BankedMemory.load_array`.
    """
    data = np.asarray(array)
    if data.shape != mapping.shape:
        raise MappingError(
            f"array shape {data.shape} does not match mapping shape {mapping.shape}"
        )
    values = data.reshape(-1)
    result = [
        np.zeros(mapping.bank_size(bank), dtype=values.dtype)
        for bank in range(mapping.n_banks)
    ]
    for start, elements in iter_element_chunks(mapping.shape):
        banks, offsets = bulk_addresses(mapping, elements)
        chunk_values = values[start : start + len(elements)]
        for bank in range(mapping.n_banks):
            mask = banks == bank
            if mask.any():
                result[bank][offsets[mask]] = chunk_values[mask]
    return result


def verify_bijective_bulk(mapping: BankMapping) -> bool:
    """Whole-array bijectivity check in vectorized form.

    Computes the global address ``bank · max_size + offset`` for every
    element and asserts all are distinct.  Practical for multi-megapixel
    frames where the scalar check would take minutes.

    Raises
    ------
    MappingError
        If any two elements collide (reported as a count).
    """
    sizes = np.array([mapping.bank_size(b) for b in range(mapping.n_banks)])
    stride = int(sizes.max())
    pieces = []
    for _, elements in iter_element_chunks(mapping.shape):
        banks, offsets = bulk_addresses(mapping, elements)
        if (offsets < 0).any() or (offsets >= sizes[banks]).any():
            raise MappingError("offset outside its bank's allocation")
        pieces.append(banks.astype(np.int64) * stride + offsets)
    global_address = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
    unique = np.unique(global_address)
    if len(unique) != len(global_address):
        raise MappingError(
            f"{len(global_address) - len(unique)} address collisions detected"
        )
    return True


def verify_bulk_matches_scalar(mapping: BankMapping, sample: int = 256) -> bool:
    """Spot-check that the vectorized path agrees with the scalar one.

    Deliberately sampling-based: it never materializes the full grid, so it
    stays cheap (and safe) even on shapes far beyond the chunk budget.
    """
    total = grid_size(mapping.shape)
    stride = max(1, total // sample) if total > sample else 1
    linear = np.arange(0, total, stride, dtype=np.int64)
    elements = np.stack(np.unravel_index(linear, mapping.shape), axis=1)
    banks, offsets = bulk_addresses(mapping, elements)
    for row, bank, offset in zip(elements, banks, offsets):
        expected = mapping.address_of(tuple(int(c) for c in row))
        if expected != (int(bank), int(offset)):
            raise MappingError(
                f"bulk/scalar disagreement at {tuple(row)}: "
                f"bulk=({bank}, {offset}), scalar={expected}"
            )
    return True
