"""LTB baseline: linear-transformation-based partitioning (Wang et al., DAC 2013).

The state-of-the-art the paper compares against.  For each candidate bank
count ``N = m, m+1, …`` it **exhaustively enumerates** all ``N^n`` transform
vectors ``α ∈ [0, N)^n`` and accepts the first vector under which all
pattern elements take distinct bank indices ``(α·Δ) % N``.  Because the
whole vector space is searched, LTB finds the *minimum* bank count
achievable by any linear transform — our algorithm's ``N_f`` can only match
or exceed it (it matches on all five Fig. 3 patterns; it exceeds it on the
Median and Gaussian patterns, by 1 and 3 banks respectively).

The price is the search itself — ``O(C · N^n · m²)`` arithmetic operations
versus our constant-time construction — and the storage model: LTB's
intra-bank mapping pads **every** dimension of the array to a multiple of
``N``, giving overhead

.. math::

    ΔW_{LTB} = \\prod_i ⌈w_i/N⌉·N − \\prod_i w_i

(640×480, N=13: ``650·481 − 640·480 = 5450`` elements, the paper's
Section 2 figure), versus our last-dimension-only padding (640 elements).

Two search engines share the loop over bank counts:

* ``"scalar"`` — the reference below, a line-by-line transcription of the
  published enumeration (`itertools.product` + per-vector residue scan);
* ``"vectorized"`` — a chunked NumPy engine that decodes candidate indices
  mixed-radix into ``(C, n)`` blocks, computes the ``(C, m)`` residue
  matrix with one matmul + mod, and tests row-wise injectivity via a
  per-row stable sort.  It returns the *same lexicographic first hit*,
  the same ``vectors_tried``/``candidates_tried``, and charges the same
  :class:`~repro.core.opcount.OpCounter` operations — the op model counts
  the mathematical work, not the execution strategy (the
  ``same_size_sweep`` precedent).  Block size is bounded by a residue-cell
  budget (the bulk default unless ``chunk=`` overrides it), so peak memory
  stays ~``chunk × 8`` bytes however large ``N^n`` grows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import numpy as np

from ..core.opcount import OpCounter, resolve
from ..core.partition import PartitionSolution
from ..core.pattern import Pattern
from ..core.transform import LinearTransform
from ..core.vectorized import chunk_budget
from ..errors import PartitioningError

#: Engine names accepted by :func:`ltb_partition`.  ``"native"`` is the
#: compiled tier (:mod:`repro.native`): the whole per-``N`` scan —
#: odometer enumeration, residue check, first-duplicate detection — runs in
#: C, with charges identical to both Python engines.
LTB_ENGINES = ("auto", "scalar", "vectorized", "native")

#: Candidate spaces beyond int64 cannot be block-decoded (and could not be
#: enumerated by the scalar loop within a lifetime either).
_INT64_LIMIT = np.iinfo(np.int64).max


@dataclass(frozen=True)
class LTBResult:
    """Outcome of the LTB exhaustive search.

    Attributes
    ----------
    solution:
        The winning ``(N, α)`` wrapped as a standard solution record.
    vectors_tried:
        Total candidate transform vectors evaluated before success.
    candidates_tried:
        Bank counts attempted (``C + 1`` in the paper's complexity model).
    """

    solution: PartitionSolution
    vectors_tried: int
    candidates_tried: int


def ltb_chunk_budget(chunk: int | None = None) -> int:
    """Resolve the residue-matrix cell budget per vectorized block.

    Explicit argument > the bulk default
    (:func:`repro.core.vectorized.chunk_budget`).  The budget counts residue
    cells, so a block holds ``max(1, budget // m)`` candidate vectors.
    """
    if chunk is not None:
        if chunk < 1:
            raise ValueError(f"chunk budget must be positive, got {chunk}")
        return chunk
    return chunk_budget()


def _candidate_vectors(n_banks: int, ndim: int) -> Iterator[Tuple[int, ...]]:
    """Lexicographic enumeration of all ``N^n`` transform vectors."""
    return itertools.product(range(n_banks), repeat=ndim)


def _vector_is_valid(
    vector: Sequence[int],
    pattern: Pattern,
    n_banks: int,
    ops: OpCounter,
) -> bool:
    """Check that ``(vector · Δ) % N`` is injective over the pattern.

    Mirrors the published algorithm: compute the transformed residue of
    **all** ``m`` elements first (the linear transform is applied wholesale
    before justification), then check distinctness — the paper's
    ``O(m²)``-per-vector justification step.  Arithmetic is charged for
    every residue; the distinctness scan charges comparisons only.
    """
    ndim = pattern.ndim
    residues = []
    for delta in pattern.offsets:
        ops.mul(ndim)
        if ndim > 1:
            ops.add(ndim - 1)
        ops.mod()
        residues.append(sum(a * d for a, d in zip(vector, delta)) % n_banks)
    seen = set()
    for residue in residues:
        ops.compare(len(seen) if seen else 1)
        if residue in seen:
            return False
        seen.add(residue)
    return True


def _search_scalar(
    pattern: Pattern, n_banks: int, counter: OpCounter
) -> Tuple[Tuple[int, ...] | None, int]:
    """Reference per-``N`` search: first valid vector (or None) and vectors tried."""
    tried = 0
    for vector in _candidate_vectors(n_banks, pattern.ndim):
        tried += 1
        if _vector_is_valid(vector, pattern, n_banks, counter):
            return tuple(vector), tried
    return None, tried


def resolve_ltb_engine(engine: str = "auto") -> str:
    """Concrete engine :func:`ltb_partition` will run.

    ``"auto"`` prefers ``native`` when the compiled extension loads (it is
    built on first use, :mod:`repro.native`) and falls back to
    ``vectorized`` silently otherwise; forcing ``engine="native"`` without
    it raises :class:`~repro.errors.NativeUnavailableError`.
    """
    if engine not in LTB_ENGINES:
        raise ValueError(
            f"unknown LTB engine {engine!r}; choose one of {LTB_ENGINES}"
        )
    from .. import native

    if engine == "auto":
        return "native" if native.available() else "vectorized"
    if engine == "native":
        native.require()  # NativeUnavailableError when it cannot load
    return engine


def _guard_candidate_space(n_banks: int, ndim: int) -> int:
    """Total candidates ``N^n``, or the shared too-large error."""
    total = n_banks**ndim
    if total > _INT64_LIMIT:
        raise PartitioningError(
            f"LTB candidate space {n_banks}^{ndim} exceeds the int64 index "
            "range; no engine can enumerate it"
        )
    return total


def _search_native(
    pattern: Pattern, n_banks: int, counter: OpCounter
) -> Tuple[Tuple[int, ...] | None, int]:
    """Compiled per-``N`` search, charge-identical to :func:`_search_scalar`.

    The C kernel (:mod:`repro.native._native`) enumerates candidates with a
    rightmost-fastest odometer (``itertools.product`` order), recomputes the
    ``m`` residues per candidate with Python modulo semantics, and detects
    the first duplicate with an epoch-stamped seen table — returning the
    lexicographic first hit, the exact vectors-tried count, and the
    comparison total ``Σ (1 + t(t+1)/2)`` the scalar scan would have
    charged.  Arithmetic charges follow the same wholesale-per-vector model
    as both Python engines.
    """
    from ..native import require

    compiled = require()
    m, ndim = pattern.size, pattern.ndim
    _guard_candidate_space(n_banks, ndim)
    deltas = np.ascontiguousarray(
        np.asarray(pattern.offsets, dtype=np.int64).reshape(m, ndim)
    )
    alpha_out = np.zeros(ndim, dtype=np.int64)
    found, tried, compares = compiled.ltb_scan(
        deltas, m, ndim, n_banks, alpha_out
    )
    counter.mul(tried * m * ndim)
    if ndim > 1:
        counter.add(tried * m * (ndim - 1))
    counter.mod(tried * m)
    counter.compare(compares)
    if found:
        return tuple(int(a) for a in alpha_out), tried
    return None, tried


def _decode_block(
    lo: int, hi: int, n_banks: int, ndim: int, dtype: type
) -> "np.ndarray":
    """Candidate vectors for lexicographic indices ``lo … hi - 1``.

    ``itertools.product(range(N), repeat=n)`` enumerates big-endian
    mixed-radix numbers (rightmost digit fastest), so digit ``j`` of index
    ``i`` is ``(i // N^(n-1-j)) % N`` — extracted right to left with one
    divmod per dimension.
    """
    linear = np.arange(lo, hi, dtype=dtype)
    block = np.empty((hi - lo, ndim), dtype=dtype)
    for dim in range(ndim - 1, -1, -1):
        linear, block[:, dim] = np.divmod(linear, n_banks)
    return block


def _search_vectorized(
    pattern: Pattern, n_banks: int, counter: OpCounter, chunk: int | None
) -> Tuple[Tuple[int, ...] | None, int]:
    """Chunked NumPy per-``N`` search, charge-identical to :func:`_search_scalar`.

    Each block computes the full ``(C, m)`` residue matrix in one matmul +
    mod, then finds every row's *first duplicate position* with one per-row
    sort of packed ``residue·m + column`` keys: equal residues become
    adjacent keys whose ties order by original column, so the minimum
    ``key % m`` over the latter element of each equal adjacent pair is
    exactly where the scalar scan would have stopped — which is what makes
    the comparison charges reproducible, not just the verdict.
    """
    m, ndim = pattern.size, pattern.ndim
    total = _guard_candidate_space(n_banks, ndim)
    deltas = np.asarray(pattern.offsets, dtype=np.int64).reshape(m, ndim).T
    # Narrow dtypes when every intermediate (candidate index, dot product,
    # packed key) provably fits — int32 sorts are ~2x faster and dominate
    # large blocks.
    magnitude = int(np.abs(deltas).sum(axis=0).max())
    fits32 = max(total, (n_banks - 1) * magnitude, n_banks * m + m) < 2**31
    dtype = np.int32 if fits32 else np.int64
    deltas = deltas.astype(dtype)
    columns = np.arange(m, dtype=dtype)
    block_vectors = max(1, ltb_chunk_budget(chunk) // m)
    for lo in range(0, total, block_vectors):
        hi = min(lo + block_vectors, total)
        vectors = _decode_block(lo, hi, n_banks, ndim, dtype)
        residues = (vectors @ deltas) % n_banks
        if m > 1:
            # Pack (residue, column) into one key and sort rows in place:
            # ties order by column, so equal residues are adjacent with
            # ascending original indices.
            np.multiply(residues, m, out=residues)
            np.add(residues, columns, out=residues)
            residues.sort(axis=1)
            index = residues % m
            base = residues - index
            dup_at = np.where(base[:, 1:] == base[:, :-1], index[:, 1:], m)
            first_dup = dup_at.min(axis=1)
        else:
            first_dup = np.full(hi - lo, m, dtype=np.int64)
        valid_rows = np.flatnonzero(first_dup == m)
        hit = int(valid_rows[0]) if valid_rows.size else None
        count = (hi - lo) if hit is None else hit + 1

        # Charge exactly what the scalar reference charges for these rows:
        # wholesale residue arithmetic for every tried vector, then a
        # distinctness scan of 1 + t(t+1)/2 comparisons where t is the
        # first-duplicate index (t = m-1 for valid vectors).
        counter.mul(count * m * ndim)
        if ndim > 1:
            counter.add(count * m * (ndim - 1))
        counter.mod(count * m)
        scan = np.minimum(first_dup[:count], m - 1)
        counter.compare(count + int((scan * (scan + 1) // 2).sum()))

        if hit is not None:
            return tuple(int(c) for c in vectors[hit]), lo + count
    return None, total


def ltb_partition(
    pattern: Pattern,
    n_max: int | None = None,
    ops: OpCounter | None = None,
    start_n: int | None = None,
    engine: str = "auto",
    chunk: int | None = None,
) -> LTBResult:
    """Run the LTB exhaustive search for ``pattern``.

    Parameters
    ----------
    pattern:
        The access pattern ``P`` (``m`` elements, ``n`` dimensions).
    n_max:
        Optional bank ceiling; the search stops (and raises) past it.
    ops:
        Optional instrumentation counter shared with our algorithm's runs.
    start_n:
        First bank count to try; defaults to ``m`` (no fewer banks can
        serve ``m`` parallel accesses at full bandwidth).
    engine:
        ``"scalar"`` runs the published enumeration verbatim;
        ``"vectorized"`` runs the chunked NumPy search; ``"native"`` runs
        the compiled scan when the optional extension is built
        (:class:`~repro.errors.NativeUnavailableError` otherwise).
        ``"auto"`` resolves to ``native`` when available, else
        ``vectorized``.  Results, counters, and op charges are identical
        across all engines — property-tested in
        ``tests/test_ltb_vectorized.py``.
    chunk:
        Optional residue-cell budget per vectorized block (overrides the
        bulk default); ignored by the scalar and native engines
        (the native scan streams candidates without materializing blocks).

    Raises
    ------
    PartitioningError
        When ``n_max`` is exhausted without a valid vector.

    Examples
    --------
    >>> from repro.patterns import log_pattern
    >>> ltb_partition(log_pattern()).solution.n_banks
    13
    """
    engine = resolve_ltb_engine(engine)
    counter = resolve(ops)
    m = pattern.size
    first = start_n if start_n is not None else m
    if first < 1:
        raise ValueError(f"start_n must be positive, got {first}")

    vectors_tried = 0
    candidates_tried = 0
    n = first
    while n_max is None or n <= n_max:
        candidates_tried += 1
        if engine == "native":
            alpha, tried = _search_native(pattern, n, counter)
        elif engine == "vectorized":
            alpha, tried = _search_vectorized(pattern, n, counter, chunk)
        else:
            alpha, tried = _search_scalar(pattern, n, counter)
        vectors_tried += tried
        if alpha is not None:
            transform = LinearTransform(alpha=alpha)
            solution = PartitionSolution(
                pattern=pattern,
                transform=transform,
                n_banks=n,
                n_unconstrained=n,
                delta_ii=0,
                scheme="direct",
                algorithm="ltb",
            )
            return LTBResult(
                solution=solution,
                vectors_tried=vectors_tried,
                candidates_tried=candidates_tried,
            )
        counter.add()  # N := N + 1
        n += 1
    raise PartitioningError(
        f"LTB found no conflict-free linear transform with N <= {n_max} "
        f"for pattern of {m} elements"
    )


def ltb_min_banks(
    pattern: Pattern, n_limit: int | None = None, engine: str = "auto"
) -> int:
    """The minimum bank count LTB can achieve (convenience wrapper)."""
    return ltb_partition(pattern, n_max=n_limit, engine=engine).solution.n_banks


def ltb_overhead_elements(shape: Sequence[int], n_banks: int) -> int:
    """LTB storage overhead: pad *every* dimension to a multiple of ``N``.

    >>> ltb_overhead_elements((640, 480), 13)
    5450
    """
    if n_banks <= 0:
        raise ValueError(f"n_banks must be positive, got {n_banks}")
    if not shape or any(w <= 0 for w in shape):
        raise ValueError(f"shape must be positive, got {tuple(shape)}")
    padded = 1
    original = 1
    for w in shape:
        padded *= math.ceil(w / n_banks) * n_banks
        original *= w
    return padded - original


def ltb_bank_of(
    transform: LinearTransform, n_banks: int, element: Sequence[int]
) -> int:
    """LTB's bank hash — identical form to ours, different ``α`` provenance."""
    return transform.apply(element) % n_banks
