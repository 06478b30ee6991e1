"""Canonical solve cache: never re-solve a symmetric copy of a pattern.

Sweeps over resolutions, unroll factors, or bank budgets call the solver
over and over with patterns that differ only by translation — and Theorem
1's proof removes the common ``α·s`` term, so the *solution* (transform,
bank count, ``δP``, scheme) is identical for every translate.  This module
memoizes :func:`repro.core.solver.solve` and
:func:`repro.core.partition.partition` on the translation-normalized
pattern plus every argument that can change the answer:

* ``solve`` key — normalized offsets, the array's innermost extent (the
  only shape component the solution can depend on, via
  ``Objective.STORAGE``'s divisor set), ``n_max``, the objective, and
  ``delta_max``.
* ``partition`` key — normalized offsets, ``n_max``, ``same_size``.

Beyond translation, :func:`canonicalize` quotients the richer symmetry
group *translation × per-axis reflection × leading-axis permutation*: each
pattern maps to the lexicographically smallest member of its orbit, the
solver runs on that canonical representative, and the resulting solution
is carried back into the caller's frame through the recorded
:class:`SymmetryOp` (``α_caller[perm[k]] = ±α_canon[k]``).  Reflections
negate an ``α`` component, which only re-signs pairwise ``z`` differences;
permutations relabel axes wholesale — both leave every conflict count,
``N_f`` verdict, and ``δ`` exactly invariant.  Permutations are restricted
to those fixing the innermost axis (``perm[-1] == ndim - 1``): the §4.4
intra-bank layout ``F`` keeps only the *last* coordinate compressed and is
bijective precisely because ``|α[-1]| = 1``, so moving another axis
innermost would hand ``F`` an ``α`` tail > 1 and collide addresses.  (This
also keeps the ``w[-1]`` component of :func:`solve_key` consistent without
re-keying: ``canonical_key`` still carries ``shape[perm[-1]]``, which the
restriction pins to ``shape[-1]``.)

Only the :class:`~repro.core.partition.PartitionSolution` is stored; a hit
re-attaches the caller's own pattern (``dataclasses.replace``) and the
caller rebuilds any shape-specific mapping/overhead, which is cheap
arithmetic.  Calls carrying an :class:`~repro.core.opcount.OpCounter`
bypass the cache entirely — an op count answered from memory would falsify
the paper's hardware-cost comparison.

Hits and misses are mirrored into the :mod:`repro.obs` metrics registry as
``solve.cache.hits`` / ``solve.cache.misses``; LRU drops count into
``solve.cache.evictions`` (all visible via ``--emit-metrics``).  The one
knob is per call: ``solve(..., cache=False)`` forces a fresh solve.  The
process-wide cache holds :data:`DEFAULT_MAXSIZE` solutions.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional, Sequence, Tuple

import numpy as np

from ..obs.metrics import registry as obs_registry
from .partition import PartitionSolution
from .pattern import Pattern
from .transform import LinearTransform

#: Default number of cached solutions; old entries evict LRU-first.
DEFAULT_MAXSIZE = 1024

#: Symmetry canonicalization beyond this many dimensions would enumerate
#: ``(n-1)! · 2^n`` candidates per pattern; past 4-D the quotient falls
#: back to translation-only rather than pay a factorial blowup.
MAX_SYMMETRY_NDIM = 4


class SolveCache:
    """A small thread-safe LRU of canonical partitioning solutions."""

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, PartitionSolution]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, pattern: Pattern) -> Optional[PartitionSolution]:
        """Look up a solution and re-attach the caller's pattern on a hit."""
        with self._lock:
            solution = self._entries.get(key)
            if solution is None:
                self.misses += 1
                obs_registry().counter("solve.cache.misses").inc()
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            obs_registry().counter("solve.cache.hits").inc()
        if (
            solution.pattern.offsets == pattern.offsets
            and solution.pattern.name == pattern.name
        ):
            return solution
        # Re-attach the caller's own pattern (offsets AND name): a warm hit
        # must be indistinguishable from a cold solve of the caller's input.
        return dataclasses.replace(solution, pattern=pattern)

    def put(self, key: Hashable, solution: PartitionSolution) -> None:
        evicted = 0
        with self._lock:
            self._entries[key] = solution
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                evicted += 1
            self.evictions += evicted
        if evicted:
            obs_registry().counter("solve.cache.evictions").inc(evicted)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0


_cache = SolveCache()


def cache() -> SolveCache:
    """The process-wide cache instance."""
    return _cache


def clear() -> None:
    """Drop all cached solutions and reset the local hit/miss tallies."""
    _cache.clear()


def _normalized_offsets(pattern: Pattern) -> Tuple[Tuple[int, ...], ...]:
    return pattern.normalized().offsets


def solve_key(
    pattern: Pattern,
    shape: Optional[Tuple[int, ...]],
    n_max: Optional[int],
    objective_value: str,
    delta_max: int,
) -> Hashable:
    """Cache key for :func:`repro.core.solver.solve`.

    Only the innermost extent enters the key: it is the single shape
    component that can steer the solution (``Objective.STORAGE`` candidates
    are divisors of ``w[-1]``); everything else about the shape only
    affects the mapping, which is rebuilt per call.
    """
    tail = int(shape[-1]) if shape else None
    return (
        "solve",
        _normalized_offsets(pattern),
        tail,
        n_max,
        objective_value,
        delta_max,
    )


def partition_key(
    pattern: Pattern, n_max: Optional[int], same_size: bool
) -> Hashable:
    """Cache key for :func:`repro.core.partition.partition`."""
    return ("partition", _normalized_offsets(pattern), n_max, bool(same_size))


# -- symmetry quotient ------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SymmetryOp:
    """The symmetry relating a caller's pattern to its canonical form.

    Canonical coordinate ``k`` is built from caller coordinate ``perm[k]``,
    negated when ``flips[k]`` (translation is implicit: canonical patterns
    are origin-normalized).  The inverse direction — the one a cache hit
    needs — maps a canonical-frame solution into the caller's frame by
    re-signing and scattering ``α``: ``α_caller[perm[k]] = ε_k · α_canon[k]``
    with ``ε_k = -1`` when ``flips[k]``.  Then for every caller offset
    ``x``, ``α_caller · x = α_canon · y + const`` where ``y`` is the
    canonical image of ``x`` — so bank residues shift by a constant,
    conflict counts and ``δ`` are untouched, and ``|α_caller[-1]| = 1``
    stays true (permutations never move the innermost axis).
    """

    perm: Tuple[int, ...]
    flips: Tuple[bool, ...]

    @property
    def is_identity(self) -> bool:
        """True when the op is translation-only (no reflection/permutation)."""
        return self.perm == tuple(range(len(self.perm))) and not any(self.flips)

    def shape_to_canonical(
        self, shape: Optional[Tuple[int, ...]]
    ) -> Optional[Tuple[int, ...]]:
        """Permute an array shape into the canonical frame.

        Reflections don't change extents; only the axis order moves.  The
        innermost extent — the single component :func:`solve_key` depends
        on — is pinned in place by the ``perm[-1] == ndim - 1`` restriction.
        """
        if shape is None:
            return None
        if len(shape) != len(self.perm):
            return tuple(shape)
        return tuple(shape[axis] for axis in self.perm)

    def solution_to_caller(
        self, solution: PartitionSolution, pattern: Pattern
    ) -> PartitionSolution:
        """Express a canonical-frame solution in the caller's frame.

        ``pattern`` is the caller's own pattern; the transform's ``α`` (and
        extents) are scattered through ``perm`` and re-signed by ``flips``.
        Identity ops re-attach the pattern and keep the transform object —
        byte-identical to the translation-only cache's hit path.
        """
        if self.is_identity:
            if (
                solution.pattern.offsets == pattern.offsets
                and solution.pattern.name == pattern.name
            ):
                return solution
            return dataclasses.replace(solution, pattern=pattern)
        alpha_c = solution.transform.alpha
        extents_c = solution.transform.extents
        n = len(self.perm)
        alpha_p = [0] * n
        extents_p = [0] * n
        for k in range(n):
            sign = -1 if self.flips[k] else 1
            alpha_p[self.perm[k]] = sign * alpha_c[k]
            extents_p[self.perm[k]] = (
                extents_c[k] if len(extents_c) == n else 0
            )
        transform = LinearTransform(
            alpha=tuple(alpha_p),
            extents=tuple(extents_p) if len(extents_c) == n else extents_c,
        )
        return dataclasses.replace(solution, pattern=pattern, transform=transform)


def _identity_op(ndim: int) -> SymmetryOp:
    return SymmetryOp(perm=tuple(range(ndim)), flips=(False,) * ndim)


def _leading_axis_permutations(ndim: int) -> Tuple[Tuple[int, ...], ...]:
    """All axis orders keeping the innermost axis innermost."""
    return tuple(
        head + (ndim - 1,)
        for head in itertools.permutations(range(ndim - 1))
    )


def _normalize_raw(
    offsets: Sequence[Tuple[int, ...]]
) -> Tuple[Tuple[int, ...], ...]:
    ndim = len(offsets[0])
    lo = [min(v[j] for v in offsets) for j in range(ndim)]
    return tuple(
        sorted(tuple(c - lo[j] for j, c in enumerate(v)) for v in offsets)
    )


def _walk_orbit(
    offsets: Sequence[Tuple[int, ...]]
) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...], Tuple[bool, ...]]:
    """Reference canonicalization: normalize every orbit image in turn.

    Returns ``(representative, perm, flips)``.  Images are enumerated
    permutation-major, then by the flip bitmask (bit ``k`` flips position
    ``k``), and a later image replaces the best only when strictly smaller,
    so ties keep the first.  :func:`canonicalize` must agree with this walk
    on the representative *and* the op; the tests hold it to that.
    """
    ndim = len(offsets[0])
    best: Optional[Tuple[Tuple[int, ...], ...]] = None
    best_perm: Tuple[int, ...] = tuple(range(ndim))
    best_flips: Tuple[bool, ...] = (False,) * ndim
    for perm in _leading_axis_permutations(ndim):
        projected = [tuple(v[axis] for axis in perm) for v in offsets]
        for bits in range(1 << ndim):
            flips = tuple(bool(bits >> k & 1) for k in range(ndim))
            candidate = _normalize_raw(
                [
                    tuple(-c if flips[k] else c for k, c in enumerate(v))
                    for v in projected
                ]
            )
            if best is None or candidate < best:
                best, best_perm, best_flips = candidate, perm, flips
    assert best is not None
    return best, best_perm, best_flips


_INT64_MAX = (1 << 63) - 1


@functools.lru_cache(maxsize=MAX_SYMMETRY_NDIM)
def _orbit_table(ndim: int) -> Tuple[np.ndarray, np.ndarray, Tuple[SymmetryOp, ...]]:
    """The ``T = (n-1)!·2^n`` group elements for ``ndim`` axes, in walk order.

    Returns ``(sources, image_rows, ops)``.  ``sources[t, k]`` is the row
    of :func:`_orbit_minimum`'s coordinate table that image ``t`` reads at
    position ``k``: axis ``perm[k]``, or its reflection ``n + perm[k]``.
    ``image_rows`` is ``arange(T)`` as a column, for row-wise gathers, and
    ``ops[t]`` is image ``t``'s :class:`SymmetryOp`.  Built on first use
    per dimension count, never at import.
    """
    ops = tuple(
        SymmetryOp(perm=perm, flips=tuple(bool(bits >> k & 1) for k in range(ndim)))
        for perm in _leading_axis_permutations(ndim)
        for bits in range(1 << ndim)
    )
    sources = np.array(
        [[axis + ndim * flip for axis, flip in zip(op.perm, op.flips)] for op in ops],
        dtype=np.intp,
    )
    return sources, np.arange(len(ops))[:, None], ops


def _orbit_minimum(
    offsets: Sequence[Tuple[int, ...]], ndim: int
) -> Tuple[Tuple[Tuple[int, ...], ...], SymmetryOp]:
    """The orbit's smallest normalized image and the op producing it.

    All ``T`` images come out of one ``(T, n, m)`` array.  The offsets are
    origin-normalized in Python first, so a far-translated pattern reaches
    NumPy with coordinates below its extents; the reflection of a
    normalized axis is then ``extent − 1 − c``, normalized too.  Each
    image's points are sorted with ``np.lexsort``, and a second, stable
    lexsort over the flattened images puts the smallest first, ties in
    enumeration order: the representative and op :func:`_walk_orbit`
    returns.
    """
    sources, image_rows, ops = _orbit_table(ndim)
    columns = list(zip(*offsets))
    lows = [min(column) for column in columns]
    highs = [max(column) - low for column, low in zip(columns, lows)]
    # Extents past int64 still sort exactly, as Python ints.
    dtype = np.int64 if max(highs) <= _INT64_MAX else object
    axes = np.array(
        [[c - low for c in column] for column, low in zip(columns, lows)],
        dtype=dtype,
    )
    table = np.concatenate((axes, np.array(highs, dtype=dtype)[:, None] - axes))
    orbit = table[sources]  # (T, n, m)
    # Sort each image's points, first coordinate primary (lexsort's last key).
    order = np.lexsort(orbit.transpose(1, 0, 2)[::-1])
    points = orbit.transpose(0, 2, 1)[image_rows, order]  # (T, m, n), sorted
    best = int(np.lexsort(points.reshape(len(ops), -1).T[::-1])[0])
    return tuple(map(tuple, points[best].tolist())), ops[best]


#: Memo of ``offsets -> (canonical pattern, op)``, holding each
#: canonicalized pattern and its representative; bounded so pathological
#: traffic can't grow it without bound.
_CANON_MEMO_MAX = 4096
_canon_memo: "OrderedDict[Hashable, Tuple[Pattern, SymmetryOp]]" = OrderedDict()
_canon_lock = threading.Lock()


def canonicalize(pattern: Pattern) -> Tuple[Pattern, SymmetryOp]:
    """Map a pattern to its canonical orbit representative.

    Returns ``(canonical_pattern, op)`` where ``op`` reconstructs the
    caller's frame from the canonical one
    (:meth:`SymmetryOp.solution_to_caller`).  The representative is the
    lexicographically smallest normalized offset tuple over the group
    *translation × per-axis reflection × leading-axis permutation*; ties
    between group elements that produce the same representative (pattern
    self-symmetries) break deterministically on enumeration order, so every
    process picks the same op for the same pattern.  A new pattern builds
    its whole orbit in one pass (:func:`_orbit_minimum`); the pattern and
    its representative are then memoized, and a hit relabels the stored
    canonical pattern without re-validating it.

    Patterns beyond :data:`MAX_SYMMETRY_NDIM` dimensions use the
    translation-only quotient.
    """
    ndim = pattern.ndim
    if ndim > MAX_SYMMETRY_NDIM:
        return pattern.normalized(), _identity_op(ndim)

    offsets = pattern.offsets
    with _canon_lock:
        cached = _canon_memo.get(offsets)
        if cached is not None:
            _canon_memo.move_to_end(offsets)
    if cached is None:
        canon_offsets, op = _orbit_minimum(offsets, ndim)
        cached = (Pattern(canon_offsets), op)
        with _canon_lock:
            _canon_memo[offsets] = cached
            # The representative's own orbit minimum is itself under the
            # identity op, which comes first and wins every tie.  Memoized,
            # the solver's canonicalize of the server's canonical spec is a hit.
            _canon_memo[canon_offsets] = (cached[0], _identity_op(ndim))
            while len(_canon_memo) > _CANON_MEMO_MAX:
                _canon_memo.popitem(last=False)

    canon_pattern, op = cached
    if canon_pattern.name != pattern.name:
        canon_pattern = canon_pattern.with_name(pattern.name)
    return canon_pattern, op


def canonical_solve_key(
    canonical_offsets: Tuple[Tuple[int, ...], ...],
    tail: Optional[int],
    n_max: Optional[int],
    objective_value: str,
    delta_max: int,
) -> Hashable:
    """Assemble the symmetry-quotient solve key from precomputed parts."""
    return (
        "solve/canon",
        canonical_offsets,
        tail,
        n_max,
        objective_value,
        delta_max,
    )


def canonical_key(
    pattern: Pattern,
    shape: Optional[Tuple[int, ...]],
    n_max: Optional[int],
    objective_value: str,
    delta_max: int,
) -> Hashable:
    """Symmetry-quotient cache key: equal across a pattern's whole orbit.

    The structural twin of :func:`solve_key` with the pattern replaced by
    its canonical representative and the shape tail carried through the
    op's axis permutation (``shape[perm[-1]]`` — the permuted ``w[-1]``,
    which the leading-axis restriction keeps equal to ``shape[-1]``).
    :func:`solve_key` itself is untouched: its digests are pinned by the
    serve store's on-disk records and the golden-digest tests.
    """
    canon, op = canonicalize(pattern)
    tail = int(shape[op.perm[-1]]) if shape else None
    return canonical_solve_key(
        canon.offsets, tail, n_max, objective_value, delta_max
    )


def _canonical(value: Any) -> Any:
    """Reduce a cache key to JSON-expressible primitives, recursively.

    Tuples and lists collapse to lists (the distinction is an in-memory
    artifact, not part of the key's identity); dicts keep string keys and
    canonicalize their values (``sort_keys`` in the digest encoding makes
    insertion order irrelevant); everything else must already be a JSON
    scalar.  Rejecting unknown types loudly keeps the digest honest — a
    silent ``repr`` fallback would make unequal keys collide or equal keys
    diverge across processes.
    """
    if isinstance(value, (tuple, list)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        for name in value:
            if not isinstance(name, str):
                raise TypeError(
                    f"cache key dicts must use string keys, got {name!r}"
                )
        return {name: _canonical(item) for name, item in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cache keys may only contain JSON scalars, got {value!r}")


#: The canonical JSON encoding every digest hashes, built once: compact,
#: sorted keys, no NaN.  Its C encoder writes tuples as JSON arrays.
_KEY_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False
)


def _sha256_json(value: Any) -> str:
    return hashlib.sha256(_KEY_ENCODER.encode(value).encode("utf-8")).hexdigest()


def stable_digest(key: Hashable) -> str:
    """Content address of a cache key: a hex SHA-256, stable across processes.

    :func:`solve_key` / :func:`partition_key` tuples hash differently in
    every interpreter run (``PYTHONHASHSEED``), so anything that must agree
    on an identity *across* process borders — the on-disk
    :class:`~repro.serve.store.SolutionStore`, the server-side request
    coalescer, worker pools — goes through this canonical JSON encoding
    instead.  Equal keys always produce equal digests; translated copies of
    a pattern share a digest because the key already normalizes translation.
    """
    return _sha256_json(_canonical(key))


def canonical_solve_digest(key: Hashable) -> str:
    """:func:`stable_digest` of a :func:`canonical_solve_key` tuple, encoded directly.

    The key holds only a str, ints, ``None`` and tuples of int tuples, all of
    which the encoder writes exactly as :func:`_canonical` would reduce them,
    so the bytes (and the digest) equal ``stable_digest(key)`` without the
    recursive Python walk.  Only for keys built by :func:`canonical_solve_key`;
    anything else goes through :func:`stable_digest`, whose walk rejects
    what JSON cannot express faithfully.
    """
    return _sha256_json(key)
