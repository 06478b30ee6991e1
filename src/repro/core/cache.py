"""Canonical solve cache: never re-solve a translated copy of a pattern.

Sweeps over resolutions, unroll factors, or bank budgets call the solver
over and over with patterns that differ only by translation — and Theorem
1's proof removes the common ``α·s`` term, so the *solution* (transform,
bank count, ``δP``, scheme) is identical for every translate.  This module
memoizes :func:`repro.core.solver.solve` and
:func:`repro.core.partition.partition` on the translation-normalized
pattern plus every argument that can change the answer:

* ``solve`` key (:func:`canonical_key`) — normalized offsets, the array's
  innermost extent (the only shape component the solution can depend on,
  via ``Objective.STORAGE``'s divisor set), ``n_max``, the objective, and
  ``delta_max``.
* ``partition`` key — normalized offsets, ``n_max``, ``same_size``.

Translation is the only symmetry quotiented.  A mirrored or axis-permuted
copy of a stencil is a different pattern with its own key: Algorithm 1
derives ``α`` from the caller's own offsets, and a mirror can need a
different bank count than the original (the corner ``{(0,0),(0,1),(1,0)}``
takes 3 banks, its mirror ``{(0,0),(0,1),(−1,0)}`` takes 4), so solving
any other orbit member would change the answer.

Only the :class:`~repro.core.partition.PartitionSolution` is stored; a hit
re-attaches the caller's own pattern (:func:`reattach`) and the caller
rebuilds any shape-specific mapping/overhead, which is cheap arithmetic.
Calls carrying an :class:`~repro.core.opcount.OpCounter` bypass the cache
entirely — an op count answered from memory would falsify the paper's
hardware-cost comparison.

Hits and misses are mirrored into the :mod:`repro.obs` metrics registry as
``solve.cache.hits`` / ``solve.cache.misses``; LRU drops count into
``solve.cache.evictions`` (all visible via ``--emit-metrics``).  The one
knob is per call: ``solve(..., cache=False)`` forces a fresh solve.  The
process-wide cache holds :data:`DEFAULT_MAXSIZE` solutions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional, Tuple

from ..obs.metrics import registry as obs_registry
from .partition import PartitionSolution
from .pattern import Pattern

#: Default number of cached solutions; old entries evict LRU-first.
DEFAULT_MAXSIZE = 1024


def reattach(solution: PartitionSolution, pattern: Pattern) -> PartitionSolution:
    """``solution`` answering for ``pattern``, a translate of its own pattern.

    Offsets and name both come from the caller: an answer from memory, the
    store or a coalesced solve must be indistinguishable from a cold solve
    of the caller's own input.
    """
    if (
        solution.pattern.offsets == pattern.offsets
        and solution.pattern.name == pattern.name
    ):
        return solution
    return dataclasses.replace(solution, pattern=pattern)


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
        return reattach(solution, pattern)

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


def partition_key(
    pattern: Pattern, n_max: Optional[int], same_size: bool
) -> Hashable:
    """Cache key for :func:`repro.core.partition.partition`."""
    return ("partition", pattern.normalized().offsets, n_max, bool(same_size))


#: Memo of ``offsets -> normalized pattern``, holding each canonicalized
#: pattern and its representative; bounded so pathological traffic can't
#: grow it without bound.
_CANON_MEMO_MAX = 4096
_canon_memo: "OrderedDict[Hashable, Pattern]" = OrderedDict()
_canon_lock = threading.Lock()


def canonicalize(pattern: Pattern) -> Pattern:
    """The pattern's translation-class representative, under its own name.

    That is the origin-normalized pattern (:meth:`Pattern.normalized`): the
    minimum corner moves to the origin, so every translate of a pattern
    maps to the same offsets.  A new pattern and its representative are
    memoized; a hit relabels the stored pattern without re-validating it,
    and the representative maps to itself, so the solver's
    ``canonicalize`` of the server's canonical spec is a hit too.
    """
    offsets = pattern.offsets
    with _canon_lock:
        canon = _canon_memo.get(offsets)
        if canon is not None:
            _canon_memo.move_to_end(offsets)
    if canon is None:
        canon = pattern.normalized()
        with _canon_lock:
            _canon_memo[offsets] = canon
            _canon_memo[canon.offsets] = canon
            while len(_canon_memo) > _CANON_MEMO_MAX:
                _canon_memo.popitem(last=False)
    if canon.name != pattern.name:
        canon = canon.with_name(pattern.name)
    return canon


def canonical_solve_key(
    canonical_offsets: Tuple[Tuple[int, ...], ...],
    tail: Optional[int],
    n_max: Optional[int],
    objective_value: str,
    delta_max: int,
) -> Hashable:
    """Assemble the solve key from precomputed parts."""
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
    """Cache key for :func:`repro.core.solver.solve`: equal for every translate.

    Only the innermost extent enters the key: it is the single shape
    component that can steer the solution (``Objective.STORAGE`` candidates
    are divisors of ``w[-1]``); everything else about the shape only
    affects the mapping, which is rebuilt per call.
    """
    tail = int(shape[-1]) if shape else None
    return canonical_solve_key(
        canonicalize(pattern).offsets, tail, n_max, objective_value, delta_max
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

    :func:`canonical_key` / :func:`partition_key` tuples hash differently in
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
