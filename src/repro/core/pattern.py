"""Access patterns over multidimensional arrays (paper Definition 2).

A *pattern* is a finite set of ``m`` distinct integer offset vectors
``Δ^(1) … Δ^(m)`` in an ``n``-dimensional array.  At loop offset ``s`` the
kernel touches the addresses ``{s + Δ^(i)}``; the partitioner must place all
of them in distinct banks for every ``s``.

The class is deliberately immutable and hashable so patterns can be used as
dictionary keys (e.g. memoizing partition solutions per pattern).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, List, Sequence, Tuple

from ..errors import DimensionMismatchError, PatternError

Offset = Tuple[int, ...]


class Pattern:
    """An immutable set of integer offsets defining a parallel access shape.

    Parameters
    ----------
    offsets:
        Iterable of equal-length integer sequences.  Duplicates are
        rejected: a pattern is a *set* of addresses and a duplicate would
        silently halve the required bandwidth.
    name:
        Optional human-readable label (used in reports and benchmarks).

    Examples
    --------
    >>> p = Pattern([(0, 0), (0, 1), (1, 0)], name="corner")
    >>> p.size, p.ndim
    (3, 2)
    >>> p.extents
    (2, 2)
    """

    __slots__ = ("_offsets", "_name")

    def __init__(self, offsets: Iterable[Sequence[int]], name: str = "") -> None:
        normalized: List[Offset] = []
        for raw in offsets:
            try:
                normalized.append(tuple(map(int, raw)))
            except (TypeError, ValueError) as exc:
                raise PatternError(f"offset {raw!r} is not an integer vector") from exc
        if not normalized:
            raise PatternError("a pattern must contain at least one offset")
        ndim = len(normalized[0])
        if ndim == 0:
            raise PatternError("offsets must have at least one dimension")
        if len(set(map(len, normalized))) != 1:
            # Walk only to name the first offending offset.
            for vec in normalized:
                if len(vec) != ndim:
                    raise PatternError(
                        f"ragged pattern: expected {ndim}-dimensional offsets, got {vec!r}"
                    )
        if len(set(normalized)) != len(normalized):
            raise PatternError("pattern contains duplicate offsets")
        # Canonical order makes equality/hash independent of input order.
        normalized.sort()
        self._offsets: Tuple[Offset, ...] = tuple(normalized)
        self._name = name

    # -- basic properties -------------------------------------------------

    @property
    def offsets(self) -> Tuple[Offset, ...]:
        """The offsets in canonical (sorted) order."""
        return self._offsets

    @property
    def name(self) -> str:
        """Human-readable label, possibly empty."""
        return self._name

    @property
    def size(self) -> int:
        """Number of elements ``m`` accessed in parallel."""
        return len(self._offsets)

    @property
    def ndim(self) -> int:
        """Array dimensionality ``n``."""
        return len(self._offsets[0])

    # -- geometry ----------------------------------------------------------

    @property
    def mins(self) -> Offset:
        """Per-dimension minimum offset component."""
        return tuple(map(min, zip(*self._offsets)))

    @property
    def maxs(self) -> Offset:
        """Per-dimension maximum offset component."""
        return tuple(map(max, zip(*self._offsets)))

    @property
    def extents(self) -> Offset:
        """The paper's ``D_j = max Δ_j − min Δ_j + 1`` per dimension."""
        return tuple(max(axis) - min(axis) + 1 for axis in zip(*self._offsets))

    @property
    def bounding_box_volume(self) -> int:
        """Product of extents: size of the tightest enclosing box."""
        return math.prod(self.extents)

    # -- derived patterns ---------------------------------------------------

    def normalized(self) -> "Pattern":
        """Translate so the minimum corner sits at the origin.

        Bank-mapping results are translation-invariant (Theorem 1's proof
        removes the common ``α·s`` term), so normalizing never changes a
        solution; it only standardizes display.
        """
        lo = self.mins
        moved = [tuple(c - lo[j] for j, c in enumerate(v)) for v in self._offsets]
        return Pattern(moved, name=self._name)

    def translated(self, shift: Sequence[int]) -> "Pattern":
        """Return a copy translated by ``shift``."""
        shift_t = tuple(int(c) for c in shift)
        if len(shift_t) != self.ndim:
            raise DimensionMismatchError(
                f"shift has {len(shift_t)} components, pattern is {self.ndim}-dimensional"
            )
        moved = [tuple(c + shift_t[j] for j, c in enumerate(v)) for v in self._offsets]
        return Pattern(moved, name=self._name)

    def reflected(self, axes: Sequence[int]) -> "Pattern":
        """Return a copy mirrored (coordinate-negated) along ``axes``.

        Reflection composes with translation: the result is generally not
        normalized.  Bank mappings are invariant under reflection — negating
        an axis negates the matching ``α`` component, which permutes the
        pairwise ``z`` differences by sign and leaves every conflict count
        unchanged — which is what lets the solve cache quotient reflections
        away (see :func:`repro.core.cache.canonicalize`).

        >>> Pattern([(0, 0), (0, 2)]).reflected([1]).normalized().offsets
        ((0, 0), (0, 2))
        """
        chosen = set()
        for axis in axes:
            axis_i = int(axis)
            if not -self.ndim <= axis_i < self.ndim:
                raise DimensionMismatchError(
                    f"axis {axis_i} out of range for {self.ndim} dimensions"
                )
            chosen.add(axis_i % self.ndim)
        mirrored = [
            tuple(-c if j in chosen else c for j, c in enumerate(v))
            for v in self._offsets
        ]
        return Pattern(mirrored, name=self._name)

    def permuted(self, perm: Sequence[int]) -> "Pattern":
        """Return a copy with axes reordered: result axis ``k`` = axis ``perm[k]``.

        ``perm`` must be a permutation of ``range(ndim)``.  Note the §4.4
        intra-bank layout is only shared between permuted variants when the
        innermost axis stays innermost (``perm[-1] == ndim - 1``); the
        canonicalizer enforces that restriction, this helper does not.

        >>> Pattern([(0, 1), (2, 0)]).permuted([1, 0]).offsets
        ((0, 2), (1, 0))
        """
        perm_t = tuple(int(a) for a in perm)
        if sorted(perm_t) != list(range(self.ndim)):
            raise DimensionMismatchError(
                f"perm {perm_t!r} is not a permutation of range({self.ndim})"
            )
        reordered = [tuple(v[a] for a in perm_t) for v in self._offsets]
        return Pattern(reordered, name=self._name)

    def union(self, other: "Pattern", name: str = "") -> "Pattern":
        """Set union of two patterns (e.g. vertical + horizontal Prewitt)."""
        if other.ndim != self.ndim:
            raise DimensionMismatchError(
                f"cannot union {self.ndim}-d and {other.ndim}-d patterns"
            )
        merged = set(self._offsets) | set(other._offsets)
        return Pattern(merged, name=name or f"{self.name}|{other.name}")

    def with_name(self, name: str) -> "Pattern":
        """Return the same pattern relabelled.

        The offsets were validated and sorted when this pattern was built,
        so the copy shares them without checking them again.
        """
        twin = Pattern.__new__(Pattern)
        twin._offsets = self._offsets
        twin._name = name
        return twin

    def embed(self, extra_axis_value: int = 0, axis: int = -1, name: str = "") -> "Pattern":
        """Embed into one more dimension by inserting a constant coordinate.

        Useful for lifting a 2-D stencil into a 3-D volume (e.g. building
        the 3-D Sobel pattern out of 2-D slices).
        """
        n = self.ndim + 1
        if axis < 0:
            axis += n
        if not 0 <= axis < n:
            raise DimensionMismatchError(f"axis {axis} out of range for {n} dimensions")
        lifted = [
            v[:axis] + (int(extra_axis_value),) + v[axis:] for v in self._offsets
        ]
        return Pattern(lifted, name=name or self._name)

    # -- containment / mask -------------------------------------------------

    def contains(self, offset: Sequence[int]) -> bool:
        """True if ``offset`` is one of the pattern's offsets."""
        return tuple(int(c) for c in offset) in set(self._offsets)

    def to_mask(self) -> List[List[int]]:
        """Render a 2-D pattern as a 0/1 nested-list mask over its bounding box.

        Raises :class:`PatternError` for non-2-D patterns; use
        :mod:`repro.viz` for general rendering.
        """
        if self.ndim != 2:
            raise PatternError(f"to_mask requires a 2-D pattern, got {self.ndim}-D")
        norm = self.normalized()
        h, w = norm.extents
        grid = [[0] * w for _ in range(h)]
        for (r, c) in norm.offsets:
            grid[r][c] = 1
        return grid

    @classmethod
    def from_mask(cls, mask: Sequence[Sequence[object]], name: str = "") -> "Pattern":
        """Build a 2-D pattern from a truthy mask (e.g. nonzero kernel taps).

        >>> Pattern.from_mask([[0, 1], [1, 1]]).size
        3
        """
        offsets = [
            (r, c)
            for r, row in enumerate(mask)
            for c, val in enumerate(row)
            if val
        ]
        if not offsets:
            raise PatternError("mask has no truthy entries")
        return cls(offsets, name=name)

    @classmethod
    def from_kernel(cls, kernel: Sequence[Sequence[float]], name: str = "") -> "Pattern":
        """Pattern of the nonzero taps of a 2-D convolution kernel."""
        return cls.from_mask([[v != 0 for v in row] for row in kernel], name=name)

    # -- dunder plumbing ------------------------------------------------------

    def __iter__(self) -> Iterator[Offset]:
        return iter(self._offsets)

    def __len__(self) -> int:
        return len(self._offsets)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return self._offsets == other._offsets

    def __hash__(self) -> int:
        return hash(self._offsets)

    def __repr__(self) -> str:
        label = f" {self._name!r}" if self._name else ""
        return f"Pattern({self.size} offsets, ndim={self.ndim}{label})"
