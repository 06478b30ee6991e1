"""Deterministic, seed-driven generator of partitioning test cases.

A :class:`CaseSpec` is everything a fuzz case needs to be re-run anywhere:
the pattern offsets, the array shape, the ``N_max`` ceiling, and which
bank-limit scheme to solve with (the Section 4.3.2 same-size sweep or the
two-level modulo fold).  Specs are plain JSON-able records, so corpora are
diffable text files and a counterexample travels as one small artifact.

Generation is stratified, not uniform: index position cycles through
dimensionalities 1–4 and through four shape families —

* ``random`` — sparse offsets in a random bounding box;
* ``dense-box`` — the pattern *is* its bounding box (every residue class
  of the mixed-radix transform occupied);
* ``width1`` — at least one array dimension of width 1 (degenerate axes
  are where ravel/padding off-by-ones hide);
* ``narrow-tail`` — the innermost width is smaller than the bank count,
  so the Section 4.4 tail padding dominates the bank geometry.

Determinism contract: ``generate_case(seed, index)`` depends only on its
arguments (string-seeded :class:`random.Random`, which is stable across
processes and interpreter versions), never on global RNG state — the same
seed enumerates the same suite on a laptop, a CI runner, or a worker pool.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..core.pattern import Pattern

#: Shape families the generator cycles through (see module docstring).
STRATA = ("random", "dense-box", "width1", "narrow-tail")

#: Bank-limit schemes a case can solve with.
SCHEMES = ("same-size", "two-level")

#: Hard ceiling on array volume: every oracle that enumerates elements
#: (bijectivity, the scalar simulator's load) stays exhaustive and fast.
MAX_VOLUME = 1024

#: Per-dimensionality cap on pattern extents (keeps 4-D boxes enumerable).
_EXTENT_CAP = {1: 12, 2: 5, 3: 4, 4: 3}

#: Largest pattern size the generator asks for.
MAX_PATTERN_SIZE = 8


@dataclass(frozen=True)
class CaseSpec:
    """One fuzz case: a pattern, an array, a ceiling, and a scheme.

    Attributes
    ----------
    seed:
        Suite seed this case was derived from (0 for handwritten cases).
    index:
        Position within the suite (drives the stratification).
    label:
        Stratum tag (one of :data:`STRATA`, or a free-form tag for
        handwritten corpus entries).
    offsets:
        The pattern's offset vectors.
    shape:
        Array shape; always componentwise >= the pattern extents.
    n_max:
        Bank-count ceiling (``None`` = unconstrained).
    scheme:
        ``"same-size"`` or ``"two-level"`` (ignored when ``N_f <= n_max``).
    """

    seed: int
    index: int
    label: str
    offsets: Tuple[Tuple[int, ...], ...]
    shape: Tuple[int, ...]
    n_max: Optional[int]
    scheme: str

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected {SCHEMES}")
        pattern = self.pattern()  # validates offsets (distinct, rectangular)
        if len(self.shape) != pattern.ndim:
            raise ValueError(
                f"shape {self.shape} does not match pattern dimensionality "
                f"{pattern.ndim}"
            )
        lo, extents = pattern.mins, pattern.extents
        if any(c != 0 for c in lo):
            raise ValueError(f"case offsets must be normalized to origin, got min {lo}")
        if any(w < e for w, e in zip(self.shape, extents)):
            raise ValueError(
                f"shape {self.shape} cannot hold pattern extents {extents}"
            )
        if self.n_max is not None and self.n_max < 1:
            raise ValueError(f"n_max must be positive, got {self.n_max}")

    def pattern(self) -> Pattern:
        """Materialize the offsets as a :class:`~repro.core.pattern.Pattern`."""
        return Pattern(self.offsets, name=f"fuzz[{self.seed}:{self.index}]")

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def volume(self) -> int:
        total = 1
        for w in self.shape:
            total *= w
        return total

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form (the corpus line / artifact payload)."""
        return {
            "seed": self.seed,
            "index": self.index,
            "label": self.label,
            "offsets": [list(v) for v in self.offsets],
            "shape": list(self.shape),
            "n_max": self.n_max,
            "scheme": self.scheme,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CaseSpec":
        """Inverse of :meth:`to_dict`; validates on construction."""
        return cls(
            seed=int(payload.get("seed", 0)),
            index=int(payload.get("index", 0)),
            label=str(payload.get("label", "corpus")),
            offsets=tuple(tuple(int(c) for c in v) for v in payload["offsets"]),
            shape=tuple(int(w) for w in payload["shape"]),
            n_max=None if payload.get("n_max") is None else int(payload["n_max"]),
            scheme=str(payload.get("scheme", "same-size")),
        )


def _rng(seed: int, index: int) -> random.Random:
    # String seeding is hashed with SHA-512 internally: stable across
    # processes (PYTHONHASHSEED does not apply) and Python versions.
    return random.Random(f"repro-verify:{seed}:{index}")


def _normalized(offsets) -> Tuple[Tuple[int, ...], ...]:
    ndim = len(next(iter(offsets)))
    lo = tuple(min(v[j] for v in offsets) for j in range(ndim))
    return tuple(sorted(tuple(c - lo[j] for j, c in enumerate(v)) for v in offsets))


def _random_extents(rng: random.Random, ndim: int, cap: int) -> Tuple[int, ...]:
    while True:
        extents = tuple(rng.randint(1, cap) for _ in range(ndim))
        volume = 1
        for e in extents:
            volume *= e
        if volume >= 2:
            return extents


def _sample_offsets(
    rng: random.Random, extents: Tuple[int, ...], size: int
) -> Tuple[Tuple[int, ...], ...]:
    chosen = set()
    while len(chosen) < size:
        chosen.add(tuple(rng.randrange(e) for e in extents))
    return _normalized(chosen)


def _dense_box(rng: random.Random, ndim: int) -> Tuple[Tuple[int, ...], ...]:
    # Keep the box small enough that m = volume stays a pattern, not an array.
    while True:
        extents = tuple(rng.randint(1, 3 if ndim <= 2 else 2) for _ in range(ndim))
        volume = 1
        for e in extents:
            volume *= e
        if 2 <= volume <= 12:
            break
    offsets = [()]
    for e in extents:
        offsets = [prefix + (c,) for prefix in offsets for c in range(e)]
    return tuple(sorted(offsets))


def _fit_shape(
    rng: random.Random, extents: Tuple[int, ...], tight_last: bool
) -> Tuple[int, ...]:
    """Extents plus random slack per dimension, trimmed to :data:`MAX_VOLUME`."""
    slack_cap = {1: 16, 2: 6, 3: 3, 4: 2}[len(extents)]
    shape = [e + rng.randint(0, slack_cap) for e in extents]
    if tight_last:
        shape[-1] = extents[-1]

    def volume() -> int:
        total = 1
        for w in shape:
            total *= w
        return total

    # Trim slack (largest dimension first) until the array is enumerable.
    while volume() > MAX_VOLUME:
        candidates = [j for j in range(len(shape)) if shape[j] > extents[j]]
        if not candidates:
            break
        j = max(candidates, key=lambda k: shape[k])
        shape[j] -= 1
    return tuple(shape)


def generate_case(seed: int, index: int) -> CaseSpec:
    """Derive the deterministic case at ``index`` of suite ``seed``."""
    rng = _rng(seed, index)
    ndim = 1 + index % 4
    label = STRATA[(index // 4) % len(STRATA)]
    cap = _EXTENT_CAP[ndim]

    if label == "dense-box":
        offsets = _dense_box(rng, ndim)
    elif label == "width1":
        extents = list(_random_extents(rng, ndim, cap))
        extents[rng.randrange(ndim)] = 1
        if all(e == 1 for e in extents):
            extents[rng.randrange(ndim)] = max(2, cap - 1)
        extents = tuple(extents)
        box_volume = 1
        for e in extents:
            box_volume *= e
        size = rng.randint(2, min(MAX_PATTERN_SIZE, box_volume))
        offsets = _sample_offsets(rng, extents, size)
    elif label == "narrow-tail":
        if ndim == 1:
            # A 1-D in-range pattern always has shape >= extents >= N_f -
            # slack, so "narrower than the bank count" degenerates to the
            # tightest legal shape (zero head room past the bounding box).
            extents = (rng.randint(3, cap),)
            size = rng.randint(2, min(MAX_PATTERN_SIZE, extents[0]))
            offsets = _sample_offsets(rng, extents, size)
        else:
            extents = list(_random_extents(rng, ndim, cap))
            extents[-1] = rng.randint(1, 2)
            head_volume = 1
            for e in extents[:-1]:
                head_volume *= e
            if head_volume < 2:
                extents[0] = max(2, cap - 1)
            extents = tuple(extents)
            box_volume = 1
            for e in extents:
                box_volume *= e
            size = rng.randint(min(3, box_volume), min(MAX_PATTERN_SIZE, box_volume))
            offsets = _sample_offsets(rng, extents, size)
    else:  # "random"
        extents = _random_extents(rng, ndim, cap)
        box_volume = 1
        for e in extents:
            box_volume *= e
        size = rng.randint(2, min(MAX_PATTERN_SIZE, box_volume))
        offsets = _sample_offsets(rng, extents, size)

    pattern_extents = tuple(
        max(v[j] for v in offsets) + 1 for j in range(ndim)
    )
    shape = _fit_shape(rng, pattern_extents, tight_last=(label == "narrow-tail"))

    size = len(offsets)
    roll = rng.random()
    if roll < 0.3:
        n_max = None
    elif roll < 0.65:
        # Binding ceilings below the likely N_f exercise both limit schemes.
        n_max = rng.randint(1, max(2, size))
    else:
        n_max = rng.randint(size, size + 4)
    scheme = rng.choice(SCHEMES)

    return CaseSpec(
        seed=seed,
        index=index,
        label=label,
        offsets=offsets,
        shape=shape,
        n_max=n_max,
        scheme=scheme,
    )


def iter_cases(count: int, seed: int, start: int = 0) -> Iterator[CaseSpec]:
    """The suite ``seed``'s cases ``start … start + count - 1`` in order."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    for index in range(start, start + count):
        yield generate_case(seed, index)


# -- symmetry variants --------------------------------------------------------
#
# Mirrored and axis-permuted copies of a (pattern, shape) pair: the served
# benchmark's traffic and the property tests draw on one variant vocabulary.
# The solve cache identifies translates only (repro.core.cache.canonicalize),
# so each mirrored or permuted copy is its own translation class and solve.


def leading_axis_permutations(ndim: int) -> List[Tuple[int, ...]]:
    """Axis permutations that keep the innermost axis innermost.

    Moving the last axis would hand the Section 4.4 intra-bank layout a
    different innermost extent, so the variants keep it in place.
    """
    return [perm + (ndim - 1,) for perm in itertools.permutations(range(ndim - 1))]


def symmetry_variants(
    pattern: "Pattern",
    shape: Tuple[int, ...],
    kind: str,
    seed: int = 0,
    count: int = 3,
) -> List[Tuple[str, "Pattern", Tuple[int, ...]]]:
    """Mirrored and permuted copies of ``(pattern, shape)``, one family at a time.

    ``kind`` selects the family: ``"reflection"`` mirrors each axis (and,
    above 1-D, all axes at once), ``"permutation"`` applies every
    non-identity leading-axis permutation (shape permuted to match), and
    ``"composed"`` draws ``count`` seeded random permutation∘reflection∘
    translation compositions.  Variants are returned translation-normalized
    — the translation leg of a composition cancels under ``normalized()``
    — and variants identical to the input are dropped (a symmetric pattern
    can have fewer distinct copies than the family has members).  Each
    variant is solved as its own pattern: the copies of a chiral pattern
    can need different bank counts.

    Returns ``(tag, variant_pattern, variant_shape)`` triples.
    """
    shape_t = tuple(int(w) for w in shape)
    ndim = pattern.ndim
    out: List[Tuple[str, "Pattern", Tuple[int, ...]]] = []
    if kind == "reflection":
        axis_sets = [(axis,) for axis in range(ndim)]
        if ndim > 1:
            axis_sets.append(tuple(range(ndim)))
        for axes in axis_sets:
            out.append(
                (
                    f"reflect{list(axes)}",
                    pattern.reflected(axes).normalized(),
                    shape_t,
                )
            )
    elif kind == "permutation":
        identity = tuple(range(ndim))
        for perm in leading_axis_permutations(ndim):
            if perm == identity:
                continue
            out.append(
                (
                    f"permute{list(perm)}",
                    pattern.permuted(perm),
                    tuple(shape_t[a] for a in perm),
                )
            )
    elif kind == "composed":
        rng = random.Random(f"repro-verify:symmetry:{seed}")
        perms = leading_axis_permutations(ndim)
        for i in range(count):
            perm = rng.choice(perms)
            axes = tuple(j for j in range(ndim) if rng.random() < 0.5)
            variant = pattern.permuted(perm)
            if axes:
                variant = variant.reflected(axes)
            shift = tuple(rng.randint(-3, 3) for _ in range(ndim))
            variant = variant.translated(shift).normalized()
            out.append(
                (
                    f"compose[{i}]perm{list(perm)}flip{list(axes)}",
                    variant,
                    tuple(shape_t[a] for a in perm),
                )
            )
    else:
        raise ValueError(
            f"unknown symmetry-variant kind {kind!r}; expected "
            "'reflection', 'permutation', or 'composed'"
        )
    return [
        (tag, variant, v_shape)
        for tag, variant, v_shape in out
        if variant.offsets != pattern.offsets or v_shape != shape_t
    ]
