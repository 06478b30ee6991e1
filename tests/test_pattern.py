"""Unit tests for repro.core.pattern."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Pattern
from repro.errors import DimensionMismatchError, PatternError


class TestConstruction:
    def test_basic(self):
        p = Pattern([(0, 0), (1, 2)])
        assert p.size == 2
        assert p.ndim == 2

    def test_offsets_sorted_canonically(self):
        p = Pattern([(1, 0), (0, 0), (0, 1)])
        assert p.offsets == ((0, 0), (0, 1), (1, 0))

    def test_equality_order_independent(self):
        assert Pattern([(0, 1), (1, 0)]) == Pattern([(1, 0), (0, 1)])

    def test_hashable(self):
        assert len({Pattern([(0,)]), Pattern([(0,)])}) == 1

    def test_name_not_part_of_equality(self):
        assert Pattern([(0, 0)], name="a") == Pattern([(0, 0)], name="b")

    def test_rejects_empty(self):
        with pytest.raises(PatternError):
            Pattern([])

    def test_rejects_duplicates(self):
        with pytest.raises(PatternError, match="duplicate"):
            Pattern([(0, 0), (0, 0)])

    def test_rejects_ragged(self):
        with pytest.raises(PatternError, match="ragged"):
            Pattern([(0, 0), (1,)])

    def test_rejects_zero_dimensional(self):
        with pytest.raises(PatternError):
            Pattern([()])

    def test_rejects_non_integer(self):
        with pytest.raises(PatternError):
            Pattern([("x", "y")])

    def test_coerces_integer_like(self):
        p = Pattern([[0, 1], [1, 0]])
        assert p.offsets == ((0, 1), (1, 0))

    def test_negative_offsets_allowed(self):
        p = Pattern([(-1, 0), (1, 0)])
        assert p.mins == (-1, 0)


def _reference_offsets(offsets):
    """The one-generator-per-offset constructor body, kept as the oracle."""
    normalized = []
    for raw in offsets:
        try:
            vec = tuple(int(c) for c in raw)
        except (TypeError, ValueError) as exc:
            raise PatternError(f"offset {raw!r} is not an integer vector") from exc
        if any(not isinstance(c, int) for c in vec):
            raise PatternError(f"offset {raw!r} is not an integer vector")
        normalized.append(vec)
    if not normalized:
        raise PatternError("a pattern must contain at least one offset")
    ndim = len(normalized[0])
    if ndim == 0:
        raise PatternError("offsets must have at least one dimension")
    for vec in normalized:
        if len(vec) != ndim:
            raise PatternError(
                f"ragged pattern: expected {ndim}-dimensional offsets, got {vec!r}"
            )
    if len(set(normalized)) != len(normalized):
        raise PatternError("pattern contains duplicate offsets")
    return tuple(sorted(normalized))


#: Components ``int()`` accepts (truncating floats, parsing digit strings)...
_VALID = st.one_of(
    st.integers(-20, 20),
    st.booleans(),
    st.floats(-3, 3),
    st.integers(-20, 20).map(np.int64),
    st.integers(-20, 20).map(str),
)
#: ...and ones it rejects, with ``ValueError``, ``TypeError`` or ``OverflowError``.
_INVALID = st.sampled_from([float("nan"), float("inf"), "x", "1.5", None])


@st.composite
def raw_offsets(draw):
    """Offsets as callers pass them: list or tuple rows of one width or
    ragged, sometimes a bare component in a row's place or a duplicate row,
    now and then no rows at all."""
    component = draw(st.sampled_from([_VALID, st.one_of(_VALID, _INVALID)]))
    width = draw(st.integers(0, 3))
    if draw(st.booleans()):
        row = st.lists(component, min_size=width, max_size=width)
    else:
        row = st.lists(component, max_size=3)
    row = st.one_of(row, row.map(tuple))
    if draw(st.integers(0, 9)) == 0:
        row = st.one_of(row, component)
    rows = draw(st.lists(row, min_size=1, max_size=6)) if draw(st.integers(0, 9)) else []
    if rows and draw(st.integers(0, 2)) == 0:
        rows.append(draw(st.sampled_from(rows)))
    return rows


class TestConstructorEquivalence:
    @given(raw_offsets(), st.sampled_from([list, tuple, iter]))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_reference_constructor(self, rows, container):
        try:
            expected = _reference_offsets(container(rows))
        except Exception as exc:  # noqa: BLE001 - any failure must be mirrored
            with pytest.raises(Exception) as info:
                Pattern(container(rows))
            assert type(info.value) is type(exc)
            assert str(info.value) == str(exc)
            return
        pattern = Pattern(container(rows))
        assert pattern.offsets == expected
        assert pattern == Pattern(expected)
        assert hash(pattern) == hash(Pattern(expected))


class TestGeometry:
    def test_extents(self):
        p = Pattern([(0, 0), (2, 3)])
        assert p.extents == (3, 4)

    def test_extents_singleton(self):
        assert Pattern([(5, 7)]).extents == (1, 1)

    def test_bounding_box_volume(self):
        assert Pattern([(0, 0), (2, 3)]).bounding_box_volume == 12

    def test_mins_maxs(self):
        p = Pattern([(-1, 2), (3, -4)])
        assert p.mins == (-1, -4)
        assert p.maxs == (3, 2)


class TestDerived:
    def test_normalized_moves_to_origin(self):
        p = Pattern([(2, 3), (4, 5)]).normalized()
        assert p.mins == (0, 0)
        assert p.offsets == ((0, 0), (2, 2))

    def test_normalized_idempotent(self):
        p = Pattern([(1, 1), (2, 2)])
        assert p.normalized() == p.normalized().normalized()

    def test_translated(self):
        p = Pattern([(0, 0)]).translated((3, -2))
        assert p.offsets == ((3, -2),)

    def test_translated_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Pattern([(0, 0)]).translated((1,))

    def test_union(self):
        a = Pattern([(0, 0), (0, 1)])
        b = Pattern([(0, 1), (1, 1)])
        assert a.union(b).size == 3

    def test_union_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Pattern([(0, 0)]).union(Pattern([(0,)]))

    def test_embed_default_last_axis(self):
        p = Pattern([(1, 2)]).embed(extra_axis_value=7)
        assert p.offsets == ((1, 2, 7),)

    def test_embed_front_axis(self):
        p = Pattern([(1, 2)]).embed(extra_axis_value=7, axis=0)
        assert p.offsets == ((7, 1, 2),)

    def test_embed_bad_axis(self):
        with pytest.raises(DimensionMismatchError):
            Pattern([(1, 2)]).embed(axis=5)

    def test_with_name(self):
        assert Pattern([(0,)]).with_name("x").name == "x"

    def test_with_name_shares_the_validated_offsets(self):
        base = Pattern([(2, 1), (0, 3)], name="a")
        twin = base.with_name("b")
        assert twin.offsets is base.offsets
        assert twin == base and hash(twin) == hash(base)
        assert (base.name, twin.name) == ("a", "b")


class TestMask:
    def test_to_mask_roundtrip(self):
        mask = [[1, 0, 1], [0, 1, 0]]
        p = Pattern.from_mask(mask)
        assert p.to_mask() == mask

    def test_from_kernel_skips_zeros(self):
        p = Pattern.from_kernel([[0, 5], [-3, 0]])
        assert p.offsets == ((0, 1), (1, 0))

    def test_from_mask_empty_raises(self):
        with pytest.raises(PatternError):
            Pattern.from_mask([[0, 0]])

    def test_to_mask_requires_2d(self):
        with pytest.raises(PatternError):
            Pattern([(0, 0, 0)]).to_mask()

    def test_to_mask_normalizes(self):
        p = Pattern([(5, 5), (5, 6)])
        assert p.to_mask() == [[1, 1]]


class TestDunder:
    def test_len_and_iter(self):
        p = Pattern([(0, 0), (1, 1)])
        assert len(p) == 2
        assert list(p) == [(0, 0), (1, 1)]

    def test_contains(self):
        p = Pattern([(0, 1)])
        assert p.contains((0, 1))
        assert not p.contains((1, 0))

    def test_repr_mentions_size(self):
        assert "2 offsets" in repr(Pattern([(0, 0), (1, 1)]))

    def test_eq_other_type(self):
        assert Pattern([(0,)]) != 42
