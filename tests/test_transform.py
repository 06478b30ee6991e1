"""Unit tests for repro.core.transform (Section 4.1 / Theorem 1)."""

import pytest

from repro.core import (
    LinearTransform,
    OpCounter,
    Pattern,
    check_theorem1,
    derive_alpha,
    spread,
    transformed_values,
)
from repro.errors import DimensionMismatchError
from repro.patterns import log_pattern, sobel3d_pattern


class TestDeriveAlpha:
    def test_log_alpha_matches_paper(self):
        assert derive_alpha(log_pattern()).alpha == (5, 1)

    def test_log_extents(self):
        assert derive_alpha(log_pattern()).extents == (5, 5)

    def test_last_component_always_one(self):
        for pattern in (log_pattern(), sobel3d_pattern(), Pattern([(0, 0, 0, 0)])):
            assert derive_alpha(pattern).alpha[-1] == 1

    def test_3d_suffix_product(self):
        # 3x3x3 box: D = (3,3,3), alpha = (9, 3, 1)
        assert derive_alpha(sobel3d_pattern()).alpha == (9, 3, 1)

    def test_translation_invariant(self):
        p = log_pattern()
        assert derive_alpha(p).alpha == derive_alpha(p.translated((7, -3))).alpha

    def test_singleton_pattern(self):
        t = derive_alpha(Pattern([(4, 2)]))
        assert t.alpha == (1, 1)
        assert t.extents == (1, 1)

    def test_1d_pattern(self):
        assert derive_alpha(Pattern([(0,), (3,)])).alpha == (1,)

    def test_charges_operations(self):
        ops = OpCounter()
        derive_alpha(log_pattern(), ops)
        assert ops.counts["mul"] == 1  # n-1 = 1 suffix product step
        assert ops.counts["sub"] == 2
        assert ops.total > 0


class TestTransformedValues:
    def test_log_z_values_match_paper(self):
        # The paper works in a frame shifted by (2, 2):
        # z = {14, 18, 19, 20, 22, 23, 24, 25, 26, 28, 29, 30, 34}.
        _, z = transformed_values(log_pattern().translated((2, 2)))
        assert sorted(z) == [14, 18, 19, 20, 22, 23, 24, 25, 26, 28, 29, 30, 34]

    def test_values_follow_canonical_offset_order(self):
        pattern = Pattern([(1, 0), (0, 1)])
        transform, z = transformed_values(pattern)
        assert z == [transform.apply(d) for d in pattern.offsets]


class TestApply:
    def test_dot_product(self):
        t = LinearTransform(alpha=(5, 1))
        assert t.apply((3, 4)) == 19

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            LinearTransform(alpha=(1, 2)).apply((1, 2, 3))

    def test_bank_of(self):
        t = LinearTransform(alpha=(5, 1))
        assert t.bank_of((3, 4), 13) == 6

    def test_bank_of_rejects_nonpositive_banks(self):
        with pytest.raises(ValueError):
            LinearTransform(alpha=(1,)).bank_of((1,), 0)

    def test_apply_charges_ops(self):
        ops = OpCounter()
        LinearTransform(alpha=(5, 1)).apply((1, 2), ops)
        assert ops.counts == {"mul": 2, "add": 1}

    @pytest.mark.parametrize(
        "pattern",
        [Pattern([(0,), (4,), (9,)]), log_pattern(), sobel3d_pattern()],
        ids=["1d", "log", "sobel3d"],
    )
    def test_transform_pattern_charges_what_apply_charges(self, pattern):
        """Bulk charges: ``n·m`` multiplications and ``(n−1)·m`` additions,
        with no ``add`` entry at all for a 1-D pattern."""
        transform = derive_alpha(pattern)
        bulk, per_offset = OpCounter(), OpCounter()
        z = transform.transform_pattern(pattern, bulk)
        assert z == [transform.apply(d, per_offset) for d in pattern.offsets]
        assert list(bulk.counts.items()) == list(per_offset.counts.items())

    def test_transform_pattern_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            LinearTransform(alpha=(5, 1)).transform_pattern(sobel3d_pattern())


class TestTheorem1:
    def test_holds_for_all_benchmarks(self, all_benchmarks):
        for _, pattern in all_benchmarks:
            assert check_theorem1(pattern)

    def test_violated_by_degenerate_transform(self):
        # alpha = (1, 1) maps (0, 1) and (1, 0) to the same value.
        square = Pattern([(0, 0), (0, 1), (1, 0), (1, 1)])
        assert not check_theorem1(square, LinearTransform(alpha=(1, 1)))

    def test_holds_under_translation(self):
        shifted = log_pattern().translated((100, 200))
        assert check_theorem1(shifted)


class TestSpread:
    def test_spread(self):
        assert spread([14, 34, 20]) == 20

    def test_spread_singleton(self):
        assert spread([7]) == 0

    def test_spread_empty_raises(self):
        with pytest.raises(ValueError):
            spread([])
