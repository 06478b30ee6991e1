"""Unit tests for the LTB baseline (Wang DAC 2013 reimplementation)."""

import pytest

from repro.baselines import (
    ltb_bank_of,
    ltb_min_banks,
    ltb_overhead_elements,
    ltb_partition,
)
from repro.core import OpCounter, partition
from repro.errors import PartitioningError
from repro.patterns import (
    EXPECTED_BANKS,
    benchmark_pattern,
    gaussian_pattern,
    log_pattern,
    median_pattern,
)


class TestSearch:
    def test_table1_bank_counts(self, all_benchmarks):
        for name, pattern in all_benchmarks:
            result = ltb_partition(pattern)
            assert result.solution.n_banks == EXPECTED_BANKS[name][1], name

    def test_solution_is_conflict_free(self, all_benchmarks):
        for name, pattern in all_benchmarks:
            solution = ltb_partition(pattern).solution
            banks = [solution.bank_of(d) for d in pattern.offsets]
            assert len(set(banks)) == pattern.size, name

    def test_never_beats_ltb(self, all_benchmarks):
        """LTB searches the full vector space, so ours >= LTB always."""
        for name, pattern in all_benchmarks:
            ours = partition(pattern).n_banks
            ltb = ltb_partition(pattern).solution.n_banks
            assert ours >= ltb, name

    def test_median_gap(self):
        # LTB finds 7 banks where our constant-time alpha needs 8.
        assert ltb_partition(median_pattern()).solution.n_banks == 7
        assert partition(median_pattern()).n_banks == 8

    def test_gaussian_gap(self):
        assert ltb_partition(gaussian_pattern()).solution.n_banks == 10
        assert partition(gaussian_pattern()).n_banks == 13

    def test_nmax_exhaustion_raises(self):
        with pytest.raises(PartitioningError):
            ltb_partition(gaussian_pattern(), n_max=9)

    def test_algorithm_label(self):
        assert ltb_partition(log_pattern()).solution.algorithm == "ltb"

    def test_counts_candidates(self):
        result = ltb_partition(gaussian_pattern())
        # N = 9 fails entirely, N = 10 succeeds: two candidates tried.
        assert result.candidates_tried == 2
        assert result.vectors_tried > 81  # all of 9^2 plus some of 10^2

    def test_start_n_override(self):
        result = ltb_partition(log_pattern(), start_n=14)
        assert result.solution.n_banks == 14

    def test_bad_start_n(self):
        with pytest.raises(ValueError):
            ltb_partition(log_pattern(), start_n=0)

    def test_min_banks_wrapper(self):
        assert ltb_min_banks(log_pattern()) == 13


class TestOpAccounting:
    def test_ltb_costs_much_more_than_ours(self, all_benchmarks):
        for name, pattern in all_benchmarks:
            ltb_ops = OpCounter()
            ltb_partition(pattern, ops=ltb_ops)
            ours_ops = OpCounter()
            partition(pattern, ops=ours_ops)
            assert ltb_ops.arithmetic > ours_ops.arithmetic, name

    def test_sobel3d_dominates(self):
        """The 3-D search blows up (paper: 4.5M ops vs 352)."""
        from repro.patterns import sobel3d_pattern

        ltb_ops = OpCounter()
        ltb_partition(sobel3d_pattern(), ops=ltb_ops)
        ours_ops = OpCounter()
        partition(sobel3d_pattern(), ops=ours_ops)
        assert ltb_ops.arithmetic > 1_000_000
        assert ours_ops.arithmetic < 5_000
        assert ltb_ops.arithmetic / ours_ops.arithmetic > 100


#: The Table 1 ops column as this implementation counts it: arithmetic ops
#: of ``partition(p, ops=...)``, of ``ltb_partition(p, ops=...)``, and the
#: LTB candidate vectors tried.
TABLE1_OPS = {
    "log": (258, 1222, 19),
    "canny": (782, 4193, 31),
    "prewitt": (123, 3257, 77),
    "se": (66, 195, 8),
    "sobel3d": (950, 3937227, 18396),
    "median": (106, 359, 11),
    "gaussian": (162, 4418, 96),
}


class TestTable1OpsColumn:
    """Exact op charges, identical for every LTB engine."""

    @pytest.mark.parametrize("name", sorted(TABLE1_OPS))
    def test_exact_counts(self, name, sim_engine):
        pattern = benchmark_pattern(name)
        ours_ops = OpCounter()
        partition(pattern, ops=ours_ops)
        ltb_ops = OpCounter()
        ltb = ltb_partition(pattern, ops=ltb_ops, engine=sim_engine)
        assert (ours_ops.total, ltb_ops.total, ltb.vectors_tried) == TABLE1_OPS[name]


class TestOverheadModel:
    def test_paper_motivation_anchor(self):
        # Section 2: LTB pads 640x480 to 650x481 -> 5450 extra elements.
        assert ltb_overhead_elements((640, 480), 13) == 5450

    def test_pads_every_dimension(self):
        # Both dims divisible: zero overhead.
        assert ltb_overhead_elements((650, 481), 13) == 650 * 481 - 650 * 481
        assert ltb_overhead_elements((26, 39), 13) == 0

    def test_always_at_least_ours(self, all_benchmarks):
        from repro.core import ours_overhead_elements

        for name, pattern in all_benchmarks:
            n = partition(pattern).n_banks
            for shape in [(640, 480), (1280, 720), (33, 47)]:
                if pattern.ndim == 3:
                    shape = shape + (400,)
                assert ltb_overhead_elements(shape, n) >= ours_overhead_elements(
                    shape, n
                ), (name, shape)

    def test_3d_overhead(self):
        # 640x480x400 at N = 27: pad to 648x486x405.
        expected = 648 * 486 * 405 - 640 * 480 * 400
        assert ltb_overhead_elements((640, 480, 400), 27) == expected

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ltb_overhead_elements((640, 480), 0)
        with pytest.raises(ValueError):
            ltb_overhead_elements((), 5)


class TestBankOf:
    def test_consistent_with_solution(self):
        result = ltb_partition(log_pattern())
        solution = result.solution
        for delta in log_pattern().offsets:
            assert ltb_bank_of(
                solution.transform, solution.n_banks, delta
            ) == solution.bank_of(delta)
