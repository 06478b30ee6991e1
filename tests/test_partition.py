"""Unit tests for repro.core.partition (Algorithm 1 and bank-limit schemes)."""

import pytest

from repro import obs
from repro.core import (
    OpCounter,
    Pattern,
    derive_alpha,
    fast_nc,
    minimize_nf,
    pairwise_differences,
    partition,
    same_size_nc,
    same_size_sweep,
)
from repro.patterns import (
    BENCHMARKS,
    EXPECTED_BANKS,
    gaussian_pattern,
    log_pattern,
    median_pattern,
    prewitt_pattern,
)
from repro.verify.gen import generate_case


class TestPairwiseDifferences:
    def test_values(self):
        assert sorted(pairwise_differences([1, 4, 6])) == [2, 3, 5]

    def test_count_is_m_choose_2(self):
        diffs = pairwise_differences(list(range(7)))
        assert len(diffs) == 21

    def test_repeats_kept(self):
        assert sorted(pairwise_differences([0, 1, 2])) == [1, 1, 2]

    def test_charges_one_sub_per_pair(self):
        ops = OpCounter()
        pairwise_differences([1, 2, 3, 4], ops)
        assert ops.counts["sub"] == 6


class TestMinimizeNf:
    @pytest.mark.parametrize(
        "factory, expected",
        [
            (log_pattern, 13),
            (prewitt_pattern, 9),
            (median_pattern, 8),
            (gaussian_pattern, 13),
        ],
    )
    def test_table1_bank_counts(self, factory, expected):
        n_f, _, _ = minimize_nf(factory())
        assert n_f == expected

    def test_all_benchmarks(self, all_benchmarks):
        for name, pattern in all_benchmarks:
            n_f, _, _ = minimize_nf(pattern)
            assert n_f == EXPECTED_BANKS[name][0], name

    def test_residues_distinct_at_nf(self, all_benchmarks):
        for name, pattern in all_benchmarks:
            n_f, transform, z = minimize_nf(pattern)
            residues = [v % n_f for v in z]
            assert len(set(residues)) == pattern.size, name

    def test_nf_at_least_pattern_size(self, all_benchmarks):
        for _, pattern in all_benchmarks:
            n_f, _, _ = minimize_nf(pattern)
            assert n_f >= pattern.size

    def test_no_smaller_valid_n_with_same_alpha(self, all_benchmarks):
        """Algorithm 1's result is minimal for the derived transform."""
        for name, pattern in all_benchmarks:
            n_f, _, z = minimize_nf(pattern)
            for n in range(pattern.size, n_f):
                residues = [v % n for v in z]
                assert len(set(residues)) < pattern.size, (name, n)

    def test_singleton(self):
        n_f, _, _ = minimize_nf(Pattern([(3, 3)]))
        assert n_f == 1

    def test_dense_line_needs_exactly_m(self):
        n_f, _, _ = minimize_nf(Pattern([(i,) for i in range(6)]))
        assert n_f == 6

    def test_translation_invariant(self):
        a, _, _ = minimize_nf(log_pattern())
        b, _, _ = minimize_nf(log_pattern().translated((9, 9)))
        assert a == b

    def test_reuses_provided_transform(self):
        t = derive_alpha(log_pattern())
        n_f, transform, _ = minimize_nf(log_pattern(), transform=t)
        assert transform is t
        assert n_f == 13


def _reference_minimize_nf(pattern, transform, ops):
    """Algorithm 1 charged op by op: per-offset ``apply``, the pairwise
    multiset, the histogram ``E`` and one charge per step of the ``N``
    search.  :func:`minimize_nf` charges in bulk and must match it exactly,
    category by category and in first-charge order."""
    z = [transform.apply(delta, ops) for delta in pattern.offsets]
    m = pattern.size
    if m == 1:
        return 1, z
    diffs = pairwise_differences(z, ops)
    max_diff = max(diffs)
    ops.compare(len(diffs))
    occurrences = [0] * (max_diff + 1)
    for d in diffs:
        occurrences[d] += 1
    n_f, k = m, 1
    while True:
        ops.mul()
        multiple = k * n_f
        ops.compare()
        if multiple > max_diff:
            return n_f, z
        ops.compare()
        ops.add()
        if occurrences[multiple] != 0:
            n_f, k = n_f + 1, 1
        else:
            k += 1


def _algorithm1_cases():
    for name, factory in sorted(BENCHMARKS.items()):
        yield name, factory()
    for index in range(64):
        case = generate_case(seed=20250808, index=index)
        yield f"verify-{index}", Pattern(case.offsets)
    yield "singleton", Pattern([(3, 3)])
    yield "dense-line", Pattern([(i,) for i in range(6)])
    # Sparse: candidates with more multiples below M than Q has members.
    yield "sparse-1d", Pattern([(0,), (5,), (97,), (300,)])
    yield "sparse-2d", Pattern([(0, 0), (0, 90), (70, 3)])


class TestBulkChargesMatchTheReference:
    @pytest.mark.parametrize("label, pattern", list(_algorithm1_cases()))
    def test_same_answer_and_same_charges(self, label, pattern):
        transform = derive_alpha(pattern)
        bulk, reference = OpCounter(), OpCounter()
        n_f, used, z = minimize_nf(pattern, transform=transform, ops=bulk)
        assert used is transform
        assert (n_f, z) == _reference_minimize_nf(pattern, transform, reference)
        assert list(bulk.counts.items()) == list(reference.counts.items()), label

    def test_huge_spread_is_searched_through_q(self):
        """M = 2^70: the pseudo code's 2^69 steps rejecting N = 2 and its
        2^70 // 3 + 1 steps accepting N = 3 are charged, not walked."""
        ops = OpCounter()
        n_f, _, _ = minimize_nf(Pattern([(0,), (1 << 70,)]), ops=ops)
        assert n_f == 3
        steps = (1 << 69) + (1 << 70) // 3 + 1
        assert ops.counts["mul"] == 2 + steps  # two for z, one per step


#: ``partition(p, ops=...).counts`` on the Table 1 patterns.  The totals
#: are the "ours" column of ``TestTable1OpsColumn``; these pin each
#: category, so a charge moved from one category to another fails here.
TABLE1_OPS_BY_CATEGORY = {
    "log": {"add": 16, "compare": 133, "mul": 29, "sub": 80},
    "canny": {"add": 27, "compare": 401, "mul": 52, "sub": 302},
    "prewitt": {"add": 11, "compare": 63, "mul": 19, "sub": 30},
    "se": {"add": 8, "compare": 33, "mul": 13, "sub": 12},
    "sobel3d": {"add": 56, "compare": 484, "mul": 82, "sub": 328},
    "median": {"add": 11, "compare": 54, "mul": 18, "sub": 23},
    "gaussian": {"add": 16, "compare": 83, "mul": 25, "sub": 38},
}

#: The ``ops`` of the ``solve.transform``, ``solve.qset_build`` and
#: ``solve.select_n`` spans of the same calls, with observability on.
TABLE1_PHASE_OPS = {
    "log": (96, 156, 6),
    "canny": (180, 600, 2),
    "prewitt": (61, 56, 6),
    "se": (40, 20, 6),
    "sobel3d": (294, 650, 6),
    "median": (54, 42, 10),
    "gaussian": (68, 72, 22),
}


class TestTable1OpsByCategory:
    @pytest.mark.parametrize("name", sorted(TABLE1_OPS_BY_CATEGORY))
    def test_category_counts(self, name):
        ops = OpCounter()
        partition(BENCHMARKS[name](), ops=ops)
        assert ops.counts == TABLE1_OPS_BY_CATEGORY[name]

    @pytest.mark.parametrize("name", sorted(TABLE1_PHASE_OPS))
    def test_phase_span_ops(self, name):
        obs.enable()
        obs.reset()
        try:
            partition(BENCHMARKS[name](), ops=OpCounter())
            phases = {record.name: record.ops for record in obs.tracer().records()}
        finally:
            obs.reset()
            obs.reset_from_env()
        got = tuple(
            phases[phase]
            for phase in ("solve.transform", "solve.qset_build", "solve.select_n")
        )
        assert got == TABLE1_PHASE_OPS[name]
        assert phases["solve.minimize_nf"] == sum(got)


class TestFastNc:
    def test_paper_example(self):
        # Nf = 13, Nmax = 10 -> F = 2, Nc = 7.
        assert fast_nc(13, 10) == (7, 2)

    def test_no_constraint_hit(self):
        assert fast_nc(5, 10) == (5, 1)

    def test_equal_boundary(self):
        assert fast_nc(10, 10) == (10, 1)

    def test_tight_constraint(self):
        # Nf = 27, Nmax = 4 -> F = 7, Nc = 4.
        assert fast_nc(27, 4) == (4, 7)

    def test_rounds_cover_all_banks(self):
        for n_f in range(1, 40):
            for n_max in range(1, 20):
                n_c, rounds = fast_nc(n_f, n_max)
                assert n_c <= n_max
                assert n_c * rounds >= n_f

    def test_rejects_bad_nmax(self):
        with pytest.raises(ValueError):
            fast_nc(13, 0)


class TestSameSizeSweep:
    def test_paper_case_study_row(self):
        sweep = same_size_sweep(log_pattern(), 10)
        assert sweep.conflicts_by_n[1:] == (13, 9, 5, 6, 5, 3, 2, 3, 2, 3)

    def test_candidates_7_and_9(self):
        sweep = same_size_sweep(log_pattern(), 10)
        assert sweep.best_candidates == (7, 9)
        assert sweep.best_n == 7
        assert sweep.delta_ii == 1

    def test_n1_conflicts_equal_m(self, all_benchmarks):
        for _, pattern in all_benchmarks:
            sweep = same_size_sweep(pattern, 1)
            assert sweep.conflicts_by_n[1] == pattern.size

    def test_same_size_nc_wrapper(self):
        assert same_size_nc(log_pattern(), 10) == (7, 1)

    def test_rejects_bad_nmax(self):
        with pytest.raises(ValueError):
            same_size_sweep(log_pattern(), 0)

    def test_mode_bound(self):
        """deltaP|N+1 is at least ceil(m / N) for any N."""
        sweep = same_size_sweep(log_pattern(), 13)
        m = log_pattern().size
        for n in range(1, 14):
            assert sweep.conflicts_by_n[n] >= -(-m // n)


class TestPartition:
    def test_unconstrained(self, log_solution):
        assert log_solution.n_banks == 13
        assert log_solution.delta_ii == 0
        assert log_solution.scheme == "direct"

    def test_paper_bank_indices(self):
        solution = partition(log_pattern().translated((2, 2)))
        banks = [solution.bank_of(d) for d in solution.pattern.offsets]
        assert banks == [1, 5, 6, 7, 9, 10, 11, 12, 0, 2, 3, 4, 8]

    def test_constrained_same_size(self):
        solution = partition(log_pattern(), n_max=10)
        assert solution.n_banks == 7
        assert solution.delta_ii == 1
        assert solution.n_unconstrained == 13

    def test_constrained_fast(self):
        solution = partition(log_pattern(), n_max=10, same_size=False)
        assert solution.n_banks == 7
        assert solution.scheme == "two-level"
        assert solution.delta_ii == 1

    def test_slack_constraint_keeps_nf(self):
        solution = partition(log_pattern(), n_max=20)
        assert solution.n_banks == 13
        assert solution.delta_ii == 0

    def test_two_level_bank_indices_within_range(self):
        solution = partition(log_pattern(), n_max=10, same_size=False)
        banks = solution.bank_indices()
        assert all(0 <= b < 7 for b in banks)

    def test_two_level_at_most_two_per_bank(self):
        solution = partition(log_pattern(), n_max=10, same_size=False)
        banks = solution.bank_indices()
        assert max(banks.count(b) for b in set(banks)) <= 2

    def test_cycles_per_access(self):
        assert partition(log_pattern()).cycles_per_access == 1
        assert partition(log_pattern(), n_max=10).cycles_per_access == 2

    def test_bank_indices_offset_invariant(self, log_solution):
        base = log_solution.bank_indices()
        histogram = sorted(base)
        for offset in [(1, 0), (0, 1), (5, 7)]:
            shifted = log_solution.bank_indices(offset)
            # conflict structure (multiset cardinalities) is preserved
            assert len(set(shifted)) == len(set(base))
        assert len(set(histogram)) == 13
