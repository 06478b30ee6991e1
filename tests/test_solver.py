"""Unit tests for repro.core.solver (Problem 1 objective orders)."""

import pytest

from repro.core import Objective, partition, solve
from repro.errors import InfeasibleConstraintError
from repro.patterns import log_pattern, se_pattern


class TestLatencyObjective:
    def test_unconstrained_matches_algorithm1(self):
        result = solve(log_pattern())
        assert result.objective_vector == (0, 13, 0)

    def test_constrained_picks_smallest_minimal_delta(self):
        result = solve(log_pattern(), n_max=10)
        assert result.solution.n_banks == 7  # tied candidates {7, 9}
        assert result.solution.delta_ii == 1

    def test_shape_materializes_mapping(self):
        result = solve(log_pattern(), shape=(12, 14))
        assert result.mapping is not None
        assert result.overhead_elements == result.mapping.overhead_elements

    def test_no_shape_no_mapping(self):
        result = solve(log_pattern())
        assert result.mapping is None
        assert result.overhead_elements == 0


class TestBanksObjective:
    def test_default_budget_zero_gives_nf(self):
        result = solve(log_pattern(), objective=Objective.BANKS)
        assert result.solution.n_banks == 13
        assert result.solution.delta_ii == 0

    def test_budget_one_allows_fewer_banks(self):
        result = solve(log_pattern(), objective=Objective.BANKS, delta_max=1)
        assert result.solution.n_banks == 7
        assert result.solution.delta_ii <= 1

    def test_budget_trades_banks_for_cycles(self):
        budgets = {}
        for delta_max in range(0, 13):
            result = solve(log_pattern(), objective=Objective.BANKS, delta_max=delta_max)
            budgets[delta_max] = result.solution.n_banks
        # monotone: looser budget can never need more banks
        values = [budgets[d] for d in sorted(budgets)]
        assert values == sorted(values, reverse=True)
        assert budgets[12] == 1  # a single bank serves with delta = m - 1

    def test_infeasible_budget(self):
        with pytest.raises(InfeasibleConstraintError):
            solve(log_pattern(), objective=Objective.BANKS, n_max=3, delta_max=1)

    def test_negative_budget_rejected(self):
        with pytest.raises(InfeasibleConstraintError):
            solve(log_pattern(), objective=Objective.BANKS, delta_max=-1)


class TestStorageObjective:
    def test_requires_shape(self):
        with pytest.raises(InfeasibleConstraintError):
            solve(log_pattern(), objective=Objective.STORAGE)

    def test_zero_overhead_guaranteed(self):
        result = solve(log_pattern(), shape=(64, 48), objective=Objective.STORAGE)
        assert result.overhead_elements == 0
        assert 48 % result.solution.n_banks == 0

    def test_minimizes_delta_among_divisors(self):
        # Divisors of 14 up to nmax=10: 1, 2, 7.  From the sweep row,
        # conflicts are 13, 9, 2 -> N = 7 wins with delta = 1.
        result = solve(
            log_pattern(), shape=(16, 14), n_max=10, objective=Objective.STORAGE
        )
        assert result.solution.n_banks == 7
        assert result.solution.delta_ii == 1
        assert result.overhead_elements == 0

    def test_nmax_filters_divisors(self):
        with pytest.raises(InfeasibleConstraintError):
            # 13 is prime; only divisor <= 5 is 1... 1 is allowed, so use a
            # ceiling of 0 to truly empty the candidate set.
            solve(log_pattern(), shape=(16, 13), n_max=0, objective=Objective.STORAGE)

    def test_divisor_walk_stops_at_the_ceiling(self):
        # Only divisors <= n_max are candidates, so a 2^40-wide array with
        # n_max=16 walks 16 values, not 2^40.
        wide = solve(
            log_pattern(), shape=(16, 1 << 40), n_max=16, objective=Objective.STORAGE
        )
        narrow = solve(log_pattern(), shape=(16, 16), n_max=16, objective=Objective.STORAGE)
        assert wide.solution == narrow.solution
        assert wide.overhead_elements == 0

    def test_prime_dimension_falls_back_to_single_bank(self):
        result = solve(log_pattern(), shape=(16, 13), n_max=5, objective=Objective.STORAGE)
        assert result.solution.n_banks == 1
        assert result.solution.delta_ii == log_pattern().size - 1


class TestConsistency:
    def test_latency_agrees_with_partition(self):
        via_solver = solve(log_pattern(), n_max=10).solution
        via_partition = partition(log_pattern(), n_max=10)
        assert via_solver.n_banks == via_partition.n_banks
        assert via_solver.delta_ii == via_partition.delta_ii

    def test_se_all_objectives_agree_when_unconstrained(self):
        for objective in (Objective.LATENCY, Objective.BANKS):
            result = solve(se_pattern(), objective=objective)
            assert result.solution.n_banks == 5

    def test_objective_vector_fields(self):
        result = solve(se_pattern(), shape=(10, 10))
        delta, banks, overhead = result.objective_vector
        assert (delta, banks, overhead) == (0, 5, 0)
