"""The oracle catalog: coverage, crash handling, serialization."""

from __future__ import annotations

import pytest

from repro.verify import CaseSpec, OracleFailure, ORACLE_NAMES, run_oracles
from repro.verify.oracles import LTB_MAX_NDIM, LTB_MAX_SIZE


def _case(**overrides):
    payload = {
        "seed": 0,
        "index": 0,
        "label": "unit",
        "offsets": [[0, 1], [1, 0], [1, 1], [1, 2], [2, 1]],
        "shape": [8, 9],
        "n_max": None,
        "scheme": "same-size",
    }
    payload.update(overrides)
    return CaseSpec.from_dict(payload)


class TestCoverage:
    def test_small_case_runs_every_oracle(self):
        outcome = run_oracles(_case())
        assert outcome.ok, outcome.failures
        assert set(outcome.checked) == set(ORACLE_NAMES)

    def test_two_level_case_is_clean(self):
        outcome = run_oracles(_case(n_max=4, scheme="two-level"))
        assert outcome.ok, outcome.failures

    def test_same_size_sweep_case_is_clean(self):
        outcome = run_oracles(_case(n_max=4, scheme="same-size"))
        assert outcome.ok, outcome.failures

    def test_large_pattern_skips_only_the_ltb_oracle(self):
        # Nine points > LTB_MAX_SIZE: the exhaustive-search cross-check is
        # cost-gated out, everything else still runs.
        offsets = [[i, j] for i in range(3) for j in range(3)]
        assert len(offsets) > LTB_MAX_SIZE
        outcome = run_oracles(_case(offsets=offsets, shape=[6, 6]))
        assert outcome.ok, outcome.failures
        assert set(outcome.checked) == set(ORACLE_NAMES) - {"ltb_differential"}

    def test_4d_case_skips_only_the_ltb_oracle(self):
        assert 4 > LTB_MAX_NDIM
        outcome = run_oracles(
            _case(
                offsets=[[0, 0, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1]],
                shape=[3, 3, 3, 3],
            )
        )
        assert outcome.ok, outcome.failures
        assert set(outcome.checked) == set(ORACLE_NAMES) - {"ltb_differential"}

    def test_single_point_pattern_is_clean(self):
        outcome = run_oracles(_case(offsets=[[0, 0]], shape=[4, 4]))
        assert outcome.ok, outcome.failures

    def test_one_bank_ceiling_is_clean(self):
        outcome = run_oracles(_case(n_max=1, scheme="two-level"))
        assert outcome.ok, outcome.failures


class TestSolvePaths:
    #: ``chiral_f``: no reflection maps it onto itself, and its axis-0
    #: mirror needs 8 banks where it needs 7.
    CHIRAL_F = [[0, 1], [0, 2], [1, 0], [1, 1], [2, 1]]

    @pytest.mark.parametrize("n_max", [None, 5])
    def test_chiral_case_is_clean(self, n_max):
        outcome = run_oracles(_case(offsets=self.CHIRAL_F, n_max=n_max))
        assert outcome.ok, outcome.failures
        assert "solve_paths" in outcome.checked

    def test_a_reflecting_canonicalizer_fails_solve_paths(self, monkeypatch):
        """Fault injection: a canonicalizer that solves the mirror instead
        of the translate gives an answer ``partition`` does not."""
        from repro.core import cache as cache_mod

        def reflecting(pattern):
            return pattern.reflected((0,)).normalized().with_name(pattern.name)

        monkeypatch.setattr(cache_mod, "canonicalize", reflecting)
        outcome = run_oracles(_case(offsets=self.CHIRAL_F))
        assert {f.oracle for f in outcome.failures} == {"solve_paths"}
        assert any("partition" in f.message for f in outcome.failures)


class TestCrashWrapping:
    def test_solver_exception_becomes_crash_failure(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("injected solver crash")

        monkeypatch.setattr("repro.verify.oracles.partition", boom)
        outcome = run_oracles(_case())
        assert not outcome.ok
        assert outcome.checked == ("crash",)
        [failure] = outcome.failures
        assert failure.oracle == "crash"
        assert "injected solver crash" in failure.message

    def test_oracle_exception_becomes_its_own_failure(self, monkeypatch):
        def boom(ctx):
            raise RuntimeError("oracle blew up")

        monkeypatch.setitem(
            __import__("repro.verify.oracles", fromlist=["ORACLES"]).ORACLES,
            "mapping",
            boom,
        )
        outcome = run_oracles(_case())
        assert not outcome.ok
        [failure] = outcome.failures
        assert failure.oracle == "mapping"
        assert "oracle blew up" in failure.message


class TestSerialization:
    def test_failure_round_trip(self):
        failure = OracleFailure(oracle="delta_claim", message="shift 3 needs 4")
        assert OracleFailure.from_dict(failure.to_dict()) == failure

    def test_outcome_ok_property(self):
        outcome = run_oracles(_case())
        assert outcome.ok is True
        assert outcome.failures == []
