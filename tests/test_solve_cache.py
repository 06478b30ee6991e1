"""Canonical solve cache: keys, hits, escape hatches, warm-sweep reuse."""

from __future__ import annotations

import dataclasses
import importlib

import pytest

from repro.core import Objective, partition, solve, solve_cache
from repro.core.cache import (
    DEFAULT_MAXSIZE,
    SolveCache,
    partition_key,
    solve_key,
    stable_digest,
)
from repro.core.opcount import OpCounter
from repro.core.pattern import Pattern
from repro.eval.sweeps import overhead_vs_banks, throughput_vs_unroll
from repro.io import pattern_from_dict, pattern_to_dict
from repro.obs import metrics as obs_metrics
from repro.patterns import log_pattern, se_pattern


@pytest.fixture()
def count_solves(monkeypatch):
    """Count calls into the real solver body (cache misses only)."""
    solver_mod = importlib.import_module("repro.core.solver")

    calls = {"n": 0}
    real = solver_mod._solve_impl

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "_solve_impl", counting)
    return calls


@pytest.fixture()
def count_partitions(monkeypatch):
    # ``repro.core`` re-exports a ``partition`` *function*, shadowing the
    # submodule attribute — resolve the module itself for monkeypatching.
    partition_mod = importlib.import_module("repro.core.partition")

    calls = {"n": 0}
    real = partition_mod._partition_phases

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(partition_mod, "_partition_phases", counting)
    return calls


class TestSolveCacheBasics:
    def test_hit_and_miss_counters(self):
        cache = solve_cache.cache()
        assert (cache.hits, cache.misses) == (0, 0)
        first = solve(log_pattern(), n_max=8)
        assert (cache.hits, cache.misses) == (0, 1)
        second = solve(log_pattern(), n_max=8)
        assert (cache.hits, cache.misses) == (1, 1)
        assert first == second

    def test_registry_counters_mirrored(self):
        reg = obs_metrics.registry()
        reg.reset()
        solve(log_pattern(), n_max=8)
        solve(log_pattern(), n_max=8)
        counters = reg.snapshot()["counters"]
        assert counters["solve.cache.misses"] == 1
        assert counters["solve.cache.hits"] == 1

    def test_distinct_parameters_distinct_entries(self, count_solves):
        solve(log_pattern(), n_max=8)
        solve(log_pattern(), n_max=4)
        solve(log_pattern(), n_max=8, delta_max=2, objective=Objective.BANKS)
        assert count_solves["n"] == 3
        solve(log_pattern(), n_max=8)
        assert count_solves["n"] == 3

    def test_translated_pattern_hits(self, count_solves):
        """Theorem 1: a translate shares the canonical solution."""
        base = se_pattern()
        shifted = Pattern(
            tuple((r + 7, c + 11) for r, c in base.offsets), name="shifted"
        )
        original = solve(base, n_max=8)
        translated = solve(shifted, n_max=8)
        assert count_solves["n"] == 1
        assert translated.solution.n_banks == original.solution.n_banks
        # The cached hit is re-anchored to the *requesting* pattern.
        assert translated.solution.pattern == shifted
        assert original.solution.pattern == base

    def test_cache_false_bypasses(self, count_solves):
        solve(log_pattern(), n_max=8)
        solve(log_pattern(), n_max=8, cache=False)
        assert count_solves["n"] == 2
        assert solve_cache.cache().hits == 0

    def test_instrumented_calls_bypass(self, count_solves):
        """Op-counted solves must measure real work, never a lookup."""
        solve(log_pattern(), n_max=8)
        ops = OpCounter()
        solve(log_pattern(), n_max=8, ops=ops)
        assert count_solves["n"] == 2
        assert ops.total > 0

    def test_lru_eviction(self):
        cache = SolveCache(maxsize=2)
        sol = partition(log_pattern(), cache=False)
        cache.put("a", sol)
        cache.put("b", sol)
        cache.get("a", log_pattern())  # refresh "a"
        cache.put("c", sol)  # evicts "b"
        assert cache.get("b", log_pattern()) is None
        assert cache.get("a", log_pattern()) is not None
        assert cache.get("c", log_pattern()) is not None
        with pytest.raises(ValueError, match="maxsize"):
            SolveCache(maxsize=0)

    def test_eviction_counter_and_registry_mirror(self):
        reg = obs_metrics.registry()
        reg.reset()
        cache = SolveCache(maxsize=2)
        sol = partition(log_pattern(), cache=False)
        for key in ("a", "b", "c", "d"):
            cache.put(key, sol)
        assert cache.evictions == 2
        assert reg.snapshot()["counters"]["solve.cache.evictions"] == 2
        cache.clear()
        assert cache.evictions == 0

    def test_solves_evict_past_capacity(self, monkeypatch):
        assert solve_cache.cache().maxsize == DEFAULT_MAXSIZE
        cache = SolveCache(maxsize=2)
        monkeypatch.setattr(solve_cache, "_cache", cache)
        solve(log_pattern(), n_max=6)
        solve(log_pattern(), n_max=7)
        solve(log_pattern(), n_max=8)  # evicts the n_max=6 entry
        assert len(cache) == 2
        assert cache.evictions == 1

    def test_partition_cached_too(self, count_partitions):
        partition(log_pattern(), n_max=8)
        partition(log_pattern(), n_max=8)
        assert count_partitions["n"] == 1
        partition(log_pattern(), n_max=8, cache=False)
        assert count_partitions["n"] == 2


class TestCacheKeys:
    def test_solve_key_translation_invariant(self):
        base = se_pattern()
        shifted = Pattern(tuple((r + 3, c + 5) for r, c in base.offsets))
        assert solve_key(base, (64, 64), 8, "latency", 0) == solve_key(
            shifted, (64, 64), 8, "latency", 0
        )

    def test_solve_key_tail_only_shape_dependence(self):
        """Overhead depends only on ``w_{n-1}`` — rows don't split entries."""
        p = log_pattern()
        assert solve_key(p, (64, 48), 8, "latency", 0) == solve_key(
            p, (640, 48), 8, "latency", 0
        )
        assert solve_key(p, (64, 48), 8, "latency", 0) != solve_key(
            p, (64, 64), 8, "latency", 0
        )

    def test_partition_key_separates_modes(self):
        p = log_pattern()
        keys = {
            partition_key(p, 8, True),
            partition_key(p, 8, False),
            partition_key(p, 4, True),
        }
        assert len(keys) == 3
        assert partition_key(p, 8, True) != solve_key(p, None, 8, "latency", 0)


class TestWarmSweeps:
    def test_warm_overhead_vs_banks_makes_no_solve_calls(self, count_solves):
        """Acceptance: the second identical sweep is answered from cache."""
        shape = (64, 48)
        banks = range(4, 9)
        cold = overhead_vs_banks(shape, banks, pattern=log_pattern())
        cold_calls = count_solves["n"]
        assert cold_calls > 0
        warm = overhead_vs_banks(shape, banks, pattern=log_pattern())
        assert count_solves["n"] == cold_calls  # zero additional _solve_impl
        assert warm == cold

    def test_warm_unroll_sweep_makes_no_partition_calls(self, count_partitions):
        cold = throughput_vs_unroll(log_pattern(), (1, 2, 4))
        cold_calls = count_partitions["n"]
        assert cold_calls > 0
        warm = throughput_vs_unroll(log_pattern(), (1, 2, 4))
        assert count_partitions["n"] == cold_calls
        assert warm == cold

    def test_cached_solution_is_equivalent_not_aliased(self):
        first = partition(log_pattern(), n_max=8)
        second = partition(log_pattern(), n_max=8)
        assert first == second
        assert dataclasses.asdict(first) == dataclasses.asdict(second)


class TestStableDigest:
    """Cross-process identity: the hex digest the serve tier keys stores by."""

    #: Pinned so a store written by one release stays addressable by the
    #: next — changing ``solve_key`` or the canonical JSON encoding is a
    #: store-format break and must show up here.
    GOLDEN_LOG = "42dc572fbbcbc02bf8d365d19f25c6a890d399fae17d71dd92e5507e841175dd"

    def test_golden_value_is_stable(self):
        key = solve_key(log_pattern(), (640, 480), 10, "latency", 0)
        assert stable_digest(key) == self.GOLDEN_LOG

    def test_digest_is_hex_sha256(self):
        digest = stable_digest(solve_key(se_pattern(), None, 8, "latency", 0))
        assert len(digest) == 64
        int(digest, 16)  # must parse as hex

    def test_translation_and_tail_invariance_carry_over(self):
        base = solve_key(log_pattern(), (640, 480), 10, "latency", 0)
        shifted = Pattern(tuple((r + 9, c + 4) for r, c in log_pattern().offsets))
        assert stable_digest(solve_key(shifted, (640, 480), 10, "latency", 0)) == (
            stable_digest(base)
        )
        # Only the innermost extent enters the key, so (64, 480) agrees too.
        assert stable_digest(solve_key(log_pattern(), (64, 480), 10, "latency", 0)) == (
            stable_digest(base)
        )

    def test_distinct_specs_get_distinct_digests(self):
        digests = {
            stable_digest(solve_key(log_pattern(), (640, 480), n, "latency", d))
            for n, d in [(10, 0), (9, 0), (10, 1), (None, 0)]
        }
        digests.add(stable_digest(solve_key(log_pattern(), None, 10, "banks", 0)))
        assert len(digests) == 5

    def test_round_trip_through_io_preserves_digest(self):
        """A pattern serialized and reloaded keys the same store entry."""
        original = se_pattern()
        reloaded = pattern_from_dict(pattern_to_dict(original))
        assert stable_digest(solve_key(original, (64, 64), 8, "latency", 0)) == (
            stable_digest(solve_key(reloaded, (64, 64), 8, "latency", 0))
        )

    def test_tuples_and_lists_digest_identically(self):
        """JSON has no tuples; the canonical encoding must not care."""
        assert stable_digest((1, (2, 3))) == stable_digest([1, [2, 3]])

    def test_non_canonical_keys_are_rejected(self):
        with pytest.raises(TypeError):
            stable_digest(object())
        with pytest.raises((TypeError, ValueError)):
            stable_digest(float("nan"))
