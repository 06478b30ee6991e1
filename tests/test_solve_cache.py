"""Canonical solve cache: keys, hits, escape hatches, warm-sweep reuse."""

from __future__ import annotations

import dataclasses
import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Objective, partition, solve, solve_cache
from repro.core.cache import (
    DEFAULT_MAXSIZE,
    SolveCache,
    canonical_key,
    canonical_solve_digest,
    canonical_solve_key,
    canonicalize,
    partition_key,
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
        assert canonical_key(base, (64, 64), 8, "latency", 0) == canonical_key(
            shifted, (64, 64), 8, "latency", 0
        )

    def test_solve_key_tail_only_shape_dependence(self):
        """Overhead depends only on ``w_{n-1}`` — rows don't split entries."""
        p = log_pattern()
        assert canonical_key(p, (64, 48), 8, "latency", 0) == canonical_key(
            p, (640, 48), 8, "latency", 0
        )
        assert canonical_key(p, (64, 48), 8, "latency", 0) != canonical_key(
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
        assert partition_key(p, 8, True) != canonical_key(p, None, 8, "latency", 0)


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
    #: next — changing ``canonical_key`` or the canonical JSON encoding is a
    #: store-format break and must show up here.
    GOLDEN_LOG = "db875ec916f4171ab203226d9c0f79090b2db7e98da2b8cefac13a08dd9c6839"

    def test_golden_value_is_stable(self):
        key = canonical_key(log_pattern(), (640, 480), 10, "latency", 0)
        assert stable_digest(key) == self.GOLDEN_LOG

    def test_digest_is_hex_sha256(self):
        digest = stable_digest(canonical_key(se_pattern(), None, 8, "latency", 0))
        assert len(digest) == 64
        int(digest, 16)  # must parse as hex

    def test_translation_and_tail_invariance_carry_over(self):
        base = canonical_key(log_pattern(), (640, 480), 10, "latency", 0)
        shifted = Pattern(tuple((r + 9, c + 4) for r, c in log_pattern().offsets))
        assert stable_digest(canonical_key(shifted, (640, 480), 10, "latency", 0)) == (
            stable_digest(base)
        )
        # Only the innermost extent enters the key, so (64, 480) agrees too.
        assert stable_digest(canonical_key(log_pattern(), (64, 480), 10, "latency", 0)) == (
            stable_digest(base)
        )

    def test_distinct_specs_get_distinct_digests(self):
        digests = {
            stable_digest(canonical_key(log_pattern(), (640, 480), n, "latency", d))
            for n, d in [(10, 0), (9, 0), (10, 1), (None, 0)]
        }
        digests.add(stable_digest(canonical_key(log_pattern(), None, 10, "banks", 0)))
        assert len(digests) == 5

    def test_round_trip_through_io_preserves_digest(self):
        """A pattern serialized and reloaded keys the same store entry."""
        original = se_pattern()
        reloaded = pattern_from_dict(pattern_to_dict(original))
        assert stable_digest(canonical_key(original, (64, 64), 8, "latency", 0)) == (
            stable_digest(canonical_key(reloaded, (64, 64), 8, "latency", 0))
        )

    def test_tuples_and_lists_digest_identically(self):
        """JSON has no tuples; the canonical encoding must not care."""
        assert stable_digest((1, (2, 3))) == stable_digest([1, [2, 3]])

    def test_non_canonical_keys_are_rejected(self):
        with pytest.raises(TypeError):
            stable_digest(object())
        with pytest.raises((TypeError, ValueError)):
            stable_digest(float("nan"))
        with pytest.raises(TypeError):
            stable_digest({1: "a"})  # JSON would silently write {"1":"a"}


CHIRAL_F = Pattern(((0, 1), (0, 2), (1, 0), (1, 1), (2, 1)), name="chiral_f")
SKEW_3D = Pattern([(0, 0, 0), (0, 1, 2), (1, 0, 1), (2, 1, 0)], name="skew3d")


class TestCanonicalDigest:
    """The translation-class digest that names every served store artifact.

    Each golden value pins both encodings of one canonical key: the
    direct one the server uses and :func:`stable_digest`'s walk.
    """

    @pytest.mark.parametrize(
        "pattern, shape, n_max, objective, delta_max, golden",
        [
            (
                log_pattern(), (640, 480), None, "latency", 0,
                "b1b395500d9c2b1b05189f542e036820b30267236944d0993a9324377b8d98ad",
            ),
            (
                CHIRAL_F, (1080, 1920), 3, "banks", 1,
                "478ccbca4e383c9ae320d5ba5859fb4358444815af8e0e10a85731d05afc27f2",
            ),
            (
                CHIRAL_F.translated((-4, 9)), (1080, 1920), 3, "banks", 1,
                "478ccbca4e383c9ae320d5ba5859fb4358444815af8e0e10a85731d05afc27f2",
            ),
            (
                SKEW_3D, (16, 24, 60), 12, "storage", 0,
                "63288fbadf0f4e677239c7607f5c31212f45a1902e42382ffa306af5124e80a5",
            ),
            (
                SKEW_3D.translated((5, -3, 2)), (16, 24, 60), 12, "storage", 0,
                "63288fbadf0f4e677239c7607f5c31212f45a1902e42382ffa306af5124e80a5",
            ),
            (
                Pattern([(0,), (1,), (3,), (7,)]), None, None, "latency", 0,
                "ab42de3c9fb096a86bf5ebbe82be31906934df439d1066fb908c7d3178743c23",
            ),
        ],
        ids=["log", "chiral-f", "chiral-f-translated", "3d-storage", "3d-storage-moved", "1d-no-shape"],
    )
    def test_golden_values(self, pattern, shape, n_max, objective, delta_max, golden):
        key = canonical_key(pattern, shape, n_max, objective, delta_max)
        assert canonical_solve_digest(key) == golden
        assert stable_digest(key) == golden

    @given(
        offsets=st.integers(1, 4).flatmap(
            lambda ndim: st.sets(
                st.tuples(*[st.integers(-(2**40), 2**40)] * ndim), min_size=1, max_size=8
            )
        ),
        tail=st.none() | st.integers(1, 2**40),
        n_max=st.none() | st.integers(1, 2**40),
        objective=st.sampled_from([o.value for o in Objective]),
        delta_max=st.integers(0, 2**20),
    )
    @settings(max_examples=150, deadline=None)
    def test_direct_encoding_matches_stable_digest(
        self, offsets, tail, n_max, objective, delta_max
    ):
        canon = canonicalize(Pattern(offsets))
        key = canonical_solve_key(canon.offsets, tail, n_max, objective, delta_max)
        assert canonical_solve_digest(key) == stable_digest(key)
