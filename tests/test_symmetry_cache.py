"""Translation quotient: translate-invariant keys, warm hits bit-equal to cold solves.

The solve cache identifies a pattern with its translates and with nothing
else: ``canonical_key(p) == canonical_key(p + s)`` for every shift ``s``
over the verify generator's strata, and a cache hit is field-for-field a
cold solve of the caller's own pattern.  Mirrored and axis-permuted copies
(the generator's symmetry variants) are patterns of their own, each solved
on its own offsets.
"""

from __future__ import annotations

import importlib
import random

import pytest

from repro.core import cache as cache_mod
from repro.core import solve, solve_cache
from repro.core.cache import canonical_key, canonicalize
from repro.core.pattern import Pattern
from repro.patterns.library import BENCHMARKS
from repro.verify.gen import generate_case, symmetry_variants

#: Chiral 2-D pattern: no reflection or permutation maps it onto itself,
#: so every symmetry variant is a genuinely different offset set.
CORNER = Pattern(((0, 0), (0, 1), (1, 0)), name="corner")

#: Verify-strata cases the properties quantify over (all four strata).
CASE_INDICES = tuple(range(8))


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


def _strata_cases():
    """Pattern/shape/n_max triples drawn from the fuzz generator's strata."""
    for index in CASE_INDICES:
        case = generate_case(seed=20250808, index=index)
        yield Pattern(case.offsets), case.shape, case.n_max


def _translates(pattern, seed, count):
    """``count`` seeded translates of ``pattern``, shifts in [-9, 9] per axis."""
    rng = random.Random(f"repro-test:translate:{seed}")
    return [
        pattern.translated(tuple(rng.randint(-9, 9) for _ in range(pattern.ndim)))
        for _ in range(count)
    ]


def _key(pattern, shape, n_max):
    return canonical_key(pattern, shape, n_max, "latency", 0)


class TestCanonicalKeyOrbitInvariance:
    def test_variants_share_the_key_across_strata(self):
        """``canonical_key(p) == canonical_key(p + s)`` for every shift tried."""
        dims = set()
        for pattern, shape, n_max in _strata_cases():
            base = _key(pattern, shape, n_max)
            for moved in _translates(pattern, seed=3, count=4):
                assert _key(moved, shape, n_max) == base, (moved, pattern)
            dims.add(pattern.ndim)
        assert len(dims) > 1

    def test_random_composition_chain_is_key_stable(self):
        """Translates of translates stay on the same key."""
        base = _key(CORNER, (16, 16), 8)
        frontier = [CORNER]
        for seed in range(4):
            frontier = [
                moved
                for pattern in frontier
                for moved in _translates(pattern, seed=seed, count=2)
            ][:3]  # keep the chain bounded but deep
            for pattern in frontier:
                assert _key(pattern, (16, 16), 8) == base

    def test_mirrored_and_permuted_copies_have_their_own_keys(self):
        slab = Pattern(((0, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)), name="slab")
        for pattern, shape in ((CORNER, (16, 16)), (slab, (6, 8, 10))):
            base = _key(pattern, shape, 8)
            variants = [
                (variant, v_shape)
                for kind in ("reflection", "permutation")
                for _tag, variant, v_shape in symmetry_variants(pattern, shape, kind)
            ]
            assert variants
            for variant, v_shape in variants:
                assert _key(variant, v_shape, 8) != base, variant

    def test_canonicalize_is_deterministic_across_calls(self):
        first = canonicalize(CORNER.translated((4, -1)))
        second = canonicalize(CORNER.translated((4, -1)))
        assert first.offsets == second.offsets == CORNER.offsets


class TestCanonicalMemoSeed:
    """Canonicalizing also memoizes the representative, mapped to itself."""

    def test_seeded_answer_equals_a_fresh_walk_across_strata(self):
        """``canonicalize(canon)`` answered from the seed is what a fresh
        canonicalization of ``canon`` with an empty memo returns: the
        normalized pattern, for 1-D to 4-D cases of all four strata."""
        dims = set()
        for index in range(16):
            case = generate_case(seed=20250808, index=index)
            pattern = Pattern(case.offsets)
            for variant in [pattern] + _translates(pattern, seed=index, count=2):
                cache_mod._canon_memo.clear()
                canon = canonicalize(variant)
                assert canon.offsets in cache_mod._canon_memo
                seeded = canonicalize(canon)
                cache_mod._canon_memo.clear()
                fresh = canonicalize(canon)
                assert seeded.offsets == fresh.offsets == canon.offsets
                assert canon.offsets == variant.normalized().offsets
            dims.add(pattern.ndim)
        assert dims == {1, 2, 3, 4}

    def test_solving_a_canonical_pattern_walks_no_orbit(self, monkeypatch):
        """The server solves the canonical spec it computed: the solver's
        own ``canonicalize`` of it is a memo hit, not a second normalization."""
        cache_mod._canon_memo.clear()
        calls = {"n": 0}
        real = Pattern.normalized

        def counting(self):
            calls["n"] += 1
            return real(self)

        monkeypatch.setattr(Pattern, "normalized", counting)
        canon = canonicalize(CORNER.translated((3, 4)))
        assert calls["n"] == 1  # a new pattern is normalized once
        solve(canon, (16, 16), n_max=8, cache=False)
        assert calls["n"] == 1


class TestOnePassOrbit:
    """``canonicalize`` is ``Pattern.normalized``, memoized.

    Every pattern maps to its own normalized offsets; mirrored and
    permuted copies keep theirs.
    """

    def test_verify_strata_and_their_symmetry_variants(self):
        dims = set()
        for index in range(32):
            case = generate_case(seed=20250808, index=index)
            pattern = Pattern(case.offsets)
            variants = [pattern] + [
                variant
                for kind in ("reflection", "permutation", "composed")
                for _tag, variant, _shape in symmetry_variants(
                    pattern, case.shape, kind, seed=index, count=2
                )
            ]
            for variant in variants:
                cache_mod._canon_memo.clear()
                assert canonicalize(variant).offsets == variant.normalized().offsets
            dims.add(pattern.ndim)
        assert dims == {1, 2, 3, 4}

    @pytest.mark.parametrize("name", ["log", "canny", "sobel3d"])
    def test_far_translated_patterns(self, name):
        """Only the bounding box is capped at admission, so offsets near
        2^70 with a small spread reach ``canonicalize``."""
        base = BENCHMARKS[name]()
        shift = ((1 << 70) + 3, -(1 << 70), 1 << 69)[: base.ndim]
        far = base.translated(shift)
        assert canonicalize(far).offsets == canonicalize(base).offsets
        assert canonicalize(far).offsets == base.normalized().offsets

    def test_extents_past_int64_sort_exactly(self):
        for offsets, normalized in (
            (((0, 0), ((1 << 64) + 1, 1), (3, 1 << 66)),
             ((0, 0), (3, 1 << 66), ((1 << 64) + 1, 1))),
            (((0,), (1 << 65,), (7,)), ((0,), (7,), (1 << 65,))),
            (((0, 0, 5), (1 << 63, 2, 0), (1, 1 << 64, 1)),
             ((0, 0, 5), (1, 1 << 64, 1), (1 << 63, 2, 0))),
        ):
            assert canonicalize(Pattern(offsets)).offsets == normalized

    def test_a_hit_relabels_the_memoized_pattern(self):
        cache_mod._canon_memo.clear()
        first = canonicalize(Pattern(CORNER.offsets, name="a"))
        second = canonicalize(Pattern(CORNER.offsets, name="b"))
        assert (first.name, second.name) == ("a", "b")
        assert second.offsets is first.offsets


class TestWarmHitEqualsColdSolve:
    @staticmethod
    def _fields(solution):
        return {
            "offsets": solution.pattern.offsets,
            "name": solution.pattern.name,
            "alpha": solution.transform.alpha,
            "extents": solution.transform.extents,
            "n_banks": solution.n_banks,
            "n_unconstrained": solution.n_unconstrained,
            "delta_ii": solution.delta_ii,
            "scheme": solution.scheme,
            "algorithm": solution.algorithm,
        }

    def test_symmetry_hit_is_field_for_field_a_cold_solve(self, count_solves):
        """A hit on a translate must be indistinguishable from a cold solve
        of the caller's own translate — same ``α``, same pattern identity,
        everything."""
        for pattern, shape, n_max in list(_strata_cases())[:4]:
            solve_cache.clear()
            solve(pattern, shape, n_max=n_max)
            for moved in _translates(pattern, seed=11, count=2):
                cold = solve(moved, shape, n_max=n_max, cache=False)
                calls_after_cold = count_solves["n"]
                warm = solve(moved, shape, n_max=n_max)
                # The warm call answered from cache: zero new solver runs.
                assert count_solves["n"] == calls_after_cold, moved
                assert self._fields(warm.solution) == self._fields(
                    cold.solution
                ), (moved, pattern)

    def test_mirrored_and_permuted_requests_solve_on_their_own_offsets(
        self, count_solves
    ):
        mirrored = CORNER.reflected((0,))
        assert solve(CORNER, (16, 16), n_max=8).solution.n_banks == 3
        result = solve(mirrored, (16, 16), n_max=8)
        assert count_solves["n"] == 2
        assert result.solution.n_banks == 4  # the paper's answer for the mirror
        slab = Pattern(((0, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)), name="slab")
        solve(slab, (6, 8, 10), n_max=8)
        permuted = slab.permuted((1, 0, 2))
        result = solve(permuted, (8, 6, 10), n_max=8)
        assert count_solves["n"] == 4
        cold = solve(permuted, (8, 6, 10), n_max=8, cache=False)
        assert self._fields(result.solution) == self._fields(cold.solution)

    def test_hit_re_attaches_caller_name(self, count_solves):
        """Names ride along even when offsets coincide (the serve-tier leak)."""
        a = Pattern(CORNER.offsets, name="requester-a")
        b = Pattern(CORNER.offsets, name="requester-b")
        first = solve(a, (16, 16), n_max=8)
        second = solve(b, (16, 16), n_max=8)
        assert count_solves["n"] == 1
        assert first.solution.pattern.name == "requester-a"
        assert second.solution.pattern.name == "requester-b"
