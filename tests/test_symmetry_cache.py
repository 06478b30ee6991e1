"""Symmetry quotient: orbit-invariant keys, warm hits bit-equal to cold solves.

Satellite of the canonicalization tentpole: these are the property tests
over the verify generator's strata — ``canonical_key(p) == canonical_key(T(p))``
for random compositions of translation, reflection, and leading-axis
permutation, and a symmetry-op cache hit that is field-for-field equal to
a cold solve of the very same variant.
"""

from __future__ import annotations

import dataclasses
import importlib

import pytest

from repro.core import solve, solve_cache
from repro.core.cache import (
    MAX_SYMMETRY_NDIM,
    SymmetryOp,
    canonical_key,
    canonicalize,
    solve_key,
)
from repro.core.pattern import Pattern
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


def _key(pattern, shape, n_max):
    return canonical_key(pattern, shape, n_max, "latency", 0)


class TestCanonicalKeyOrbitInvariance:
    @pytest.mark.parametrize("kind", ["reflection", "permutation", "composed"])
    def test_variants_share_the_key_across_strata(self, kind):
        """``canonical_key(p) == canonical_key(T(p))`` for every T tried."""
        checked = 0
        for pattern, shape, n_max in _strata_cases():
            base = _key(pattern, shape, n_max)
            for tag, variant, v_shape in symmetry_variants(
                pattern, shape, kind, seed=3, count=4
            ):
                assert _key(variant, v_shape, n_max) == base, (tag, pattern)
                checked += 1
        # permutation yields nothing for the 2-D strata — but across 8
        # generated cases some must be >= 3-D, so the property is never
        # vacuous for any kind.
        assert checked > 0

    def test_random_composition_chain_is_key_stable(self):
        """Compositions of compositions stay on the same orbit key."""
        base = _key(CORNER, (16, 16), 8)
        frontier = [(CORNER, (16, 16))]
        for seed in range(4):
            nxt = []
            for pattern, shape in frontier:
                for _tag, variant, v_shape in symmetry_variants(
                    pattern, shape, "composed", seed=seed, count=2
                ):
                    assert _key(variant, v_shape, 8) == base
                    nxt.append((variant, v_shape))
            frontier = nxt[:3]  # keep the chain bounded but deep

    def test_canonical_key_never_collides_with_pinned_solve_key(self):
        """Distinct tag: the store's ``solve_key`` digests stay untouched."""
        assert _key(CORNER, (16, 16), 8) != solve_key(
            CORNER, (16, 16), 8, "latency", 0
        )

    def test_beyond_max_ndim_falls_back_to_translation(self):
        """5-D would cost ``4!·2^5`` candidates; the op must be identity."""
        offsets = ((0,) * 5, (1, 0, 1, 0, 1))
        assert len(offsets[0]) > MAX_SYMMETRY_NDIM
        canon, op = canonicalize(Pattern(offsets))
        assert op.is_identity
        assert canon.offsets == Pattern(offsets).normalized().offsets

    def test_canonicalize_is_deterministic_across_calls(self):
        first = canonicalize(CORNER)
        second = canonicalize(CORNER)
        assert first[0].offsets == second[0].offsets
        assert first[1] == second[1]


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

    @pytest.mark.parametrize("kind", ["reflection", "composed"])
    def test_symmetry_hit_is_field_for_field_a_cold_solve(self, kind, count_solves):
        """A hit through a non-identity op must be indistinguishable from
        a cold solve of the caller's own variant — same ``α`` signs, same
        axis order, same pattern identity, everything."""
        for pattern, shape, n_max in list(_strata_cases())[:4]:
            solve_cache.clear()
            solve(pattern, shape, n_max=n_max)
            base_calls = count_solves["n"]
            for tag, variant, v_shape in symmetry_variants(
                pattern, shape, kind, seed=11, count=2
            ):
                cold = solve(variant, v_shape, n_max=n_max, cache=False)
                calls_after_cold = count_solves["n"]
                warm = solve(variant, v_shape, n_max=n_max)
                # The warm call answered from cache: zero new solver runs.
                assert count_solves["n"] == calls_after_cold, tag
                assert self._fields(warm.solution) == self._fields(
                    cold.solution
                ), (tag, pattern)
            assert count_solves["n"] >= base_calls

    def test_reflected_request_hits_the_original_entry(self, count_solves):
        solve(CORNER, (16, 16), n_max=8)
        reflected = CORNER.reflected((0, 1)).normalized()
        result = solve(reflected, (16, 16), n_max=8)
        assert count_solves["n"] == 1
        assert result.solution.pattern.offsets == reflected.offsets
        # A reflected hit re-signs alpha; |alpha[-1]| must stay 1 (S4.4).
        assert abs(result.solution.transform.alpha[-1]) == 1

    def test_permuted_3d_request_hits_the_original_entry(self, count_solves):
        base = Pattern(((0, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)), name="slab")
        solve(base, (6, 8, 10), n_max=8)
        permuted = base.permuted((1, 0, 2))
        result = solve(permuted, (8, 6, 10), n_max=8)
        assert count_solves["n"] == 1
        assert result.solution.pattern.offsets == permuted.offsets
        cold = solve(permuted, (8, 6, 10), n_max=8, cache=False)
        assert self.__class__._fields(result.solution) == self.__class__._fields(
            cold.solution
        )

    def test_hit_re_attaches_caller_name(self, count_solves):
        """Names ride along even when offsets coincide (the serve-tier leak)."""
        a = Pattern(CORNER.offsets, name="requester-a")
        b = Pattern(CORNER.offsets, name="requester-b")
        first = solve(a, (16, 16), n_max=8)
        second = solve(b, (16, 16), n_max=8)
        assert count_solves["n"] == 1
        assert first.solution.pattern.name == "requester-a"
        assert second.solution.pattern.name == "requester-b"


class TestSymmetryOpAlgebra:
    def test_identity_op_properties(self):
        op = SymmetryOp(perm=(0, 1), flips=(False, False))
        assert op.is_identity
        assert op.shape_to_canonical((4, 9)) == (4, 9)

    def test_shape_permutes_through_leading_axes(self):
        op = SymmetryOp(perm=(1, 0, 2), flips=(False, True, False))
        assert not op.is_identity
        assert op.shape_to_canonical((4, 9, 16)) == (9, 4, 16)
        # The innermost extent — the one solve keys depend on — is pinned.
        assert op.shape_to_canonical((4, 9, 16))[-1] == 16
