"""Engine equivalence of the LTB search: scalar vs native.

The compiled engine must be indistinguishable from the published scalar
enumeration in every observable: the winning ``(N, α)`` (lexicographic
first hit), ``vectors_tried``/``candidates_tried``, and the *exact*
per-kind :class:`~repro.core.opcount.OpCounter` charges — including on the
failure path, where ``n_max`` exhaustion must raise with identical charges.
Tests parametrize over the shared ``fast_engine`` fixture (``conftest.py``),
so the native rows skip with a visible reason where the extension cannot be
built.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import native
from repro.baselines import LTB_ENGINES, ltb_partition
from repro.baselines.ltb import resolve_ltb_engine
from repro.core import OpCounter, Pattern
from repro.core.analysis import optimality_gap
from repro.errors import PartitioningError
from repro.patterns import log_pattern, median_pattern

from conftest import engine_param


def _run(pattern, engine, **kwargs):
    """One instrumented run: (result, counter) for an engine."""
    ops = OpCounter()
    result = ltb_partition(pattern, ops=ops, engine=engine, **kwargs)
    return result, ops


def _assert_equivalent(pattern, engine, **kwargs):
    scalar, scalar_ops = _run(pattern, "scalar")
    fast, fast_ops = _run(pattern, engine, **kwargs)
    assert fast.solution.n_banks == scalar.solution.n_banks
    assert fast.solution.transform.alpha == scalar.solution.transform.alpha
    assert fast.vectors_tried == scalar.vectors_tried
    assert fast.candidates_tried == scalar.candidates_tried
    assert fast_ops.counts == scalar_ops.counts
    return scalar


@st.composite
def patterns_2d(draw, max_extent: int = 4, max_size: int = 6):
    coordinate = st.integers(min_value=-max_extent, max_value=max_extent)
    offset = st.tuples(coordinate, coordinate)
    offsets = draw(st.sets(offset, min_size=1, max_size=max_size))
    return Pattern(offsets)


class TestEquivalence:
    @pytest.mark.slow
    def test_benchmarks(self, all_benchmarks, fast_engine):
        for name, pattern in all_benchmarks:
            _assert_equivalent(pattern, engine=fast_engine)

    def test_single_element_pattern(self, fast_engine):
        # m = 1: no duplicate scan; the first vector (0,)*n always wins.
        result = _assert_equivalent(Pattern([(0, 0)]), engine=fast_engine)
        assert result.solution.n_banks == 1
        assert result.vectors_tried == 1

    def test_one_dimensional(self, fast_engine):
        _assert_equivalent(Pattern([(0,), (1,), (3,)]), engine=fast_engine)

    @pytest.mark.slow
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(pattern=patterns_2d())
    def test_random_patterns(self, pattern, fast_engines):
        for engine in fast_engines:
            _assert_equivalent(pattern, engine=engine)

    def test_auto_matches_resolved_engine(self):
        pattern = median_pattern()
        resolved = resolve_ltb_engine("auto")
        assert resolved == ("native" if native.available() else "scalar")
        auto, auto_ops = _run(pattern, "auto")
        fast, fast_ops = _run(pattern, resolved)
        assert auto == fast
        assert auto_ops.counts == fast_ops.counts


#: Two offsets near 2^62: α·Δ leaves int64 for every α with a digit of 2
#: or more, though every residue mod N is small.
_FAR = Pattern([(5, 7), (2**62 - 1, 2**62 - 3), (9, 1)])


class TestFarOffsets:
    @pytest.mark.parametrize(
        "engine", [engine_param(name) for name in ("scalar", "native")]
    )
    def test_far_offsets_find_the_true_minimum(self, engine):
        result, ops = _run(_FAR, engine)
        assert result.solution.n_banks == 5
        assert result.solution.transform.alpha == (1, 0)
        assert result.vectors_tried == 31
        assert result.candidates_tried == 3
        assert ops.counts == {"mul": 186, "add": 95, "mod": 93, "compare": 100}
        banks = {
            sum(a * d for a, d in zip(result.solution.transform.alpha, delta)) % 5
            for delta in _FAR.offsets
        }
        assert len(banks) == _FAR.size

    def test_far_offsets_have_no_optimality_gap(self):
        assert optimality_gap(_FAR) == 0

    def test_offsets_past_int64(self, fast_engine):
        # 2^70 does not fit int64; every engine answers like the scalar one.
        for offsets in ([(0,), (2**70,), (1,)], [(2**70, 3), (0, -(2**70)), (1, 1)]):
            _assert_equivalent(Pattern(offsets), engine=fast_engine)

    def test_bank_counts_past_int64_products(self):
        # (N−1)² leaves int64 at N = 2^33 + 1, so the native scan sums this
        # pattern's residues in 128 bits, and an N-entry seen table would
        # take 64 GiB; α = (0,) sends all offsets to bank 0 and α = (1,)
        # separates them.
        pattern = Pattern([(0,), (2**40 + 3,), (5,)])
        n_banks = 2**33 + 1
        for engine in ("scalar", "native", "auto"):
            if engine == "native" and not native.available():
                continue
            result, ops = _run(pattern, engine, start_n=n_banks, n_max=n_banks)
            assert result.solution.n_banks == n_banks
            assert result.solution.transform.alpha == (1,)
            assert result.vectors_tried == 2
            assert ops.counts == {"mul": 6, "mod": 6, "compare": 6}

    @pytest.mark.parametrize(
        "engine", [engine_param(name) for name in ("scalar", "native", "auto")]
    )
    def test_bank_counts_past_the_seen_table(self, engine):
        # 2^30 + 1 banks: the products still fit int64, but the native scan
        # compares each residue with the candidate's earlier ones instead of
        # allocating a seen table of N entries (8 GiB).
        n_banks = 2**30 + 1
        result, ops = _run(
            Pattern([(0,), (2**40 + 3,), (5,)]),
            engine,
            start_n=n_banks,
            n_max=n_banks,
        )
        assert result.solution.transform.alpha == (1,)
        assert result.vectors_tried == 2
        assert ops.counts == {"mul": 6, "mod": 6, "compare": 6}

    @pytest.mark.parametrize("n_banks", [13, 2**20 + 3])
    def test_every_candidate_with_a_zero_first_digit_collides(
        self, n_banks, fast_engine
    ):
        # All offsets share their last coordinate, so each α = (0, a) maps
        # them to one bank and stops at the second offset (2 compares);
        # α = (1, 0) is the first hit, after the odometer's carry.  Past
        # 2^20 banks the native scan takes the m-entry check.
        result, ops = _run(
            Pattern([(0, 0), (1, 0), (2, 0)]),
            fast_engine,
            start_n=n_banks,
            n_max=n_banks,
        )
        tried = n_banks + 1
        assert result.solution.transform.alpha == (1, 0)
        assert result.vectors_tried == tried
        assert ops.counts == {
            "mul": 6 * tried,
            "add": 3 * tried,
            "mod": 3 * tried,
            "compare": 2 * n_banks + 4,
        }


class TestExhaustion:
    @pytest.mark.parametrize("start_n", [1, 3, 50, None])
    def test_nmax_exhaustion_charges_match_scalar(self, start_n, fast_engine):
        # LoG needs 13 banks; capping at 12 exhausts every candidate N.
        # Starting at 1 or 3 scans each failing N up to the cap; starting
        # at 50, or at the default m = 13, begins past it and scans none.
        pattern = log_pattern()
        scalar_ops = OpCounter()
        with pytest.raises(PartitioningError):
            ltb_partition(
                pattern, n_max=12, ops=scalar_ops, start_n=start_n,
                engine="scalar",
            )
        fast_ops = OpCounter()
        with pytest.raises(PartitioningError):
            ltb_partition(
                pattern, n_max=12, ops=fast_ops, start_n=start_n,
                engine=fast_engine,
            )
        assert fast_ops.counts == scalar_ops.counts
        assert bool(scalar_ops.counts) == (start_n is not None and start_n <= 12)


class TestValidation:
    def test_unknown_engine_rejected(self):
        for engine in ("simd", "vectorized"):
            with pytest.raises(ValueError, match="unknown LTB engine"):
                ltb_partition(log_pattern(), engine=engine)

    def test_engine_names(self):
        assert LTB_ENGINES == ("auto", "scalar", "native")
