"""Engine equivalence of the LTB search: scalar vs vectorized vs native.

Every batched engine must be indistinguishable from the published scalar
enumeration in every observable: the winning ``(N, α)`` (lexicographic
first hit), ``vectors_tried``/``candidates_tried``, and the *exact*
per-kind :class:`~repro.core.opcount.OpCounter` charges — including on the
failure path, where ``n_max`` exhaustion must raise with identical charges
at any chunk boundary.  Tests parametrize over the shared ``fast_engine``
fixture (``conftest.py``), so the compiled engine runs the same bodies when
built and skips with a visible reason when not.
"""

from __future__ import annotations

import importlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import LTB_ENGINES, ltb_chunk_budget, ltb_partition
from repro.baselines.ltb import resolve_ltb_engine
from repro.core import OpCounter, Pattern
from repro.core.analysis import optimality_gap
from repro.errors import PartitioningError
from repro.patterns import gaussian_pattern, log_pattern, median_pattern

from conftest import engine_param


def _run(pattern, engine, **kwargs):
    """One instrumented run: (result, counter) for an engine."""
    ops = OpCounter()
    result = ltb_partition(pattern, ops=ops, engine=engine, **kwargs)
    return result, ops


def _assert_equivalent(pattern, engine="vectorized", **kwargs):
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

    @pytest.mark.parametrize("chunk", [1, 2, 9, 10, 100])
    def test_chunk_boundaries(self, chunk):
        # The LoG hit lands at different positions within a block for each
        # budget; charges and the first hit must not move.  (chunk is a
        # vectorized-engine knob; the native engine ignores it.)
        _assert_equivalent(log_pattern(), chunk=chunk)

    def test_default_chunk_follows_the_bulk_default(self, monkeypatch):
        monkeypatch.setattr(
            importlib.import_module("repro.core.vectorized"),
            "DEFAULT_CHUNK_ELEMENTS",
            7,
        )
        assert ltb_chunk_budget() == 7
        _assert_equivalent(gaussian_pattern())

    def test_auto_matches_resolved_engine(self):
        pattern = median_pattern()
        resolved = resolve_ltb_engine("auto")
        assert resolved in ("vectorized", "native")
        auto, auto_ops = _run(pattern, "auto")
        fast, fast_ops = _run(pattern, resolved)
        assert auto == fast
        assert auto_ops.counts == fast_ops.counts


#: Two offsets near 2^62: α·Δ leaves int64 for every α with a digit of 2
#: or more, though every residue mod N is small.
_FAR = Pattern([(5, 7), (2**62 - 1, 2**62 - 3), (9, 1)])


class TestFarOffsets:
    @pytest.mark.parametrize(
        "engine", [engine_param(name) for name in ("scalar", "vectorized", "native")]
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
        # (N−1)² leaves int64 at N = 2^33 + 1, so the NumPy engine computes
        # this block's residues with Python integers; α = (0,) sends all
        # offsets to bank 0 and α = (1,) separates them.
        pattern = Pattern([(0,), (2**40 + 3,), (5,)])
        n_banks = 2**33 + 1
        result, ops = _run(
            pattern, "vectorized", start_n=n_banks, n_max=n_banks, chunk=6
        )
        assert result.solution.n_banks == n_banks
        assert result.solution.transform.alpha == (1,)
        assert result.vectors_tried == 2
        assert ops.counts == {"mul": 6, "mod": 6, "compare": 6}


class TestExhaustion:
    @pytest.mark.parametrize("chunk", [1, 3, 50, None])
    def test_nmax_exhaustion_charges_match_scalar(self, chunk, fast_engine):
        # LoG needs 13 banks; capping at 12 exhausts every candidate N.
        pattern = log_pattern()
        scalar_ops = OpCounter()
        with pytest.raises(PartitioningError):
            ltb_partition(pattern, n_max=12, ops=scalar_ops, engine="scalar")
        fast_ops = OpCounter()
        with pytest.raises(PartitioningError):
            ltb_partition(
                pattern, n_max=12, ops=fast_ops, engine=fast_engine, chunk=chunk
            )
        assert fast_ops.counts == scalar_ops.counts


class TestValidation:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown LTB engine"):
            ltb_partition(log_pattern(), engine="simd")

    def test_engine_names(self):
        assert LTB_ENGINES == ("auto", "scalar", "vectorized", "native")

    @pytest.mark.parametrize("chunk", [0, -4])
    def test_nonpositive_chunk_rejected(self, chunk):
        with pytest.raises(ValueError, match="chunk budget"):
            ltb_chunk_budget(chunk)

    def test_explicit_chunk_overrides_default(self, monkeypatch):
        monkeypatch.setattr(
            importlib.import_module("repro.core.vectorized"),
            "DEFAULT_CHUNK_ELEMENTS",
            11,
        )
        assert ltb_chunk_budget(5) == 5
