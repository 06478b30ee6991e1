"""Extended property-based tests covering the newer subsystems.

Hypothesis drives the packed mapping, the wide-bank fold and
serialization with random patterns and shapes, asserting each stays
consistent with the reference scalar implementations.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    BankMapping,
    Pattern,
    packed_mapping,
    partition,
    widen_solution,
)
from repro.io import solution_from_dict, solution_to_dict


@st.composite
def small_patterns(draw, max_extent: int = 4, max_size: int = 7):
    coordinate = st.integers(min_value=0, max_value=max_extent)
    offset = st.tuples(coordinate, coordinate)
    offsets = draw(st.sets(offset, min_size=1, max_size=max_size))
    return Pattern(offsets).normalized()


@st.composite
def mapping_cases(draw):
    pattern = draw(small_patterns())
    extents = pattern.extents
    w0 = draw(st.integers(max(extents[0], 2), 8))
    w1 = draw(st.integers(max(extents[1], 2), 26))
    return pattern, (w0, w1)


# -- packed mapping --------------------------------------------------------


@given(mapping_cases())
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_packed_mapping_zero_overhead_and_bijective(case):
    pattern, shape = case
    mapping = packed_mapping(partition(pattern), shape)
    assert mapping.overhead_elements == 0
    assert mapping.verify_bijective()


@given(mapping_cases())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_packed_and_padded_share_bank_assignment(case):
    pattern, shape = case
    solution = partition(pattern)
    padded = BankMapping(solution=solution, shape=shape)
    packed = packed_mapping(solution, shape)
    for element in padded.iter_elements():
        assert padded.bank_of(element) == packed.bank_of(element)


# -- wide banks ------------------------------------------------------------------


@given(small_patterns(), st.integers(2, 5))
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_wide_fold_load_bounded_by_bandwidth(pattern, bandwidth):
    wide = widen_solution(partition(pattern), bandwidth)
    banks = wide.bank_indices()
    worst = max(banks.count(b) for b in set(banks))
    assert worst <= bandwidth


@given(mapping_cases(), st.integers(2, 4))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_wide_mapping_bijective(case, bandwidth):
    pattern, shape = case
    wide = widen_solution(partition(pattern), bandwidth)
    mapping = BankMapping(solution=wide, shape=shape)
    assert mapping.verify_bijective()


# -- serialization ----------------------------------------------------------------


@given(small_patterns(), st.integers(0, 1))
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_solution_roundtrip_any_pattern(pattern, constrain):
    n_max = max(2, pattern.size - 1) if constrain else None
    original = partition(pattern, n_max=n_max)
    restored = solution_from_dict(solution_to_dict(original))
    assert restored == original
    for delta in pattern.offsets:
        assert restored.bank_of(delta) == original.bank_of(delta)


# -- stock mapping ---------------------------------------------------------------


@given(mapping_cases())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mapping_bijective_everywhere(case):
    pattern, shape = case
    mapping = BankMapping(solution=partition(pattern), shape=shape)
    assert mapping.verify_bijective()
