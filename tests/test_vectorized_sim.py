"""Batched engines vs scalar references: equivalence, guards, overhead.

Covers the execution paths added around the scalar reference
implementations.  Engine-equivalence tests parametrize over the shared
``fast_engine``/``sim_engine`` fixtures (``conftest.py``), so the same
bodies exercise the vectorized NumPy engine *and* the compiled native
engine when the extension is built — and skip the native rows with a
visible reason when it is not:

* ``simulate_sweep(engine=...)`` — bit-identical reports across engines,
  dispatch rules for mapping subclasses, attribution equivalence.
* ``same_size_sweep(engine=...)`` — identical results *and* identical op
  charges.
* Disabled-telemetry overhead — no span allocations and zero per-element
  Python mapping calls on the vectorized path.
* Bounded-chunk guards — correctness under tiny chunk budgets and the
  ``element_grid`` materialization cap.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BankMapping, Pattern, partition, same_size_sweep
from repro.core.opcount import OpCounter
from repro.core.packed import PackedBankMapping
from repro.core.vectorized import (
    DEFAULT_CHUNK_ELEMENTS,
    chunk_budget,
    element_grid,
    grid_size,
    iter_element_chunks,
)
from repro.errors import MappingError, SimulationError
import importlib

# ``repro.obs`` re-exports a ``tracer`` *function*, shadowing the submodule
# attribute — resolve the module itself for monkeypatching.
tracer_mod = importlib.import_module("repro.obs.tracer")
_vectorized = importlib.import_module("repro.core.vectorized")
from repro.obs.conflicts import ConflictTable
from repro.patterns import log_pattern, se_pattern
from repro.patterns.generators import rectangle
from repro.sim import simulate_sweep
from repro.sim.memsim import ENGINES, resolve_engine


def mapping_for(pattern=None, shape=(12, 14), **kwargs):
    return BankMapping(
        solution=partition(pattern or log_pattern(), **kwargs), shape=shape
    )


# -- engine equivalence ----------------------------------------------------


class TestEngineEquivalence:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"ports_per_bank": 2},
            {"step": 2},
            {"limit": 7},
            {"verify": False},
            {"step": 3, "ports_per_bank": 3},
        ],
    )
    def test_reports_bit_identical(self, kwargs, fast_engine):
        mapping = mapping_for()
        scalar = simulate_sweep(mapping, engine="scalar", **kwargs)
        fast = simulate_sweep(mapping, engine=fast_engine, **kwargs)
        assert scalar == fast

    def test_constrained_solution(self, fast_engine):
        mapping = mapping_for(log_pattern(), shape=(19, 23), n_max=4)
        scalar = simulate_sweep(mapping, engine="scalar")
        fast = simulate_sweep(mapping, engine=fast_engine)
        assert scalar == fast
        assert fast.measured_delta_ii > 0  # a constrained run has conflicts

    def test_packed_mapping_supported(self, fast_engine):
        # PackedBankMapping has no fused native spec; the native engine
        # covers it through the hybrid bulk-kernel path.
        mapping = PackedBankMapping(solution=partition(se_pattern()), shape=(9, 13))
        assert simulate_sweep(mapping, engine="scalar") == simulate_sweep(
            mapping, engine=fast_engine
        )

    def test_explicit_array_and_roundtrip(self, fast_engine):
        import json

        mapping = mapping_for(se_pattern(), shape=(9, 10))
        array = np.arange(90, dtype=np.int64).reshape(9, 10) * 3 - 7
        report = simulate_sweep(mapping, array=array, engine=fast_engine)
        assert report == simulate_sweep(mapping, array=array, engine="scalar")
        payload = report.to_dict()
        json.dumps(payload)  # all plain Python scalars, no numpy leakage
        assert type(report).from_dict(payload) == report

    def test_attribution_identical(self, fast_engine):
        mapping = mapping_for(log_pattern(), shape=(15, 17), n_max=5)
        ports = mapping.solution.bank_ports
        scalar_table = ConflictTable(ports)
        fast_table = ConflictTable(ports)
        simulate_sweep(mapping, engine="scalar", conflicts=scalar_table)
        simulate_sweep(mapping, engine=fast_engine, conflicts=fast_table)
        assert scalar_table.cycle_histogram == fast_table.cycle_histogram
        assert (
            scalar_table.observed_bank_conflicts
            == fast_table.observed_bank_conflicts
        )

    def test_default_engine_is_fastest_available(self):
        mapping = mapping_for()
        resolved = resolve_engine(mapping)
        assert resolved in ("vectorized", "native")
        assert simulate_sweep(mapping) == simulate_sweep(mapping, engine=resolved)

    def test_unknown_engine_rejected(self):
        with pytest.raises(SimulationError, match="unknown simulation engine"):
            simulate_sweep(mapping_for(), engine="warp")
        assert ENGINES == ("auto", "scalar", "vectorized", "native")


class TestSubclassDispatch:
    """Mappings that override scalar address methods must not be bulk-run."""

    def _lying_mapping(self):
        class LyingMapping(BankMapping):
            def offset_of(self, element, ops=None):
                offset = super().offset_of(element, ops)
                if tuple(element) == (4, 4):
                    return (offset + 1) % self.bank_size(self.bank_of(element))
                return offset

        return LyingMapping(solution=partition(se_pattern()), shape=(8, 9))

    def test_auto_falls_back_to_scalar_and_detects_corruption(self):
        lying = self._lying_mapping()
        array = np.arange(72, dtype=np.int64).reshape(8, 9)
        with pytest.raises(SimulationError, match="data corruption"):
            simulate_sweep(lying, array=array)  # auto → scalar → caught

    def test_forcing_batched_engine_on_subclass_is_an_error(self, fast_engine):
        with pytest.raises(SimulationError, match="stock BankMapping"):
            simulate_sweep(self._lying_mapping(), engine=fast_engine)


class TestEngineErrorPaths:
    def test_clean_run_accepted(self, fast_engine):
        mapping = mapping_for(se_pattern(), shape=(8, 9))
        array = np.arange(72, dtype=np.int64).reshape(8, 9)
        assert simulate_sweep(mapping, array=array, engine=fast_engine).iterations

    def test_empty_trace(self, sim_engine):
        mapping = mapping_for(se_pattern(), shape=(8, 9))
        with pytest.raises(SimulationError, match="empty trace"):
            simulate_sweep(mapping, limit=0, engine=sim_engine)

    def test_too_small_shape(self, sim_engine):
        solution = partition(log_pattern())
        with pytest.raises(SimulationError, match="too small"):
            simulate_sweep(
                BankMapping(solution=solution, shape=(4, 24)), engine=sim_engine
            )

    def test_bad_ports(self, sim_engine):
        with pytest.raises(SimulationError, match="ports_per_bank"):
            simulate_sweep(mapping_for(), ports_per_bank=0, engine=sim_engine)

    def test_conflict_table_port_mismatch(self, sim_engine):
        table = ConflictTable(3)
        with pytest.raises(SimulationError, match="conflict table expects"):
            simulate_sweep(mapping_for(), conflicts=table, engine=sim_engine)


# -- property tests --------------------------------------------------------


@st.composite
def sim_cases(draw):
    coordinate = st.integers(min_value=0, max_value=3)
    offsets = draw(
        st.sets(st.tuples(coordinate, coordinate), min_size=1, max_size=6)
    )
    pattern = Pattern(offsets).normalized()
    extents = pattern.extents
    w0 = draw(st.integers(extents[0] + 1, extents[0] + 6))
    w1 = draw(st.integers(extents[1] + 1, extents[1] + 6))
    n_max = draw(st.one_of(st.none(), st.integers(1, 8)))
    ports = draw(st.integers(1, 3))
    step = draw(st.integers(1, 2))
    return pattern, (w0, w1), n_max, ports, step


@given(case=sim_cases())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_property_sim_engines_agree(case, fast_engines):
    pattern, shape, n_max, ports, step = case
    mapping = BankMapping(solution=partition(pattern, n_max=n_max), shape=shape)
    scalar = simulate_sweep(
        mapping, ports_per_bank=ports, step=step, engine="scalar"
    )
    for engine in fast_engines:
        fast = simulate_sweep(
            mapping, ports_per_bank=ports, step=step, engine=engine
        )
        assert scalar == fast, engine


@given(
    st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=8),
    st.integers(1, 40),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_property_sweep_engines_agree_with_identical_ops(offsets, n_max):
    pattern = Pattern(offsets).normalized()
    scalar_ops, vector_ops = OpCounter(), OpCounter()
    scalar = same_size_sweep(pattern, n_max, ops=scalar_ops, engine="scalar")
    vector = same_size_sweep(pattern, n_max, ops=vector_ops, engine="vectorized")
    assert scalar == vector
    assert scalar_ops.counts == vector_ops.counts


def test_sweep_unknown_engine_rejected():
    with pytest.raises(ValueError, match="unknown sweep engine"):
        same_size_sweep(log_pattern(), 5, engine="warp")


# -- disabled-telemetry overhead ------------------------------------------


class TestDisabledTelemetryOverhead:
    def test_no_span_objects_allocated(self, monkeypatch):
        """With REPRO_OBS off, the sweep must only touch the shared no-op span."""
        monkeypatch.delenv("REPRO_OBS", raising=False)
        from repro.obs import state

        state.disable()

        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("Span allocated while observability is off")

        monkeypatch.setattr(tracer_mod, "Span", boom)
        assert tracer_mod.span("probe") is tracer_mod.NULL_SPAN
        report = simulate_sweep(mapping_for(), engine="vectorized")
        assert report.iterations > 0
        report = simulate_sweep(mapping_for(), engine="scalar")
        assert report.iterations > 0

    def test_fast_path_makes_no_per_element_mapping_calls(
        self, monkeypatch, fast_engine
    ):
        """The fast paths must never fall back to scalar address translation."""
        mapping = mapping_for(log_pattern(), shape=(16, 18), n_max=6)

        def boom(self, element, ops=None):  # pragma: no cover - failure path
            raise AssertionError("per-element mapping call on a batched path")

        monkeypatch.setattr(BankMapping, "bank_of", boom)
        monkeypatch.setattr(BankMapping, "offset_of", boom)
        monkeypatch.setattr(BankMapping, "address_of", boom)
        report = simulate_sweep(mapping, engine=fast_engine, verify=True)
        assert report.iterations > 0


# -- bounded chunks --------------------------------------------------------


class TestChunkGuards:
    def test_chunk_budget_resolution(self):
        assert chunk_budget() == DEFAULT_CHUNK_ELEMENTS
        assert chunk_budget(17) == 17
        with pytest.raises(MappingError):
            chunk_budget(0)

    def test_iter_element_chunks_covers_grid(self):
        shape = (7, 11)
        blocks = list(iter_element_chunks(shape, chunk=13))
        assert blocks[0][0] == 0
        assert all(len(block) <= 13 for _, block in blocks)
        joined = np.concatenate([block for _, block in blocks])
        assert np.array_equal(joined, element_grid(shape))
        assert len(joined) == grid_size(shape)

    def test_simulation_identical_under_tiny_chunks(self, monkeypatch, fast_engine):
        """A grid far beyond the chunk budget still simulates exactly."""
        mapping = mapping_for(log_pattern(), shape=(20, 21), n_max=5)
        baseline = simulate_sweep(mapping, engine=fast_engine)
        # 64-element chunks against a 420-element grid
        monkeypatch.setattr(_vectorized, "DEFAULT_CHUNK_ELEMENTS", 64)
        chunked = simulate_sweep(mapping, engine=fast_engine)
        assert chunked == baseline
        assert chunked == simulate_sweep(mapping, engine="scalar")

    def test_element_grid_cap_raises_with_guidance(self, monkeypatch):
        monkeypatch.setattr(_vectorized, "DEFAULT_MAX_GRID_ELEMENTS", 100)
        with pytest.raises(MappingError, match="iter_element_chunks"):
            element_grid((20, 20))
        # The streaming path is the documented way out — and still works.
        total = sum(len(block) for _, block in iter_element_chunks((20, 20), 64))
        assert total == 400

    def test_sweep_vectorized_respects_chunk_budget(self, monkeypatch):
        monkeypatch.setattr(_vectorized, "DEFAULT_CHUNK_ELEMENTS", 8)
        pattern = rectangle((3, 5))
        scalar = same_size_sweep(pattern, 30, engine="scalar")
        vector = same_size_sweep(pattern, 30, engine="vectorized")
        assert scalar == vector

    def test_sweep_memory_stays_within_chunk_budget(self):
        """The sweep's working set is one ``(block, m)`` residue block,
        whatever ``n_max`` is."""
        vector_ops, scalar_ops = OpCounter(), OpCounter()
        tracemalloc.start()
        try:
            vector = same_size_sweep(
                log_pattern(), 4000, ops=vector_ops, engine="vectorized"
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        scalar = same_size_sweep(log_pattern(), 4000, ops=scalar_ops, engine="scalar")
        assert vector == scalar
        assert vector_ops.counts == scalar_ops.counts
