"""Batched engines vs scalar references: equivalence, guards, overhead.

Covers the execution paths added around the scalar reference
implementations.  Engine-equivalence tests parametrize over the shared
``fast_engine``/``sim_engine`` fixtures (``conftest.py``), so the same
bodies exercise the compiled native engine — and skip its rows with a
visible reason where the extension cannot be built:

* ``simulate_sweep(engine=...)`` — bit-identical reports across engines,
  dispatch rules for mapping subclasses, attribution equivalence.
* ``same_size_sweep(engine=...)`` — identical results *and* identical op
  charges.
* Disabled-telemetry overhead — no span allocations and zero per-element
  Python mapping calls on the native path.
* Bounded chunks — correctness under tiny chunk budgets.
* Load occupancy — a whole frame's load fills exactly its elements' slots.
"""

from __future__ import annotations

import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import native
from repro.core import (
    BankMapping,
    LinearTransform,
    PartitionSolution,
    Pattern,
    partition,
    same_size_sweep,
    widen_solution,
)
from repro.core.opcount import OpCounter
from repro.core.packed import PackedBankMapping
from repro.core.solver import solve
from repro.errors import SimulationError
import importlib

# ``repro.obs`` re-exports a ``tracer`` *function*, shadowing the submodule
# attribute — resolve the module itself for monkeypatching.
tracer_mod = importlib.import_module("repro.obs.tracer")
_vectorized = importlib.import_module("repro.core.vectorized")
from repro.obs.conflicts import ConflictTable
from repro.patterns import log_pattern, se_pattern, sobel3d_pattern
from repro.patterns.generators import rectangle
from repro.sim import simulate_sweep
from repro.serve.protocol import SIM_ENGINES
from repro.sim.memsim import ENGINES, resolve_engine


def mapping_for(pattern=None, shape=(12, 14), **kwargs):
    return BankMapping(
        solution=partition(pattern or log_pattern(), **kwargs), shape=shape
    )


@dataclass(frozen=True)
class ShortRowsMapping(BankMapping):
    """Section 4.4 with one row too few per bank: offsets stay in range,
    but elements of a row collide."""

    @property
    def rows_per_bank(self) -> int:
        return super().rows_per_bank - 1


@dataclass(frozen=True)
class ShortBanksMapping(BankMapping):
    """Stock addresses in banks one slot too small: the last slot overruns."""

    def bank_size(self, bank: int) -> int:
        return super().bank_size(bank) - 1


# Both faulty types share one formula across the scalar address methods
# (through the overridden geometry) and the native spec, so every engine
# runs them and must fail the same way.
for _faulty in (ShortRowsMapping, ShortBanksMapping):
    native.register_native_spec(_faulty, native._linear_spec)


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
            # Boundary integers: beyond int64, the native engine clamps
            # before any int64 arithmetic.
            {"step": 2**62},
            {"step": 2**63},
            {"step": 2**70},
            {"ports_per_bank": 2**62},
            {"ports_per_bank": 2**63},
            {"ports_per_bank": 2**70},
        ],
    )
    def test_reports_bit_identical(self, kwargs, fast_engine):
        mapping = mapping_for()
        scalar = simulate_sweep(mapping, engine="scalar", **kwargs)
        fast = simulate_sweep(mapping, engine=fast_engine, **kwargs)
        assert scalar == fast

    @pytest.mark.parametrize(
        "shift",
        [(2**63 // 5 - 2, 0), (2**62, -(2**62)), (2**70, 0), (-(2**70), 2**70)],
        ids=["int64-wrap", "2^62", "2^70", "-2^70"],
    )
    def test_far_translated_pattern_matches_scalar(self, shift, fast_engine):
        # The native kernels take offsets relative to the array's origin.
        # With alpha_0 = 5, 5 * (2**63 // 5 - 2 + d) leaves int64 for some of
        # the pattern's d while the loop start's product does not, so a
        # kernel multiplying alpha by raw offsets reads the wrong slots;
        # offsets past int64 must not overflow either.
        pattern = log_pattern().translated(shift)
        mapping = BankMapping(solution=partition(pattern), shape=(16, 16))
        assert mapping.solution.transform.alpha == (5, 1)
        assert mapping.solution.pattern.mins == shift
        for kwargs in ({}, {"step": 2, "ports_per_bank": 2, "verify": False}):
            assert simulate_sweep(
                mapping, engine=fast_engine, **kwargs
            ) == simulate_sweep(mapping, engine="scalar", **kwargs)
        tables = [ConflictTable(1), ConflictTable(1)]
        for engine, table in zip(("scalar", fast_engine), tables):
            simulate_sweep(mapping, engine=engine, conflicts=table)
        assert tables[0].cycle_histogram == tables[1].cycle_histogram
        assert (
            tables[0].observed_bank_conflicts == tables[1].observed_bank_conflicts
        )

    @pytest.mark.parametrize("size", [24, 1100], ids=["tables", "no-tables"])
    def test_one_dimensional_patterns_match_scalar(self, size, fast_engine):
        # 1100 offsets need about 1100 banks: more (remainder, read) cells
        # than the native sweep tabulates, so its reads take the per-read
        # arithmetic instead.
        pattern = Pattern([(2 * i,) for i in range(size)])
        mapping = BankMapping(solution=partition(pattern), shape=(2 * size + 9,))
        for kwargs in ({}, {"step": 3, "ports_per_bank": 2}):
            assert simulate_sweep(
                mapping, engine=fast_engine, **kwargs
            ) == simulate_sweep(mapping, engine="scalar", **kwargs)
        tables = [ConflictTable(1), ConflictTable(1)]
        for engine, table in zip(("scalar", fast_engine), tables):
            simulate_sweep(mapping, engine=engine, conflicts=table)
        assert tables[0].cycle_histogram == tables[1].cycle_histogram

    def test_constrained_solution(self, fast_engine):
        mapping = mapping_for(log_pattern(), shape=(19, 23), n_max=4)
        scalar = simulate_sweep(mapping, engine="scalar")
        fast = simulate_sweep(mapping, engine=fast_engine)
        assert scalar == fast
        assert fast.measured_delta_ii > 0  # a constrained run has conflicts

    @pytest.mark.parametrize(
        "solution, shape",
        [
            (lambda: partition(log_pattern(), n_max=10, same_size=False), (8, 20)),
            (lambda: widen_solution(partition(log_pattern()), 2), (8, 20)),
            (lambda: partition(sobel3d_pattern()), (4, 5, 29)),
        ],
        ids=["two-level", "wide", "3d"],
    )
    def test_scheme_matches_scalar(self, solution, shape, fast_engine):
        mapping = BankMapping(solution=solution(), shape=shape)
        assert simulate_sweep(mapping, engine=fast_engine) == simulate_sweep(
            mapping, engine="scalar"
        )

    def test_packed_mapping_supported(self, fast_engine):
        # PackedBankMapping has no native spec: auto runs it on the scalar
        # reference, and forcing the fast engine is an error.
        mapping = PackedBankMapping(solution=partition(se_pattern()), shape=(9, 13))
        assert resolve_engine(mapping) == "scalar"
        assert simulate_sweep(mapping) == simulate_sweep(mapping, engine="scalar")
        with pytest.raises(SimulationError, match="registered native spec"):
            simulate_sweep(mapping, engine=fast_engine)

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
        assert resolved == ("native" if native.available() else "scalar")
        assert simulate_sweep(mapping) == simulate_sweep(mapping, engine=resolved)

    def test_unknown_engine_rejected(self):
        for engine in ("warp", "vectorized"):
            with pytest.raises(SimulationError, match="unknown simulation engine"):
                simulate_sweep(mapping_for(), engine=engine)
        assert ENGINES == ("auto", "scalar", "native")
        # The protocol imports repro.sim lazily, so it keeps its own copy.
        assert SIM_ENGINES == ENGINES


class TestSubclassDispatch:
    """Mappings that override scalar address methods must not run native."""

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

    def test_array_shape_mismatch(self, sim_engine):
        expected = "array shape (3, 3) does not match mapping shape (12, 14)"
        with pytest.raises(SimulationError) as info:
            simulate_sweep(mapping_for(), array=np.zeros((3, 3)), engine=sim_engine)
        assert str(info.value) == expected

    def test_conflict_table_port_mismatch(self, sim_engine):
        table = ConflictTable(3)
        with pytest.raises(SimulationError, match="conflict table expects"):
            simulate_sweep(mapping_for(), conflicts=table, engine=sim_engine)

    @pytest.mark.parametrize("kwargs", [{}, {"step": 2}, {"verify": True, "limit": 50}])
    def test_non_injective_formula_is_one_corruption_everywhere(self, kwargs):
        mapping = ShortRowsMapping(solution=partition(log_pattern()), shape=(12, 14))
        # Rows 0-5 hold zeros, so their collisions read back right; the
        # first wrong value is a later iteration's.
        array = np.arange(12 * 14, dtype=np.int64).reshape(12, 14) * 3 - 7
        array[:6] = 0
        messages = {}
        for engine in ("scalar", "native"):
            if engine == "native" and not native.available():
                continue
            with pytest.raises(SimulationError) as info:
                simulate_sweep(mapping, array=array, engine=engine, **kwargs)
            messages[engine] = str(info.value)
        assert len(set(messages.values())) == 1, messages
        # The loop starts at (0, 0); (4, 0) is the first loop offset that
        # reads a nonzero element a later element of its row overwrote.
        assert messages["scalar"].startswith("data corruption at offset (4, 0): ")

    def test_far_translated_corruption_names_the_original_offset(self):
        # Offsets relative to the origin inside the kernels; the message
        # still names the caller's loop offset, far beyond int64.
        shift = (2**70, -(2**70))
        pattern = log_pattern().translated(shift)
        mapping = ShortRowsMapping(solution=partition(pattern), shape=(12, 14))
        array = np.arange(12 * 14, dtype=np.int64).reshape(12, 14) * 3 - 7
        array[:6] = 0
        messages = {}
        for engine in ("scalar", "native"):
            if engine == "native" and not native.available():
                continue
            with pytest.raises(SimulationError) as info:
                simulate_sweep(mapping, array=array, engine=engine)
            messages[engine] = str(info.value)
        assert len(set(messages.values())) == 1, messages
        offset = (4 - shift[0], 0 - shift[1])
        assert messages["scalar"].startswith(f"data corruption at offset {offset}: ")

    def test_overrunning_formula_is_one_load_error(self, fast_engine):
        mapping = ShortBanksMapping(solution=partition(log_pattern()), shape=(12, 14))
        size = mapping.bank_size(0)
        expected = f"offset {size} out of range for bank 0 of size {size}"
        with pytest.raises(SimulationError) as info:
            simulate_sweep(mapping, engine=fast_engine)
        assert str(info.value) == expected
        with pytest.raises(SimulationError) as info:
            simulate_sweep(mapping, engine="scalar")
        assert str(info.value) == expected


@pytest.mark.slow
def test_benchmark_simulations_agree_on_every_engine(fast_engines):
    """The 64×64 simulations ``perfbench`` times, on both engines.

    The benchmark re-checks only a few served reports, each against the
    engine under test; here the scalar reference is the oracle.
    """
    root = Path(__file__).resolve().parent.parent
    if str(root) not in sys.path:
        sys.path.insert(0, str(root))
    from perfbench.specs import simulate_specs
    from repro.serve.protocol import parse_simulate_spec

    for request in simulate_specs(1, 12):
        spec = parse_simulate_spec(request.doc).solve
        solution = solve(
            spec.pattern,
            shape=spec.shape,
            n_max=spec.n_max,
            objective=spec.objective,
            delta_max=spec.delta_max,
            cache=False,
        ).solution
        mapping = BankMapping(solution=solution, shape=spec.shape)
        scalar = simulate_sweep(mapping, engine="scalar")
        for engine in fast_engines:
            assert simulate_sweep(mapping, engine=engine) == scalar, (
                engine,
                request.doc,
            )


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
        report = simulate_sweep(mapping_for(), engine="auto")
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
    def test_simulation_identical_under_tiny_chunks(self, monkeypatch, fast_engine):
        """A domain far beyond the chunk budget still simulates exactly.

        Attribution makes the native path walk the domain chunk by chunk,
        one kernel call each; the patched budget must reach it.
        """
        mapping = mapping_for(log_pattern(), shape=(20, 21), n_max=5)
        ports = mapping.solution.bank_ports
        tables = [ConflictTable(ports) for _ in range(3)]
        baseline = simulate_sweep(mapping, engine=fast_engine, conflicts=tables[0])
        compiled = native.require()
        calls = []
        sweep = compiled.sweep

        def counting_sweep(*args):
            calls.append(args)
            return sweep(*args)

        monkeypatch.setattr(compiled, "sweep", counting_sweep)
        # 64-element chunks: 4 iterations of LoG's 13 reads per call
        monkeypatch.setattr(_vectorized, "DEFAULT_CHUNK_ELEMENTS", 64)
        chunked = simulate_sweep(mapping, engine=fast_engine, conflicts=tables[1])
        assert len(calls) > 1
        assert chunked == baseline
        assert chunked == simulate_sweep(
            mapping, engine="scalar", conflicts=tables[2]
        )
        for table in tables[1:]:
            assert table.cycle_histogram == tables[0].cycle_histogram
            assert table.observed_bank_conflicts == tables[0].observed_bank_conflicts

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


# -- load occupancy --------------------------------------------------------


def _occupied_slots(mapping, report) -> int:
    return sum(
        round(used * mapping.bank_size(bank))
        for bank, used in report.bank_utilization.items()
    )


class TestLoadOccupancy:
    """The native load counts the distinct slots it writes, so a whole
    frame that fills exactly ``W`` slots has an injective mapping: the
    full-frame bijectivity check, in milliseconds where the scalar
    ``verify_bijective()`` takes seconds.
    """

    def test_bijective_large_frame(self, fast_engine):
        mapping = mapping_for(shape=(640, 480))
        report = simulate_sweep(mapping, limit=1, engine=fast_engine)
        assert _occupied_slots(mapping, report) == 640 * 480

    def test_detects_broken_mapping(self, fast_engine):
        broken = PartitionSolution(
            pattern=Pattern([(0, 0)]),
            transform=LinearTransform(alpha=(0, 0)),
            n_banks=4,
            n_unconstrained=4,
        )
        mapping = BankMapping(solution=broken, shape=(4, 4))
        # α = (0, 0) sends every element to bank 0, one slot per row.
        report = simulate_sweep(mapping, verify=False, engine=fast_engine)
        assert _occupied_slots(mapping, report) == 4
        assert report == simulate_sweep(mapping, verify=False, engine="scalar")
