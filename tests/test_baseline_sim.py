"""Baseline scheme mappings and their registered native specs.

Covers the cyclic/block :class:`~repro.core.mapping.BankMapping` subclasses
(:mod:`repro.baselines.mapping`): address correctness against the scalar
reference, bijectivity, overhead accounting against each scheme's closed
form, and — the point of the registration — that ``simulate_sweep`` runs
them through the native engine (the shared ``fast_engine`` fixture) with
reports bit-identical to the scalar reference.
"""

from __future__ import annotations

import pytest

from repro.baselines import (
    BlockBankMapping,
    BlockScheme,
    CyclicBankMapping,
    CyclicScheme,
    block_mapping,
    cyclic_mapping,
)
from repro import native
from repro.errors import SimulationError
from repro.patterns.generators import rectangle
from repro.sim.memsim import simulate_sweep

SHAPE = (64, 64)


def _cyclic(n_banks: int = 8, dim: int = 0) -> CyclicBankMapping:
    pattern = rectangle((3, 3), name="avg3x3")
    scheme = CyclicScheme(dim=dim, n_banks=n_banks, ndim=2)
    return cyclic_mapping(scheme, pattern, SHAPE)


def _block(n_banks: int = 4, dim: int = 0) -> BlockBankMapping:
    pattern = rectangle((3, 3), name="avg3x3")
    scheme = BlockScheme(dim=dim, n_banks=n_banks, shape=SHAPE)
    return block_mapping(scheme, pattern)


@pytest.fixture(params=["cyclic", "block"])
def baseline_mapping(request):
    return _cyclic() if request.param == "cyclic" else _block()


class TestAddressing:
    def test_bijective(self, baseline_mapping):
        assert baseline_mapping.verify_bijective()

    def test_overhead_matches_scheme_closed_form(self):
        shape = (10, 7)
        pattern = rectangle((2, 2))
        array_elements = shape[0] * shape[1]

        cyclic_scheme = CyclicScheme(dim=0, n_banks=4, ndim=2)
        cyclic = cyclic_mapping(cyclic_scheme, pattern, shape)
        assert (
            cyclic.total_bank_elements - array_elements
            == cyclic_scheme.overhead_elements(shape)
        )

        block_scheme = BlockScheme(dim=0, n_banks=4, shape=shape)
        block = block_mapping(block_scheme, pattern)
        assert (
            block.total_bank_elements - array_elements
            == block_scheme.overhead_elements()
        )

    def test_block_solution_is_a_carrier(self):
        # Block banking is not a modular linear hash: the mapping override
        # is the only valid bank hash, never solution.bank_of.
        mapping = _block()
        assert mapping.solution.scheme == "block"
        hashes = [
            mapping.bank_of((x, 0)) for x in range(mapping.shape[0])
        ]
        assert hashes == sorted(hashes)  # contiguous chunks, not interleaved


class TestSimulation:
    def test_engines_agree(self, baseline_mapping, fast_engine):
        scalar = simulate_sweep(baseline_mapping, engine="scalar")
        fast = simulate_sweep(baseline_mapping, engine=fast_engine)
        auto = simulate_sweep(baseline_mapping, engine="auto")
        assert scalar == fast == auto

    def test_cyclic_measured_delta_matches_solution(self, fast_engine):
        mapping = _cyclic()
        report = simulate_sweep(mapping, engine=fast_engine)
        assert report.measured_delta_ii == mapping.solution.delta_ii

    def test_block_worst_case_at_chunk_boundary(self, fast_engine):
        mapping = _block()
        report = simulate_sweep(mapping, engine=fast_engine)
        assert report.measured_delta_ii == mapping.solution.delta_ii

    def test_fast_path_never_calls_scalar_methods(self, monkeypatch, fast_engine):
        # The registered native spec, not the per-element methods, must
        # produce every address (even with verify=True).
        mapping = _cyclic()

        def boom(self, element, ops=None):  # pragma: no cover - must not run
            raise AssertionError("scalar address method called on native path")

        monkeypatch.setattr(CyclicBankMapping, "bank_of", boom)
        monkeypatch.setattr(CyclicBankMapping, "offset_of", boom)
        report = simulate_sweep(mapping, engine=fast_engine)
        assert report.iterations > 0


class TestDispatch:
    def test_kernels_registered(self):
        assert native.has_native_spec(CyclicBankMapping)
        assert native.has_native_spec(BlockBankMapping)

    def test_subclass_falls_back_to_scalar(self, fast_engine):
        # Spec lookup is by exact type: a subclass that might override the
        # scalar address methods must not inherit the native spec.
        class TweakedCyclic(CyclicBankMapping):
            pass

        assert not native.has_native_spec(TweakedCyclic)
        base = _cyclic()
        tweaked = TweakedCyclic(
            solution=base.solution, shape=base.shape, dim=base.dim
        )
        report = simulate_sweep(tweaked, engine="auto")
        assert report == simulate_sweep(base, engine="scalar")
        with pytest.raises(SimulationError, match="registered native spec"):
            simulate_sweep(tweaked, engine=fast_engine)
