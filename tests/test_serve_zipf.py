"""Zipf traffic through the translation-canonical cache and the solution store.

One seeded Zipf(1.1) sequence of 60 ``/solve`` requests over every
symmetry variant (reflections, leading-axis permutations, compositions and
a translated twin of each) of two asymmetric kernels, replayed through two
server lifetimes on one store:

1. **cold** — an empty store: exactly one solve per distinct translation
   class of the requested specs (a translated twin shares its original's
   solve; a mirrored or permuted copy is a class of its own);
2. **warm** — a restarted server on the warmed store, with the in-memory
   cache cleared: zero solves, and the same replies as the cold phase.

Every reply, in both phases, must equal a fresh in-process solve of the
requester's own spec.  These are structural properties, so they hold
exactly on any host.
"""

from __future__ import annotations

import importlib
import random
from typing import List, Tuple

import pytest

from repro.core import Pattern, solve_cache
from repro.core.solver import Objective, solve
from repro.io import solution_to_dict
from repro.serve import ServeClient, serve_in_thread
from repro.serve.protocol import SolveSpec
from repro.verify.gen import symmetry_variants

#: A corner and a 3-D slab: every 2-D library stencil is reflection
#: symmetric, so its mirrored copies would all be translates of it.
BASES = [
    ("corner2d", ((0, 0), (0, 1), (1, 0)), (24, 24)),
    ("slab3d", ((0, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)), (8, 8, 8)),
]
REQUESTS = 60
N_MAX = 8

Variant = Tuple[Pattern, Tuple[int, ...]]


def _universe() -> List[Variant]:
    """Each base's distinct symmetry variants, plus a translated twin of each."""
    universe: List[Variant] = []
    for name, offsets, shape in BASES:
        base = Pattern(offsets, name=name)
        members = [(base, shape)]
        for kind in ("reflection", "permutation", "composed"):
            if kind == "permutation" and base.ndim < 3:
                continue
            members.extend(
                (variant, v_shape)
                for _tag, variant, v_shape in symmetry_variants(
                    base, shape, kind, seed=7, count=2
                )
            )
        distinct = list({(p.offsets, s): (p, s) for p, s in members}.values())
        distinct += [(p.translated((1,) * p.ndim), s) for p, s in distinct]
        universe.extend(distinct)
    return universe


def _traffic() -> List[Variant]:
    rng = random.Random("repro-zipf:micro")
    universe = _universe()
    order = list(range(len(universe)))
    rng.shuffle(order)  # popularity rank independent of construction order
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(order))]
    return [universe[i] for i in rng.choices(order, weights=weights, k=REQUESTS)]


@pytest.fixture()
def count_solves(monkeypatch):
    solver_mod = importlib.import_module("repro.core.solver")
    calls = {"n": 0}
    real = solver_mod._solve_impl

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "_solve_impl", counting)
    return calls


def _replay(traffic: List[Variant], store_dir: str, calls) -> Tuple[list, int]:
    """One server lifetime: the replies and the solves it ran."""
    solve_cache.clear()  # only the store carries answers between lifetimes
    before = calls["n"]
    with serve_in_thread(store_dir=store_dir) as srv:
        with ServeClient(port=srv.port) as client:
            replies = [
                client.solve(pattern=pattern, shape=shape, n_max=N_MAX)["solution"]
                for pattern, shape in traffic
            ]
    return replies, calls["n"] - before


class TestZipfTraffic:
    def test_symmetry_quotient_store_restart_and_identity(
        self, tmp_path, count_solves
    ):
        traffic = _traffic()
        store_dir = str(tmp_path / "store")
        cold, cold_solves = _replay(traffic, store_dir, count_solves)
        warm, warm_solves = _replay(traffic, store_dir, count_solves)

        translation_classes = len(
            {
                SolveSpec(
                    pattern, shape, N_MAX, Objective.LATENCY, 0
                ).canonical_digest()
                for pattern, shape in traffic
            }
        )
        assert len({(p.offsets, s) for p, s in traffic}) > translation_classes
        assert cold_solves == translation_classes
        assert warm_solves == 0
        assert warm == cold
        expected = {
            (pattern.offsets, shape): solution_to_dict(
                solve(pattern, shape, n_max=N_MAX, cache=False).solution
            )
            for pattern, shape in traffic
        }
        for (pattern, shape), reply in zip(traffic, cold):
            assert reply == expected[(pattern.offsets, shape)], pattern
