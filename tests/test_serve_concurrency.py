"""The coalescing invariant under real concurrent load.

The ISSUE's acceptance proof: sixteen clients hammering four distinct
patterns (translated copies included) must trigger **exactly four**
underlying solves, and every response must decode bit-identical to a
direct in-process :func:`repro.core.solver.solve` of the same spec.

The obs registry is process-global, so every assertion works on
before/after counter deltas, never absolutes.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.solver import solve
from repro.io import solution_from_dict
from repro.obs import registry
from repro.patterns import log_pattern, median_pattern, prewitt_pattern, se_pattern
from repro.serve import ServeClient, serve_in_thread

# Thread soak + real HTTP round-trips: the priciest tier-1 module.
pytestmark = pytest.mark.slow

#: Four distinct canonical solves, each requested by four clients — two of
#: them as translated copies, which must coalesce onto the canonical job.
_DISTINCT = [
    ("log", log_pattern),
    ("se", se_pattern),
    ("median", median_pattern),
    ("prewitt", prewitt_pattern),
]
N_CLIENTS = 16


def _counters() -> dict:
    return dict(registry().snapshot()["counters"])


def _delta(before: dict, after: dict, name: str) -> int:
    return after.get(name, 0) - before.get(name, 0)


def _cold_solves() -> int:
    """Solver runs so far: the ``solve.cold_ms`` histogram's sample count."""
    hist = registry().log_histograms().get("solve.cold_ms")
    return hist.count if hist is not None else 0


class TestCoalescingInvariant:
    def test_16_clients_4_patterns_exactly_4_solves(self, tmp_path):
        # solve_delay_s keeps the first batch in flight long enough that the
        # barrier-released stampede genuinely overlaps it.
        before = _counters()
        cold_before = _cold_solves()
        results: dict = {}
        errors: list = []
        barrier = threading.Barrier(N_CLIENTS)

        with serve_in_thread(
            store_dir=str(tmp_path / "store"), solve_delay_s=0.05
        ) as srv:

            def worker(idx: int) -> None:
                name, factory = _DISTINCT[idx % len(_DISTINCT)]
                pattern = factory()
                if idx >= 8:  # half the clients ask for translated copies
                    pattern = pattern.translated((idx, 2 * idx + 1))
                try:
                    barrier.wait(timeout=30)
                    with ServeClient(port=srv.port) as client:
                        results[idx] = (
                            name,
                            pattern,
                            client.solve(pattern=pattern, n_max=10),
                        )
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append((idx, exc))

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(N_CLIENTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            store_entries = srv.server.store.stats()["entries"]
        after = _counters()

        assert not errors
        assert len(results) == N_CLIENTS

        # Exactly one underlying solve per distinct canonical pattern.
        assert _cold_solves() - cold_before == len(_DISTINCT)
        # Each request looks up the in-memory cache once, on the event
        # loop, before it schedules or attaches; all sixteen miss.
        assert _delta(before, after, "solve.cache.misses") == N_CLIENTS
        scheduled = _delta(before, after, "serve.coalesce.scheduled")
        attached = _delta(before, after, "serve.coalesce.attached")
        assert scheduled == len(_DISTINCT)
        assert attached == N_CLIENTS - len(_DISTINCT)
        assert _delta(before, after, "serve.coalesce.rejected") == 0

        # One artifact per distinct solve landed in the store.
        assert store_entries == len(_DISTINCT)

        # Every response is bit-identical to a direct in-process solve of
        # the *caller's own* spec (translated patterns get their offsets
        # back, not the canonical ones).
        for idx, (name, pattern, doc) in results.items():
            direct = solve(pattern, n_max=10, cache=False)
            assert solution_from_dict(doc["solution"]) == direct.solution, (
                idx,
                name,
            )

    def test_sequential_repeats_attach_to_cache_not_solver(self, tmp_path):
        before = _counters()
        with serve_in_thread(store_dir=str(tmp_path / "store")) as srv:
            with ServeClient(port=srv.port) as client:
                docs = [client.solve(benchmark="log", n_max=10) for _ in range(5)]
        after = _counters()
        assert _delta(before, after, "solve.cache.misses") == 1
        assert len({d["key"] for d in docs}) == 1
        assert all(d["solution"] == docs[0]["solution"] for d in docs)


class TestConcurrentMixedTraffic:
    """Distinct and duplicate requests racing: no lost responses, no extras."""

    @pytest.mark.parametrize("n_max_values", [(6, 8, 10, 12)])
    def test_distinct_n_max_do_not_coalesce(self, tmp_path, n_max_values):
        # Same pattern, different n_max → different solve keys → no sharing.
        before = _counters()
        results: dict = {}
        barrier = threading.Barrier(len(n_max_values))

        with serve_in_thread(
            store_dir=str(tmp_path / "store"), solve_delay_s=0.02
        ) as srv:

            def worker(n_max: int) -> None:
                barrier.wait(timeout=30)
                with ServeClient(port=srv.port) as client:
                    results[n_max] = client.solve(benchmark="log", n_max=n_max)

            threads = [
                threading.Thread(target=worker, args=(n,)) for n in n_max_values
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        after = _counters()

        assert _delta(before, after, "solve.cache.misses") == len(n_max_values)
        assert len({doc["key"] for doc in results.values()}) == len(n_max_values)
        for n_max, doc in results.items():
            direct = solve(log_pattern(), n_max=n_max, cache=False)
            assert solution_from_dict(doc["solution"]) == direct.solution
