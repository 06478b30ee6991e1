"""End-to-end request telemetry through a live server.

The acceptance tier for the tracing tentpole: a real
:class:`~repro.serve.server.ThreadedServer`, real HTTP, observability on —
asserting that one request's spans reassemble into one tree retrievable
from ``/debug/traces``, that coalesced duplicates produce exactly one
solve span plus links, and that ``/metrics`` carries valid cumulative
histogram series.
"""

from __future__ import annotations

import importlib
import math
import threading

import pytest

from repro import obs
from repro.core import Pattern, solve_cache
from repro.core.solver import solve
from repro.patterns import se_pattern
from repro.sched import TASK_HISTOGRAM, map_tasks
from repro.serve import ServeClient, ServeError, serve_in_thread


@pytest.fixture
def telemetry(monkeypatch):
    """Observability on for the whole server lifetime (and forked workers)."""
    monkeypatch.setenv("REPRO_OBS", "1")
    obs.enable()
    obs.reset()
    yield
    obs.reset()
    obs.disable()


@pytest.fixture(autouse=True)
def _clean_registry():
    obs.reset()
    yield
    obs.reset()


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


def _counter(name):
    return obs.registry().snapshot()["counters"].get(name, 0)


def _span_names(node):
    yield node["name"]
    for child in node.get("children", []):
        yield from _span_names(child)


def _name_shape(node):
    """The tree as (name, sorted child shapes) — structure, no timings."""
    return (node["name"], tuple(sorted(_name_shape(c) for c in node.get("children", []))))


def _find_tree(client, trace_id):
    traces = client.debug_traces()["traces"]
    matches = [t for t in traces if t["trace_id"] == trace_id]
    assert matches, f"trace {trace_id} not in /debug/traces"
    return matches[0]


class TestEndToEndTrace:
    def test_simulate_request_yields_full_tree(self, telemetry, tmp_path):
        with serve_in_thread(store_dir=str(tmp_path / "s"), debug=True) as srv:
            with ServeClient(port=srv.port) as client:
                doc = client.simulate(shape=(32, 32), benchmark="log", n_max=10)
                tree = _find_tree(client, doc["trace_id"])
        assert tree["spans"] >= 4
        (root,) = tree["roots"]
        assert root["name"] == "serve.request"
        assert root["attrs"]["path"] == "/simulate"
        assert root["attrs"]["status"] == 200
        names = set(_span_names(root))
        # serve -> coalesce/store -> solve -> simulate, one tree
        assert {"serve.store.get", "serve.solve", "solve.solve", "serve.simulate",
                "sim.simulate_sweep"} <= names
        solve_node = _walk_to(root, "serve.solve")
        assert _walk_to(solve_node, "solve.solve") is not None

    def test_response_has_no_trace_id_when_obs_disabled(self, tmp_path):
        obs.disable()
        with serve_in_thread(store_dir=str(tmp_path / "s"), debug=True) as srv:
            with ServeClient(port=srv.port) as client:
                doc = client.solve(benchmark="se")
                assert "trace_id" not in doc
                assert client.debug_traces()["traces"] == []


def _walk_to(node, name):
    if node["name"] == name:
        return node
    for child in node.get("children", []):
        found = _walk_to(child, name)
        if found is not None:
            return found
    return None


class TestCoalescedTraces:
    BURST = 16

    def _burst(self, port, n_max):
        barrier = threading.Barrier(self.BURST)
        docs = [None] * self.BURST

        def request(i):
            with ServeClient(port=port) as client:
                barrier.wait(timeout=10.0)
                docs[i] = client.solve(benchmark="median", n_max=n_max)

        threads = [
            threading.Thread(target=request, args=(i,)) for i in range(self.BURST)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert all(doc is not None for doc in docs)
        return docs

    @pytest.mark.slow
    def test_sixteen_duplicates_one_solve_span_followers_link(
        self, telemetry, tmp_path, count_solves
    ):
        with serve_in_thread(
            store_dir=str(tmp_path / "s"),
            solve_delay_s=0.6,
            debug=True,
            trace_buffer_size=64,
        ) as srv:
            docs = self._burst(srv.port, n_max=6)
            with ServeClient(port=srv.port) as client:
                trees = {
                    doc["trace_id"]: _find_tree(client, doc["trace_id"])
                    for doc in docs
                }
        assert count_solves["n"] == 1
        leaders = [
            tid
            for tid, tree in trees.items()
            if "serve.solve" in set(_span_names(tree["roots"][0]))
        ]
        assert len(leaders) == 1, "exactly one request's tree owns the solve span"
        leader = leaders[0]
        followers = [tid for tid in trees if tid != leader]
        assert len(followers) == self.BURST - 1
        for tid in followers:
            assert trees[tid]["links"] == [leader], (
                f"follower {tid} does not link the leader's trace"
            )
        assert trees[leader]["links"] == []

    @pytest.mark.slow
    def test_leader_tree_shape_is_stable_across_runs(
        self, telemetry, tmp_path
    ):
        shapes = []
        with serve_in_thread(
            store_dir=str(tmp_path / "s"),
            solve_delay_s=0.6,
            debug=True,
            trace_buffer_size=64,
        ) as srv:
            for n_max in (6, 7):  # distinct solve keys: both bursts solve fresh
                docs = self._burst(srv.port, n_max=n_max)
                with ServeClient(port=srv.port) as client:
                    trees = [
                        _find_tree(client, doc["trace_id"]) for doc in docs
                    ]
                leader_trees = [
                    t
                    for t in trees
                    if "serve.solve" in set(_span_names(t["roots"][0]))
                ]
                assert len(leader_trees) == 1
                shapes.append(_name_shape(leader_trees[0]["roots"][0]))
        assert shapes[0] == shapes[1], "merged tree shape varies across runs"


class TestDebugSurface:
    def test_debug_endpoints_are_gated_off_by_default(self, tmp_path):
        with serve_in_thread(store_dir=str(tmp_path / "s")) as srv:
            with ServeClient(port=srv.port) as client:
                for call in (
                    client.debug_traces,
                    client.debug_inflight,
                    client.debug_store,
                ):
                    with pytest.raises(ServeError) as info:
                        call()
                    assert info.value.http_status == 404
                    assert "disabled" in str(info.value)

    def test_debug_inflight_and_store(self, telemetry, tmp_path):
        with serve_in_thread(store_dir=str(tmp_path / "s"), debug=True) as srv:
            with ServeClient(port=srv.port) as client:
                client.solve(benchmark="se")
                inflight = client.debug_inflight()
                assert inflight["queued"] == [] and inflight["inflight"] == []
                assert inflight["pending"] == 0
                assert inflight["max_pending"] == 256
                store = client.debug_store()["store"]
                assert store["entries"] == 1
                assert store["writes"] == 1
                assert store["bytes"] > 0
                assert store["hit_rate"] == 0.0  # one lookup, one miss

    def test_debug_store_counts_canonical_groups(self, tmp_path):
        corner = Pattern([(0, 0), (0, 1), (1, 0)], name="corner")
        mirrored = Pattern([(0, 0), (0, 1), (-1, 0)], name="mirrored")
        with serve_in_thread(store_dir=str(tmp_path / "s"), debug=True) as srv:
            with ServeClient(port=srv.port) as client:
                client.solve(pattern=corner)
                client.solve(pattern=mirrored)  # same orbit, answered from memory
                groups = client.debug_store()["canonical_groups"]
        assert groups["groups"] == 1
        assert groups["collapsed"] == 1
        assert groups["max_size"] == 2
        # Without --debug nothing can read the groups, so none are kept.
        with serve_in_thread(store_dir=str(tmp_path / "t")) as srv:
            with ServeClient(port=srv.port) as client:
                client.solve(pattern=corner)
            assert len(srv.server._canon_groups) == 0

    def test_trace_buffer_is_bounded(self, telemetry, tmp_path):
        with serve_in_thread(
            store_dir=str(tmp_path / "s"), debug=True, trace_buffer_size=3
        ) as srv:
            with ServeClient(port=srv.port) as client:
                for _ in range(6):
                    client.healthz()
                doc = client.debug_traces()
                assert doc["count"] <= 3


def _parse_prometheus_histogram(text, prom_name):
    buckets, total, count = [], None, None
    for line in text.splitlines():
        if line.startswith(f'{prom_name}_bucket{{le="'):
            le, value = line.split('le="')[1].split('"}')
            buckets.append(
                (math.inf if le == "+Inf" else float(le), int(value.strip()))
            )
        elif line.startswith(f"{prom_name}_sum "):
            total = float(line.split()[1])
        elif line.startswith(f"{prom_name}_count "):
            count = int(line.split()[1])
    return buckets, total, count


class TestServeMetrics:
    def test_request_and_solve_histograms_are_valid_cumulative_series(
        self, tmp_path
    ):
        with serve_in_thread(store_dir=str(tmp_path / "s")) as srv:
            with ServeClient(port=srv.port) as client:
                client.solve(benchmark="se")
                client.solve(benchmark="log", n_max=10)
                text = client.metrics_text()
        for prom_name in (
            "repro_serve_request_latency_ms",
            "repro_solve_cold_ms",
        ):
            assert f"# TYPE {prom_name} histogram" in text, prom_name
            buckets, total, count = _parse_prometheus_histogram(text, prom_name)
            assert buckets and count and total is not None, prom_name
            bounds = [b for b, _ in buckets]
            counts = [c for _, c in buckets]
            assert bounds == sorted(bounds), f"{prom_name}: le not monotone"
            assert math.isinf(bounds[-1]), f"{prom_name}: missing +Inf bucket"
            assert counts == sorted(counts), f"{prom_name}: not cumulative"
            assert counts[-1] == count, f"{prom_name}: +Inf != _count"

    def test_metrics_include_store_counters_and_gauges(self, tmp_path):
        with serve_in_thread(store_dir=str(tmp_path / "s")) as srv:
            with ServeClient(port=srv.port) as client:
                client.solve(benchmark="median")  # miss + write
                # Drop the in-memory answer, as a restart would: the repeat
                # then reaches the store instead of being served from memory.
                solve_cache.clear()
                client.solve(benchmark="median")  # store hit, no re-solve
                text = client.metrics_text()
        assert "repro_serve_store_misses_total 1" in text
        assert "repro_serve_store_writes_total 1" in text
        assert "repro_serve_store_evictions_total 0" in text
        assert "repro_serve_store_hits_total 1" in text
        assert "repro_serve_store_entries 1" in text
        assert "repro_serve_store_max_entries 4096" in text

    def test_warm_solves_record_the_warm_histogram(self):
        # In process: the second solve() is an in-memory cache hit, which
        # lands in the warm histogram.
        solve(se_pattern())
        solve(se_pattern())
        hists = obs.registry().log_histograms()
        assert hists["solve.cold_ms"].count == 1
        assert hists["solve.warm_ms"].count == 1

        # Served: the server answers the duplicate from the in-memory cache
        # on its event loop and never re-enters solve(), so neither solver
        # histogram moves; the lookup itself counts one cache hit.
        solve_cache.clear()
        with serve_in_thread() as srv:
            with ServeClient(port=srv.port) as client:
                client.solve(benchmark="se")
                cold = obs.registry().log_histograms()["solve.cold_ms"].count
                hits = _counter("solve.cache.hits")
                client.solve(benchmark="se")
        hists = obs.registry().log_histograms()
        assert hists["solve.cold_ms"].count == cold
        assert hists["solve.warm_ms"].count == 1
        assert _counter("solve.cache.hits") == hits + 1


def _traced_double(x):
    from repro.obs.tracer import span

    with span("work.item", item=x):
        return 2 * x


class TestParallelTierTracing:
    @pytest.mark.slow
    def test_pool_spans_merge_with_worker_provenance(self, telemetry):
        with obs.trace("par1"):
            with obs.span("eval.parent"):
                assert map_tasks(
                    _traced_double, [1, 2, 3], jobs=2, placement="process"
                ) == [2, 4, 6]
        records = obs.tracer().records()
        items = [r for r in records if r.name == "work.item"]
        assert len(items) == 3
        parent = next(r for r in records if r.name == "eval.parent")
        workers = {r.attrs.get("worker_id") for r in items}
        assert all(w and w.startswith("pid") for w in workers)
        # worker-side roots were re-parented under the submitting span
        assert {r.parent_id for r in items} == {parent.span_id}
        # and each carries the request's trace id across the process border
        assert {r.trace_id for r in items} == {"par1"}
        assert obs.registry().log_histograms()[TASK_HISTOGRAM].count == 3
