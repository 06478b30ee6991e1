"""Request telemetry primitives: trace context, log histograms, span merge.

Unit tier for the pieces :mod:`tests.test_serve_trace` exercises end to
end: the contextvar trace identity, the O(1) latency histogram and its
Prometheus cumulative export, cross-process span-id remapping, trace-tree
reconstruction, and the shared ``--emit-metrics`` serializer.
"""

from __future__ import annotations

import json
import math
import threading

import pytest

from repro import obs
from repro.obs.metrics import (
    LOG_BUCKET_COUNT,
    LogHistogram,
    MetricsRegistry,
)
from repro.obs.reqtrace import REQUEST_SPAN, TraceBuffer, build_trace_tree
from repro.sched import TASK_HISTOGRAM, map_tasks


@pytest.fixture
def telemetry():
    """Enable observability for one test, leaving a clean disabled state."""
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


class TestTraceContext:
    def test_no_ambient_trace_by_default(self):
        assert obs.current_trace_id() is None

    def test_trace_block_sets_and_restores(self):
        with obs.trace("abc123") as tid:
            assert tid == "abc123"
            assert obs.current_trace_id() == "abc123"
        assert obs.current_trace_id() is None

    def test_trace_mints_an_id_when_omitted(self):
        with obs.trace() as tid:
            assert isinstance(tid, str) and len(tid) == 16
            assert obs.current_trace_id() == tid

    def test_trace_ids_are_distinct(self):
        assert obs.new_trace_id() != obs.new_trace_id()

    def test_nested_traces_restore_outer(self):
        with obs.trace("outer"):
            with obs.trace("inner"):
                assert obs.current_trace_id() == "inner"
            assert obs.current_trace_id() == "outer"

    def test_threads_do_not_inherit_the_trace(self):
        seen = {}
        with obs.trace("t1"):
            worker = threading.Thread(
                target=lambda: seen.setdefault("tid", obs.current_trace_id())
            )
            worker.start()
            worker.join()
        # a fresh thread has a fresh context: propagation is explicit
        assert seen["tid"] is None

    def test_spans_capture_the_ambient_trace(self, telemetry):
        with obs.trace("t1"):
            with obs.span("inside"):
                pass
        with obs.span("outside"):
            pass
        records = {r.name: r for r in obs.tracer().records()}
        assert records["inside"].trace_id == "t1"
        assert records["outside"].trace_id is None

    def test_span_links(self, telemetry):
        with obs.span("follower") as handle:
            handle.link("leader-trace")
            handle.link("leader-trace")  # deduplicated
        (record,) = obs.tracer().records()
        assert record.links == ("leader-trace",)


class TestLogHistogram:
    def test_exact_count_sum_min_max(self):
        hist = LogHistogram()
        for value in (0.5, 2.0, 8.0, 100.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(110.5)
        assert hist.min == 0.5
        assert hist.max == 100.0

    def test_bucket_array_is_fixed_size(self):
        hist = LogHistogram()
        for i in range(10_000):
            hist.observe(float(i) + 0.001)
        # O(1) memory: observations never grow the bucket array
        assert len(hist._counts) == LOG_BUCKET_COUNT + 1
        assert hist.count == 10_000

    def test_quantiles_are_clamped_to_observed_range(self):
        hist = LogHistogram()
        for _ in range(100):
            hist.observe(5.0)
        summary = hist.summary()
        # every quantile of a constant sample is that constant
        for key in ("p50", "p95", "p99", "p999"):
            assert summary[key] == pytest.approx(5.0)

    def test_quantiles_order(self):
        hist = LogHistogram()
        for i in range(1, 1001):
            hist.observe(i / 10.0)
        summary = hist.summary()
        assert summary["p50"] <= summary["p95"] <= summary["p99"] <= summary["p999"]
        assert summary["p50"] == pytest.approx(50.0, rel=0.5)

    def test_cumulative_buckets_are_monotone_and_end_at_inf(self):
        hist = LogHistogram()
        for value in (0.01, 0.5, 3.0, 1e9):  # 1e9 lands in overflow
            hist.observe(value)
        buckets = hist.buckets()
        bounds = [b for b, _ in buckets]
        counts = [c for _, c in buckets]
        assert bounds == sorted(bounds)
        assert math.isinf(bounds[-1])
        assert counts == sorted(counts)
        assert counts[-1] == hist.count

    def test_merge_dump_round_trip(self):
        a, b = LogHistogram(), LogHistogram()
        for value in (1.0, 2.0):
            a.observe(value)
        for value in (4.0, 8.0):
            b.observe(value)
        a.merge_dump(b.to_dump())
        assert a.count == 4
        assert a.sum == pytest.approx(15.0)
        assert a.min == 1.0 and a.max == 8.0

    def test_merge_dump_rejects_mismatched_buckets(self):
        hist = LogHistogram()
        dump = LogHistogram().to_dump()
        dump["counts"] = [0, 1]
        with pytest.raises(ValueError):
            hist.merge_dump(dump)

    def test_registry_kind_collision_raises(self):
        reg = MetricsRegistry()
        reg.log_histogram("lat.ms")
        with pytest.raises(ValueError):
            reg.histogram("lat.ms")
        reg.histogram("plain")
        with pytest.raises(ValueError):
            reg.log_histogram("plain")

    def test_snapshot_includes_log_histogram_summaries(self):
        reg = MetricsRegistry()
        reg.log_histogram("lat.ms").observe(3.0)
        snap = reg.snapshot()
        assert snap["histograms"]["lat.ms"]["count"] == 1
        assert "p99" in snap["histograms"]["lat.ms"]


def _parse_prometheus_histogram(text: str, prom_name: str):
    """Collect the (le, cumulative) series plus _sum/_count for one metric."""
    buckets, total, count = [], None, None
    for line in text.splitlines():
        if line.startswith(f'{prom_name}_bucket{{le="'):
            le, value = line.split("le=\"")[1].split("\"}")
            buckets.append(
                (math.inf if le == "+Inf" else float(le), int(value.strip()))
            )
        elif line.startswith(f"{prom_name}_sum "):
            total = float(line.split()[1])
        elif line.startswith(f"{prom_name}_count "):
            count = int(line.split()[1])
    return buckets, total, count


class TestPrometheusHistogramExport:
    def test_cumulative_le_series_is_valid(self):
        reg = MetricsRegistry()
        hist = reg.log_histogram("serve.request.latency_ms")
        for value in (0.4, 1.7, 12.0, 250.0):
            hist.observe(value)
        text = obs.to_prometheus_text(reg)
        assert "# TYPE repro_serve_request_latency_ms histogram" in text
        buckets, total, count = _parse_prometheus_histogram(
            text, "repro_serve_request_latency_ms"
        )
        assert buckets, "no _bucket lines"
        bounds = [b for b, _ in buckets]
        counts = [c for _, c in buckets]
        assert bounds == sorted(bounds) and math.isinf(bounds[-1])
        assert counts == sorted(counts)  # cumulative => non-decreasing
        assert counts[-1] == count == 4
        assert total == pytest.approx(264.1)

    def test_log_histogram_not_doubled_as_summary(self):
        reg = MetricsRegistry()
        reg.log_histogram("lat.ms").observe(1.0)
        text = obs.to_prometheus_text(reg)
        assert 'repro_lat_ms{quantile=' not in text
        assert "# TYPE repro_lat_ms histogram" in text


class TestTraceTree:
    def test_roots_adopted_under_request_root(self, telemetry):
        tr = obs.tracer()
        with obs.trace("req1"):
            with obs.span("serve.solve"):
                with obs.span("solve.solve"):
                    pass
            with obs.span("serve.simulate"):
                pass
        tr.record(
            obs.SpanRecord(
                span_id=tr.next_id(),
                parent_id=None,
                name=REQUEST_SPAN,
                start=0.0,
                duration_ms=10.0,
                trace_id="req1",
            )
        )
        tree = build_trace_tree("req1", tr.pop_trace("req1"))
        assert tree["trace_id"] == "req1"
        assert tree["spans"] == 4
        (root,) = tree["roots"]
        assert root["name"] == REQUEST_SPAN
        child_names = sorted(c["name"] for c in root["children"])
        assert child_names == ["serve.simulate", "serve.solve"]
        solve = next(c for c in root["children"] if c["name"] == "serve.solve")
        assert [c["name"] for c in solve["children"]] == ["solve.solve"]
        # pop_trace removed the spans from the process tracer
        assert tr.records_for("req1") == []

    def test_merge_remaps_ids_and_stamps_worker(self, telemetry):
        worker = obs.Tracer()
        with obs.trace("req1"):
            span = obs.Span(worker, "work.item", None, {})
            with span:
                pass
        events = worker.dump_since(0)
        tr = obs.tracer()
        with obs.span("parent"):
            pass
        parent_id = obs.tracer().records()[0].span_id
        tr.merge(events, parent_id=parent_id, worker_id="pid42")
        merged = tr.records_for("req1")
        assert len(merged) == 1
        assert merged[0].parent_id == parent_id
        assert merged[0].attrs["worker_id"] == "pid42"
        assert merged[0].span_id != events[0]["span_id"] or True  # remapped id space

    def test_trace_buffer_is_bounded_most_recent_first(self):
        buffer = TraceBuffer(capacity=2)
        for i in range(4):
            buffer.add({"trace_id": f"t{i}", "spans": 1, "roots": []})
        assert len(buffer) == 2
        snapshot = buffer.snapshot()
        assert [t["trace_id"] for t in snapshot] == ["t3", "t2"]
        assert buffer.find("t3") is not None
        assert buffer.find("t0") is None

    def test_tracer_trim_drops_oldest(self, telemetry):
        for i in range(10):
            with obs.span(f"s{i}"):
                pass
        obs.tracer().trim(3)
        assert [r.name for r in obs.tracer().records()] == ["s7", "s8", "s9"]


class TestZeroOverheadWhenDisabled:
    def test_span_short_circuits_to_shared_null(self):
        obs.disable()
        assert obs.span("anything", key="value") is obs.NULL_SPAN
        assert obs.span("other") is obs.NULL_SPAN  # same object every time
        with obs.span("x") as handle:
            handle.annotate(a=1)
            handle.link("t")
        assert obs.tracer().records() == []

    def test_map_tasks_serial_records_no_spans(self):
        obs.disable()
        assert map_tasks(lambda x: x + 1, [1, 2, 3], jobs=1) == [2, 3, 4]
        assert obs.tracer().records() == []
        # the latency histogram still records, in O(1) memory
        hist = obs.registry().log_histograms()[TASK_HISTOGRAM]
        assert hist.count == 3
        assert len(hist._counts) == LOG_BUCKET_COUNT + 1


class TestWorkerNamespacedMerge:
    def test_dump_merge_publishes_worker_shadows(self):
        worker_reg = MetricsRegistry()
        worker_reg.counter("solve.count").inc(2)
        worker_reg.log_histogram("solve.cold_ms").observe(5.0)
        dump = worker_reg.dump(worker_id="pid7")
        assert dump["worker_id"] == "pid7"

        parent = MetricsRegistry()
        parent.counter("solve.count").inc(1)
        parent.merge(dump)
        counters = parent.snapshot()["counters"]
        # aggregate view unchanged in meaning: contributions sum
        assert counters["solve.count"] == 3
        # provenance preserved: the worker's own tallies stay addressable
        assert counters["worker.pid7.solve.count"] == 2
        hists = parent.log_histograms()
        assert hists["solve.cold_ms"].count == 1
        assert hists["worker.pid7.solve.cold_ms"].count == 1

    def test_merge_without_worker_id_adds_no_shadows(self):
        worker_reg = MetricsRegistry()
        worker_reg.counter("c").inc()
        parent = MetricsRegistry()
        parent.merge(worker_reg.dump())
        assert "worker" not in " ".join(parent.snapshot()["counters"])


class TestSharedEmitMetrics:
    def test_json_includes_log_histogram_summaries(self, tmp_path):
        obs.registry().log_histogram("solve.cold_ms").observe(2.5)
        path = tmp_path / "metrics.json"
        assert obs.emit_metrics(str(path), announce=False) == str(path)
        doc = json.loads(path.read_text())
        assert doc["histograms"]["solve.cold_ms"]["count"] == 1
        assert "p999" in doc["histograms"]["solve.cold_ms"]

    def test_prom_suffix_dispatches_to_prometheus(self, tmp_path):
        obs.registry().counter("c").inc()
        path = tmp_path / "metrics.prom"
        obs.emit_metrics(str(path), announce=False)
        assert "repro_c_total 1" in path.read_text()

    def test_none_path_is_a_noop(self):
        assert obs.emit_metrics(None) is None

    def test_eval_and_verify_clis_share_the_serializer(self):
        # the satellite: no per-CLI serializer drift — both delegate here
        import inspect

        from repro.eval import cli as eval_cli
        from repro.verify import cli as verify_cli

        assert "emit_metrics" in inspect.getsource(eval_cli._emit_metrics)
        assert "emit_metrics" in inspect.getsource(verify_cli._emit_metrics)
