"""Tests for the observability layer: tracer, metrics, attribution, export."""

import json
import threading

import pytest

from repro import obs
from repro.core import BankMapping, OpCounter, partition, solve
from repro.eval.metrics import AlgorithmRun, run_ours
from repro.obs.conflicts import ConflictTable, failed_claims
from repro.obs.report import render_conflict_report, render_span_tree
from repro.patterns import log_pattern, se_pattern
from repro.sim import simulate_sweep


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
    """Keep the process-global registry/tracer isolated between tests."""
    obs.reset()
    yield
    obs.reset()


class TestTracer:
    def test_disabled_span_is_shared_noop(self):
        obs.disable()
        handle = obs.span("should.not.record")
        assert handle is obs.NULL_SPAN
        with handle:
            pass
        assert obs.tracer().records() == []

    def test_nesting_parents(self, telemetry):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        records = {r.name: r for r in obs.tracer().records()}
        assert records["inner"].parent_id == records["outer"].span_id
        assert records["outer"].parent_id is None
        assert records["outer"].duration_ms >= records["inner"].duration_ms

    def test_ops_delta_capture(self, telemetry):
        ops = OpCounter()
        ops.add(5)  # charged before the span: must not be attributed to it
        with obs.span("work", ops=ops):
            ops.mul(3)
        (record,) = obs.tracer().records()
        assert record.ops == 3

    def test_annotate_and_attrs(self, telemetry):
        with obs.span("labelled", phase="x") as live:
            live.annotate(n_f=13)
        (record,) = obs.tracer().records()
        assert record.attrs == {"phase": "x", "n_f": 13}

    def test_thread_local_nesting(self, telemetry):
        def worker(tag):
            with obs.span(f"{tag}.outer"):
                with obs.span(f"{tag}.inner"):
                    pass

        threads = [threading.Thread(target=worker, args=(t,)) for t in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        records = {r.name: r for r in obs.tracer().records()}
        assert len(records) == 4
        for tag in ("a", "b"):
            assert (
                records[f"{tag}.inner"].parent_id
                == records[f"{tag}.outer"].span_id
            )

    def test_solver_spans_cover_phases(self, telemetry):
        partition(log_pattern(), n_max=10)
        names = [r.name for r in obs.tracer().records()]
        for expected in (
            "solve.transform",
            "solve.qset_build",
            "solve.select_n",
            "solve.minimize_nf",
            "solve.bank_limit_sweep",
            "solve.partition",
        ):
            assert expected in names, names


class TestMetrics:
    def test_counter_and_gauge(self):
        reg = obs.registry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        reg.gauge("g").set(2.5)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 2.5
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_histogram_percentiles(self):
        hist = obs.registry().histogram("h")
        for v in range(1, 101):
            hist.observe(v)
        summary = hist.summary()
        assert summary["count"] == 100
        assert summary["p50"] == 50
        assert summary["p95"] == 95
        assert summary["max"] == 100
        assert summary["mean"] == pytest.approx(50.5)

    def test_histogram_memory_does_not_grow_with_multiplicity(self):
        """``sim.cycles_per_iteration`` observes each cycle count once per
        iteration; a served ``/simulate`` may run 2^26 of them."""
        import tracemalloc

        hist = obs.registry().histogram("cycles")
        tracemalloc.start()
        try:
            hist.observe(1.0, 10**6)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert (hist.count, hist.sum, hist.max) == (10**6, 1e6, 1.0)

    def test_histogram_summary_matches_the_sorted_list_reference(self):
        import random

        rng = random.Random(29)
        sample = []
        hist = obs.registry().histogram("mixed")
        for _ in range(500):
            value = rng.choice([rng.randint(1, 40), rng.random() * 1e3, -rng.random()])
            n = rng.choice([1, 1, 1, 2, 7, 250])
            hist.observe(value, n)
            sample.extend([float(value)] * n)
        ordered = sorted(sample)

        def nearest_rank(p):
            return ordered[int(max(1, -(-len(ordered) * p // 100))) - 1]

        summary = hist.summary()
        assert summary["count"] == len(sample)
        assert summary["p50"] == nearest_rank(50)
        assert summary["p95"] == nearest_rank(95)
        assert summary["max"] == ordered[-1]
        assert summary["sum"] == pytest.approx(sum(sample), rel=1e-12)
        assert summary["mean"] == pytest.approx(sum(sample) / len(sample), rel=1e-12)
        for p in (0, 1, 33.3, 99, 100):
            assert hist.percentile(p) == nearest_rank(p)

    def test_histogram_dump_ships_value_count_pairs(self):
        from repro.obs.metrics import MetricsRegistry

        worker = MetricsRegistry()
        worker.histogram("serve.batch.size").observe(3, 5)
        worker.histogram("serve.batch.size").observe(1)
        dump = worker.dump(worker_id="w")
        assert dump["histograms"] == {"serve.batch.size": [(1.0, 1), (3.0, 5)]}
        parent = MetricsRegistry()
        parent.histogram("serve.batch.size").observe(3)
        parent.merge(json.loads(json.dumps(dump)))
        merged = parent.histogram("serve.batch.size")
        assert (merged.count, merged.sum, merged.percentile(50)) == (7, 19.0, 3.0)
        assert parent.histogram("worker.w.serve.batch.size").count == 6

    def test_empty_histogram_summary(self):
        summary = obs.registry().histogram("empty").summary()
        assert summary == {
            "count": 0, "sum": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0
        }

    def test_tracked_op_counter_mirrors_registry(self):
        reg = obs.registry()
        ops = reg.op_counter("x.ops")
        ops.add(2)
        ops.mod()
        assert ops.total == 3  # still a real OpCounter
        snap = reg.snapshot()["counters"]
        assert snap["x.ops.add"] == 2
        assert snap["x.ops.mod"] == 1
        assert snap["x.ops.total"] == 3

    def test_absorb_ops(self):
        ops = OpCounter()
        ops.mul(7)
        ops.compare(2)
        obs.registry().absorb_ops("alg.ops", ops)
        snap = obs.registry().snapshot()["counters"]
        assert snap["alg.ops.mul"] == 7
        assert snap["alg.ops.compare"] == 2
        assert snap["alg.ops.total"] == 9

    def test_tracked_counter_works_as_solver_ops(self):
        ops = obs.registry().op_counter("solve.test.ops")
        solution = partition(log_pattern(), ops=ops)
        assert solution.n_banks == 13
        snap = obs.registry().snapshot()["counters"]
        assert snap["solve.test.ops.total"] == ops.total > 0


class TestConflictAttribution:
    def test_failed_claims_formula(self):
        assert failed_claims(1, 1) == 0
        assert failed_claims(3, 1) == 3  # 2 + 1
        assert failed_claims(4, 2) == 2  # cycle 1 loses 2, cycle 2 loses 0
        assert failed_claims(5, 2) == 4  # 3 + 1
        with pytest.raises(ValueError):
            failed_claims(3, 0)

    def test_sweep_attribution_matches_report(self):
        solution = partition(log_pattern(), n_max=10)
        mapping = BankMapping(solution=solution, shape=(12, 21))
        table = ConflictTable(ports_per_bank=1)
        report = simulate_sweep(mapping, conflicts=table)
        assert table.cycle_histogram == report.cycle_histogram
        assert table.total_cycles == report.total_cycles
        assert table.iterations == report.iterations
        assert table.verify_consistent()
        assert table.total_conflicts > 0
        # 13 reads on 7 banks: six banks take 2 accesses, one failed claim
        # each, every iteration.
        assert table.total_conflicts == 6 * report.iterations

    def test_conflict_free_sweep_is_empty(self):
        mapping = BankMapping(solution=partition(se_pattern()), shape=(8, 9))
        table = ConflictTable(ports_per_bank=1)
        simulate_sweep(mapping, conflicts=table)
        assert table.per_bank == {}
        assert table.pair_counts == {}
        assert table.verify_consistent()

    def test_port_mismatch_rejected(self):
        from repro.errors import SimulationError

        mapping = BankMapping(solution=partition(se_pattern()), shape=(8, 9))
        with pytest.raises(SimulationError):
            simulate_sweep(mapping, ports_per_bank=2, conflicts=ConflictTable(1))

    def test_registry_mirrors_sweep(self, telemetry):
        solution = partition(log_pattern(), n_max=10)
        mapping = BankMapping(solution=solution, shape=(12, 21))
        report = simulate_sweep(mapping)
        snap = obs.registry().snapshot()
        assert snap["counters"]["sim.total_cycles"] == report.total_cycles
        assert snap["counters"]["sim.iterations"] == report.iterations
        hist = snap["histograms"]["sim.cycles_per_iteration"]
        assert hist["count"] == report.iterations
        bank_conflicts = sum(
            v for k, v in snap["counters"].items()
            if k.startswith("sim.bank.") and k.endswith(".conflicts")
        )
        assert bank_conflicts == 6 * report.iterations

    def test_to_dict_shape(self):
        table = ConflictTable(ports_per_bank=1)
        table.record_iteration([(0, 0), (0, 1), (1, 0)], [0, 0, 1], 2)
        payload = table.to_dict()
        assert payload["per_bank"] == {"0": 1}
        assert payload["cycle_histogram"] == {"2": 1}
        assert payload["pairs"] == [
            {"a": [0, 0], "b": [0, 1], "conflicts": 1}
        ]


class TestExport:
    def test_metrics_document_keys(self, telemetry):
        obs.registry().counter("k").inc()
        with obs.span("s"):
            pass
        doc = obs.metrics_document()
        assert set(doc) == {"schema", "counters", "gauges", "histograms", "spans"}
        assert doc["schema"] == obs.SCHEMA
        assert doc["counters"]["k"] == 1
        assert doc["spans"][0]["name"] == "s"

    def test_json_roundtrip_file(self, telemetry, tmp_path):
        obs.registry().gauge("g").set(1.25)
        path = tmp_path / "m.json"
        written = obs.write_metrics_json(str(path))
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(written))
        assert loaded["gauges"]["g"] == 1.25

    def test_spans_jsonl(self, telemetry, tmp_path):
        with obs.span("a"):
            with obs.span("b"):
                pass
        path = tmp_path / "spans.jsonl"
        obs.write_spans_jsonl(str(path))
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["name"] for l in lines] == ["b", "a"]
        assert all(l["type"] == "span" for l in lines)

    def test_csv_projection(self, tmp_path):
        obs.registry().counter("c").inc(3)
        obs.registry().histogram("h").observe(2.0)
        path = tmp_path / "m.csv"
        obs.write_metrics_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "kind,name,field,value"
        assert "counter,c,value,3" in lines
        assert any(l.startswith("histogram,h,p95,") for l in lines)

    def test_attrs_coerced_json_friendly(self, telemetry):
        with obs.span("s", shape=(3, 4)):
            pass
        event = obs.tracer().records()[0].to_dict()
        json.dumps(event)  # must not raise
        assert event["attrs"]["shape"] == "(3, 4)"


class TestReports:
    def test_render_span_tree(self, telemetry):
        with obs.span("root"):
            with obs.span("child"):
                pass
        tree = render_span_tree(obs.tracer().records())
        assert "root" in tree and "└─ child" in tree
        root_line, child_line = tree.splitlines()
        assert root_line.index("root") < child_line.index("child")

    def test_render_span_tree_empty(self):
        assert "no spans" in render_span_tree([])

    def test_render_conflict_report(self):
        table = ConflictTable(1)
        table.record_iteration([(0, 0), (0, 1)], [3, 3], 2)
        table.observed_bank_conflicts = {0: 0, 1: 0, 2: 0, 3: 1}
        text = render_conflict_report(table, n_banks=5)
        assert "bank   3" in text and "bank   4" in text  # zero row padded in
        assert "(0, 0) <-> (0, 1): 1" in text
        assert "consistent" in text


class TestEvalRouting:
    def test_run_ours_publishes_registry(self):
        run = run_ours(log_pattern(), repetitions=1)
        snap = obs.registry().snapshot()
        assert snap["gauges"]["eval.log.ours.n_banks"] == run.n_banks == 13
        assert snap["gauges"]["eval.log.ours.operations"] == run.operations
        assert snap["gauges"]["eval.log.ours.time_ms"] == run.time_ms
        assert snap["counters"]["eval.log.ours.ops.total"] > 0
        assert snap["histograms"]["eval.solve_ms.ours"]["count"] == 1

    def test_algorithm_run_roundtrip(self):
        run = AlgorithmRun(algorithm="ours", n_banks=13, operations=92, time_ms=0.5)
        assert AlgorithmRun.from_dict(run.to_dict()) == run
        assert json.loads(json.dumps(run.to_dict())) == run.to_dict()


class TestCli:
    def test_profile_cli_avg2x2(self, capsys):
        from repro.eval.cli import main_profile

        assert main_profile(["avg2x2"]) == 0
        out = capsys.readouterr().out
        assert "span tree:" in out
        assert "solve.minimize_nf" in out
        assert "sim.sweep_loop" in out
        assert "attribution totals vs simulation report: consistent" in out
        # main_profile enables obs as a side effect; restore the default.
        obs.disable()

    def test_profile_cli_constrained_conflicts(self, capsys):
        from repro.eval.cli import main_profile

        assert main_profile(["log", "--nmax", "8", "--no-verify"]) == 0
        out = capsys.readouterr().out
        assert "hottest pattern-offset pairs:" in out
        obs.disable()

    def test_profile_cli_unknown_pattern(self):
        from repro.eval.cli import main_profile

        with pytest.raises(SystemExit):
            main_profile(["nonsense!!"])
        with pytest.raises(SystemExit) as info:
            main_profile(["avg2x2", "--engine", "vectorized"])
        assert info.value.code == 2
        obs.disable()

    @pytest.mark.parametrize("command", ["table1", "verify"])
    def test_emit_metrics_into_missing_directory_fails_before_any_work(
        self, tmp_path, capsys, command
    ):
        from repro.eval.cli import main_table1
        from repro.verify.cli import main_verify

        missing = tmp_path / "missing"
        argv = ["--emit-metrics", str(missing / "m.json")]
        with pytest.raises(SystemExit) as info:
            if command == "table1":
                main_table1(
                    ["--benchmarks", "median", "--repetitions", "1", "--no-paper"]
                    + argv
                )
            else:
                main_verify(["--cases", "2"] + argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no table, no verify report: nothing ran
        assert (
            f"argument --emit-metrics: directory {str(missing)!r} does not exist"
            in captured.err
        )
        assert not missing.exists()

    def test_emit_metrics_table1(self, tmp_path, capsys):
        from repro.eval.cli import main_table1

        path = tmp_path / "metrics.json"
        rc = main_table1(
            [
                "--benchmarks", "median",
                "--repetitions", "1",
                "--no-paper",
                "--emit-metrics", str(path),
            ]
        )
        assert rc == 0
        doc = json.loads(path.read_text())
        for key in ("schema", "counters", "gauges", "histograms", "spans"):
            assert key in doc
        assert doc["gauges"]["eval.median.ours.n_banks"] == 8

    def test_emit_metrics_csv(self, tmp_path):
        from repro.eval.cli import main_casestudy

        path = tmp_path / "metrics.csv"
        assert main_casestudy(["--emit-metrics", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "kind,name,field,value"
        assert any(l.startswith("counter,eval.casestudy.ours.ops.total,") for l in lines)


class TestPrometheusExport:
    """The ``/metrics`` text format: what a stock Prometheus scraper reads."""

    def _fresh(self):
        from repro.obs.metrics import MetricsRegistry

        return MetricsRegistry()

    def test_empty_registry_renders_empty(self):
        assert obs.to_prometheus_text(self._fresh()) == ""

    def test_counter_convention(self):
        reg = self._fresh()
        reg.counter("solve.cache.hits").inc(3)
        text = obs.to_prometheus_text(reg)
        assert "# TYPE repro_solve_cache_hits_total counter" in text
        assert "repro_solve_cache_hits_total 3" in text

    def test_gauge_and_name_sanitization(self):
        reg = self._fresh()
        reg.gauge("eval.log.ours.n-banks").set(13)
        text = obs.to_prometheus_text(reg)
        # Dots and dashes both fall outside the Prometheus grammar.
        assert "# TYPE repro_eval_log_ours_n_banks gauge" in text
        assert "repro_eval_log_ours_n_banks 13" in text

    def test_histogram_exports_as_summary_with_max(self):
        reg = self._fresh()
        for value in (1.0, 2.0, 3.0, 4.0):
            reg.histogram("serve.latency_ms").observe(value)
        text = obs.to_prometheus_text(reg)
        assert "# TYPE repro_serve_latency_ms summary" in text
        assert 'repro_serve_latency_ms{quantile="0.5"}' in text
        assert 'repro_serve_latency_ms{quantile="0.95"}' in text
        assert "repro_serve_latency_ms_sum 10.0" in text
        assert "repro_serve_latency_ms_count 4" in text
        assert "# TYPE repro_serve_latency_ms_max gauge" in text
        assert "repro_serve_latency_ms_max 4.0" in text

    def test_text_ends_with_newline(self):
        reg = self._fresh()
        reg.counter("c").inc()
        assert obs.to_prometheus_text(reg).endswith("\n")

    def test_write_prometheus_file(self, tmp_path):
        reg = self._fresh()
        reg.counter("k").inc(2)
        path = tmp_path / "metrics.prom"
        obs.write_metrics_prometheus(str(path), reg)
        assert path.read_text() == "# TYPE repro_k_total counter\nrepro_k_total 2\n"

    def test_cli_emit_metrics_prom(self, tmp_path):
        from repro.eval.cli import main_table1

        path = tmp_path / "table1.prom"
        rc = main_table1(
            ["--benchmarks", "log", "--repetitions", "1", "--emit-metrics", str(path)]
        )
        assert rc == 0
        text = path.read_text()
        assert "# TYPE repro_eval_log_ours_n_banks gauge" in text
