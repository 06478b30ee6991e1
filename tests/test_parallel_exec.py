"""Parallel harnesses: determinism, registry transport, CLI plumbing.

Every ``jobs=N`` path must return exactly what the serial path returns, in
the same order, with the same metrics published — parallelism is a speed
knob, never a semantics knob.  The executor itself (:mod:`repro.sched`) is
covered in ``test_sched.py``.
"""

from __future__ import annotations

import json

from repro.eval.casestudy import run_case_study
from repro.eval.cli import main_casestudy, main_sweeps, main_table1
from repro.eval.sweeps import overhead_vs_banks, throughput_vs_unroll
from repro.eval.table1 import build_table
from repro.obs import metrics as obs_metrics
from repro.patterns import log_pattern


class TestParallelSweeps:
    def test_overhead_vs_banks_matches_serial(self):
        shape = (64, 48)
        banks = range(2, 10)
        serial = overhead_vs_banks(shape, banks, pattern=log_pattern())
        parallel = overhead_vs_banks(shape, banks, pattern=log_pattern(), jobs=3)
        assert parallel == serial
        assert [p.n_banks for p in parallel] == list(banks)

    def test_throughput_vs_unroll_matches_serial(self):
        serial = throughput_vs_unroll(log_pattern(), (1, 2, 4))
        parallel = throughput_vs_unroll(log_pattern(), (1, 2, 4), jobs=2)
        assert parallel == serial


class TestParallelTable1:
    BENCHES = ["log", "se"]

    def test_rows_match_serial(self):
        serial = build_table(self.BENCHES, time_repetitions=1)
        parallel = build_table(self.BENCHES, time_repetitions=1, jobs=2)
        assert [r.benchmark for r in parallel.rows] == self.BENCHES
        for s, p in zip(serial.rows, parallel.rows):
            # Timing fields jitter; every derived/solution field must match.
            assert s.benchmark == p.benchmark
            assert s.ours.n_banks == p.ours.n_banks
            assert s.ours.operations == p.ours.operations
            assert s.ltb.n_banks == p.ltb.n_banks
            assert s.ltb.operations == p.ltb.operations
            assert s.storage == p.storage

    def test_worker_metrics_merged_in_parent(self):
        reg = obs_metrics.registry()
        reg.reset()
        table = build_table(self.BENCHES, time_repetitions=1, jobs=2)
        gauges = reg.snapshot()["gauges"]
        # Worker-side publishes travel back via registry dumps — the
        # parent registry must show each row's gauges with worker values.
        for row in table.rows:
            assert gauges[f"eval.{row.benchmark}.ours.n_banks"] == row.ours.n_banks
            assert gauges[f"eval.{row.benchmark}.ltb.n_banks"] == row.ltb.n_banks


class TestParallelCaseStudy:
    def test_matches_serial(self):
        serial = run_case_study(shape=(64, 48), n_max=10)
        parallel = run_case_study(shape=(64, 48), n_max=10, jobs=2)
        assert parallel == serial


class TestCli:
    def test_table1_jobs_smoke(self, capsys, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        rc = main_table1(
            [
                "--benchmarks",
                "log",
                "se",
                "--repetitions",
                "1",
                "--jobs",
                "2",
                "--emit-metrics",
                str(metrics_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "log" in out
        payload = json.loads(metrics_path.read_text())
        assert "counters" in payload

    def test_casestudy_jobs_smoke(self, capsys):
        rc = main_casestudy(["--nmax", "10", "--jobs", "2"])
        assert rc == 0
        assert "LoG" in capsys.readouterr().out

    def test_sweeps_smoke(self, capsys, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        rc = main_sweeps(
            [
                "--benchmark",
                "log",
                "--shape",
                "64,48",
                "--banks",
                "2-6",
                "--factors",
                "1,2",
                "--jobs",
                "2",
                "--emit-metrics",
                str(metrics_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "overhead" in out.lower()
        payload = json.loads(metrics_path.read_text())
        gauges = payload["gauges"]
        assert any(k.startswith("sweeps.overhead.") for k in gauges)
        assert any(k.startswith("sweeps.unroll.") for k in gauges)
