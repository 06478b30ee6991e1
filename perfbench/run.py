"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``table1`` — in-process Table 1 and the §5 case study;
* ``serve_warm`` — repeated keys over a pre-populated ``repro-serve`` store;
* ``serve_cold`` — distinct specs on an empty store, 1 in 4 a ``/simulate``.

Every run reports every end-to-end metric.  A metric a workload does not
drive comes from an in-process reference block run in chunks between the
workload's segments (``table1_*`` on the served workloads, ``simulate_*``
where no ``/simulate`` is served), so each workload still carries the
host's in-process solve and simulate speed.  ``--trace 1`` installs per-layer
timing wrappers and reports the per-layer metrics instead.

The last line of standard output is the result; the line before it is a
``{"detail": ...}`` record with sample counts, the layer budget, the
run's provenance and every metric measured (``perfbench/report.py``
prints it as tables).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    ROOT,
    SEGMENTS,
    WORK,
    BenchmarkError,
    median,
    p95,
    require_source,
    scrub_repro_env,
    factor,
    pin_client,
    speed_summary,
    unit_speeds,
)

WORKLOADS = ("table1", "serve_warm", "serve_cold")

#: Table 1 rounds in the reference block (a round is ~30 ms on 2 cores).
REFERENCE_ROUNDS = 160

#: Simulates in the reference block (p95 has 40 samples beyond it).
REFERENCE_SIMULATES = 800


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Reference:
    """In-process figures for metrics the workload itself does not drive.

    The block runs in :data:`~common.SEGMENTS` chunks, one after each
    segment of the workload and inside the same calibrated slot, so it
    samples the host across the whole run and is scaled like the segment.
    """

    def __init__(self, seed: int, table1_needed: bool, simulate_needed: bool) -> None:
        from perfbench import serve, specs, table1

        self.serve = serve
        self.timer = table1.Table1Timer(seed) if table1_needed else None
        self.simulates = (
            specs.simulate_specs(seed, REFERENCE_SIMULATES) if simulate_needed else []
        )
        self.latencies: list = []  # (slot, ms)

    def chunk(self, slot: int) -> None:
        if self.timer is not None:
            self.timer.slot = slot
            self.timer.run_rounds(REFERENCE_ROUNDS // SEGMENTS)
        done = len(self.latencies)
        part = self.simulates[done:done + REFERENCE_SIMULATES // SEGMENTS]
        self.latencies += [(slot, ms) for ms in self.serve.time_simulates(part)]

    def figures(self, speeds: list) -> dict:
        out = {}
        if self.timer is not None:
            out.update(self.timer.figures(speeds, latency=False))
        if self.latencies:
            scaled = [
                ms * factor(speeds[slot], "client", "simulate_p50_ms")
                for slot, ms in self.latencies
            ]
            out["simulate_p50_ms"] = median(scaled)
            out["simulate_p95_ms"] = p95(scaled)
        return out

    def merge_into(self, result: dict) -> None:
        samples = result["samples"]
        if self.timer is not None:
            samples["reference_rounds"] = len(self.timer.case_ms)
            result["attempted"] += self.timer.attempted
            result["failed"] += self.timer.failed
            result["problems"] += self.timer.problems
        if self.latencies:
            samples["reference_simulate"] = len(self.latencies)
        for key, speeds in (("e2e", result["speeds"]), ("raw", unit_speeds(SEGMENTS))):
            for name, value in self.figures(speeds).items():
                result[key].setdefault(name, value)


def run_workload(name: str, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    from perfbench import serve, table1

    reference = Reference(
        seed, table1_needed=name != "table1", simulate_needed=name != "serve_cold"
    )
    if name == "table1":
        result = table1.run_table1(seed, seconds, traced, reference.chunk)
    elif name == "serve_warm":
        result = serve.serve_warm(work, seed, seconds, traced, reference.chunk)
    else:
        result = serve.serve_cold(work, seed, seconds, traced, reference.chunk)
    reference.merge_into(result)
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        require_source()
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    scrubbed = scrub_repro_env()
    pin_client()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from perfbench.common import provenance

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    section = "per_layer" if args.trace else "end_to_end"
    measured = result["layers"] if args.trace else result["e2e"]
    missing = [m["name"] for m in spec[section] if m["name"] not in measured]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    for problem in result["problems"]:
        print(f"perfbench: wrong answer: {problem}", file=sys.stderr)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "e2e": result["e2e"],
        "raw": result["raw"],
        "host_speed": speed_summary(result["speeds"]),
        "slots": [
            dict(slot, speed=speed)
            for slot, speed in zip(result.get("slots") or [{}] * SEGMENTS, result["speeds"])
        ],
        "layers": result.get("layers"),
        "budget": result.get("budget"),
        "mean_rt_us": result.get("mean_rt_us"),
        "samples": result["samples"],
        "extra": result["extra"],
        "provenance": provenance(scrubbed),
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
            for m in spec[section]
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
