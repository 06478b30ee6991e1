"""Print every benchmark metric by name and unit, per workload.

    python3 perfbench/report.py [--seed 1] [--seconds 20] [--workload serve_warm ...]

For each workload this runs ``run.py`` twice with the same seed: untraced
(the end-to-end metrics) and traced (the per-layer metrics).  It prints

* the end-to-end metrics of both runs and their difference — the tracing
  overhead;
* every per-layer metric of the traced run;
* for the served workloads, the layer budget: mean self µs per request in
  each wrapped layer, closed by ``serve.server.unaccounted`` so the rows
  sum to the mean client round trip;
* whether every answer was correct, and the run's provenance.

Exits non-zero if a run fails or any answer is wrong.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.layers import format_budget  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run.py --workload {workload} --trace {trace} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1]), proc.stderr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/report.py")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    for workload in args.workload or WORKLOADS:
        plain, plain_result, plain_err = run(workload, args.seed, seconds, 0)
        traced, traced_result, traced_err = run(workload, args.seed, seconds, 1)
        for result, err in ((plain_result, plain_err), (traced_result, traced_err)):
            ok &= result["correct"]
            sys.stderr.write(err)
        print(f"== {workload}  seed {args.seed}, {seconds:g} s per run")
        print(f"   correct: {plain_result['correct'] and traced_result['correct']}"
              f"  (untraced {plain_result['failed']}/{plain_result['attempted']} failed,"
              f" traced {traced_result['failed']}/{traced_result['attempted']} failed)")
        print(f"   samples: {plain['samples']}")
        print(f"   {'end-to-end':<34} {'unit':<6} {'untraced':>12} {'traced':>12} {'overhead':>9}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            before, after = plain["e2e"][name], traced["e2e"][name]
            overhead = f"{100.0 * (after - before) / before:+8.1f}%" if before else ""
            print(f"   {name:<34} {metric['unit']:<6} {before:12.4f} {after:12.4f} {overhead:>9}")
        print(f"   {'per-layer (traced)':<34} {'unit':<6} {'value':>12}")
        for metric in spec["per_layer"]:
            name = metric["name"]
            print(f"   {name:<34} {metric['unit']:<6} {traced['layers'][name]:12.4f}")
        if traced.get("budget"):
            print(f"   layer budget, mean round trip {traced['mean_rt_us']:.1f} us:")
            print(format_budget([tuple(row) for row in traced["budget"]], traced["mean_rt_us"]))
        print(f"   provenance: {json.dumps(plain['provenance'], sort_keys=True)}")
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
