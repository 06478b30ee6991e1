"""``repro-verify`` — the differential fuzzing entry point.

Examples::

    repro-verify --cases 500 --seed 0
    repro-verify --cases 500 --seed 42 --jobs 2 --corpus corpus.jsonl \\
        --counterexamples out/
    repro-verify --replay tests/corpus/verify_seed.jsonl
    repro-verify --replay out/counterexample-42-17.json

Exit status is 0 iff every oracle passed on every case; failing runs
print one line per failing case plus the shrunk counterexample (when
shrinking is enabled) so the log alone is enough to reproduce.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from ..obs.export import metrics_path
from .runner import SuiteReport, replay_paths, run_suite
from .shrink import DEFAULT_BUDGET


def _emit_metrics(path: Optional[str]) -> None:
    """Write the telemetry snapshot via the one shared serializer."""
    from ..obs.export import emit_metrics

    emit_metrics(path)


def _print_report(report: SuiteReport) -> None:
    summary = report.summary()
    print(
        f"verify: {summary['cases']} case(s), "
        f"{summary['failing_cases']} failing, "
        f"{summary['failures']} oracle failure(s) "
        f"in {summary['elapsed_s']:.3f}s"
    )
    if report.corpus_path:
        print(f"corpus written to {report.corpus_path}")
    for record in report.failing_records:
        case = record["case"]
        oracles = ", ".join(sorted({f["oracle"] for f in record["failures"]}))
        print(f"FAIL seed={case['seed']} index={case['index']} [{oracles}]")
        for failure in record["failures"]:
            print(f"  {failure['oracle']}: {failure['message']}")
    for artifact in report.counterexamples:
        print("shrunk counterexample:")
        print(json.dumps(artifact["shrunk"], sort_keys=True))
        print(f"  still fails {artifact['failure']['oracle']}: "
              f"{artifact['failure']['message']}")


def main_verify(argv: Sequence[str] | None = None) -> int:
    """Run (or replay) a seeded differential-fuzzing suite."""
    parser = argparse.ArgumentParser(
        description=(
            "Seeded differential fuzzing of the memory-partitioning stack: "
            "cross-checks solver, LTB engines, simulators, and closed-form "
            "properties on deterministic random cases."
        )
    )
    parser.add_argument(
        "--cases", type=int, default=200, metavar="N",
        help="number of generated cases (ignored with --replay; default 200)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="suite seed; the same seed enumerates the same cases anywhere",
    )
    parser.add_argument(
        "--start", type=int, default=0, metavar="INDEX",
        help="first case index (resume/shard a long suite)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (default: serial in-process)",
    )
    parser.add_argument(
        "--replay", nargs="+", default=None, metavar="PATH",
        help="re-run cases from corpus/counterexample/spec files instead of "
        "generating them",
    )
    parser.add_argument(
        "--corpus", default=None, metavar="PATH",
        help="write every case + verdict to PATH as JSONL",
    )
    parser.add_argument(
        "--counterexamples", default=None, metavar="DIR",
        help="write shrunk counterexample artifacts for failing cases to DIR",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="report failures raw, without counterexample minimization",
    )
    parser.add_argument(
        "--shrink-budget", type=int, default=DEFAULT_BUDGET, metavar="N",
        help=f"max oracle re-runs per shrink (default {DEFAULT_BUDGET})",
    )
    parser.add_argument(
        "--emit-metrics", metavar="PATH", default=None, type=metrics_path,
        help="write the telemetry snapshot to PATH (.json, .csv, or .prom)",
    )
    args = parser.parse_args(argv)

    if args.replay:
        report = replay_paths(
            args.replay, jobs=args.jobs, corpus_path=args.corpus
        )
    else:
        if args.cases < 0:
            raise SystemExit(f"--cases must be non-negative, got {args.cases}")
        report = run_suite(
            args.cases,
            args.seed,
            jobs=args.jobs,
            corpus_path=args.corpus,
            counterexample_dir=args.counterexamples,
            shrink=not args.no_shrink,
            shrink_budget=args.shrink_budget,
            start=args.start,
        )

    _print_report(report)
    _emit_metrics(args.emit_metrics)
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main_verify())
