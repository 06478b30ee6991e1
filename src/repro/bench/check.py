"""``repro-bench-check`` — the continuous performance-regression gate.

Runs the :mod:`bench_perf_suite` workloads fresh, compares every gated
metric against the committed baseline
(``benchmarks/baselines/BENCH_baseline.json``), and exits nonzero when a
metric regressed.  Thresholds are noise-tolerant by construction:

* **Relative slack** — a timing only regresses when it exceeds
  ``baseline × slack`` (default ``--slack 2.5``, so an injected 3×
  slowdown fails while run-to-run jitter passes).
* **Absolute floor** — sub-floor deltas never regress, so a 0.2 ms →
  0.6 ms blip on a microsecond-scale workload cannot fail the gate.
* **Median-of-k** — ``--runs k`` executes the suite ``k`` times and
  gates on the per-metric median, squeezing out scheduler noise.

Examples::

    repro-bench-check                          # gate against the baseline
    repro-bench-check --quick --slack 6        # CI: one fast, tolerant pass
    repro-bench-check --runs 3 --report r.json # careful local run
    repro-bench-check --update-baseline        # re-baseline after a perf PR

Exit status: ``0`` clean, ``1`` regression(s), ``2`` usage/baseline
problems.  Throughput metrics (``rps``) gate in the opposite direction —
a regression is the candidate falling *below* ``baseline / slack``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

#: Stable ``sys.modules`` key for the loaded suite — tests monkeypatch the
#: module under this key to inject slowdowns without touching the file.
SUITE_MODULE_KEY = "repro_bench_perf_suite"

_REPO_ROOT = Path(__file__).resolve().parents[3]

#: Default committed baseline location (repo-relative).
DEFAULT_BASELINE = _REPO_ROOT / "benchmarks" / "baselines" / "BENCH_baseline.json"

#: Default suite script location (repo-relative).
DEFAULT_SUITE = _REPO_ROOT / "benchmarks" / "bench_perf_suite.py"

#: Gated metrics: (section, metric, kind, floor).  ``kind`` is ``"time"``
#: (lower is better; floor in the metric's own unit) or ``"throughput"``
#: (higher is better).  The serve rows get generous floors — single-request
#: latencies against a live server are the noisiest numbers in the suite.
CHECKS: List[Dict[str, Any]] = [
    {"section": "simulate", "metric": "scalar_s", "kind": "time", "floor": 0.005},
    {"section": "simulate", "metric": "vectorized_s", "kind": "time", "floor": 0.005},
    {"section": "solve", "metric": "cold_s", "kind": "time", "floor": 0.005},
    {"section": "solve", "metric": "warm_s", "kind": "time", "floor": 0.005},
    {"section": "sweep", "metric": "scalar_s", "kind": "time", "floor": 0.005},
    {"section": "sweep", "metric": "vectorized_s", "kind": "time", "floor": 0.005},
    {"section": "ltb_search", "metric": "scalar_s", "kind": "time", "floor": 0.005},
    {"section": "ltb_search", "metric": "vectorized_s", "kind": "time", "floor": 0.005},
    {"section": "baseline_sim", "metric": "scalar_s", "kind": "time", "floor": 0.005},
    {"section": "baseline_sim", "metric": "vectorized_s", "kind": "time", "floor": 0.005},
    # Native-engine columns are emitted only when the compiled extension is
    # built, so they gate as ``optional``: absent from the candidate →
    # skipped (with a visible reason), present → held to the same slack as
    # every other timing.
    {"section": "simulate", "metric": "native_s", "kind": "time", "floor": 0.005, "optional": True},
    {"section": "ltb_search", "metric": "native_s", "kind": "time", "floor": 0.005, "optional": True},
    {"section": "baseline_sim", "metric": "native_s", "kind": "time", "floor": 0.005, "optional": True},
    {"section": "serve", "metric": "p50_ms", "kind": "time", "floor": 25.0},
    {"section": "serve", "metric": "rps", "kind": "throughput", "floor": 50.0},
    {"section": "dag", "metric": "flat_wall_s", "kind": "time", "floor": 0.01},
    {"section": "dag", "metric": "dag_wall_s", "kind": "time", "floor": 0.01},
    {"section": "dag", "metric": "dag_rows_per_s", "kind": "throughput", "floor": 100.0},
    # Zipf warm-traffic rows: latency like the serve rows (noisy, generous
    # floors), plus cold_solves with a zero floor — canonicalization quietly
    # weakening (more distinct solves for the same traffic) is a perf
    # regression even when each individual solve stays fast.
    {"section": "zipf", "metric": "p50_ms", "kind": "time", "floor": 25.0},
    {"section": "zipf", "metric": "p99_ms", "kind": "time", "floor": 50.0},
    {"section": "zipf", "metric": "cold_solves", "kind": "time", "floor": 0.0},
]


def load_suite(path: Optional[Path] = None):
    """Import ``bench_perf_suite.py`` under a stable module key."""
    if SUITE_MODULE_KEY in sys.modules:
        return sys.modules[SUITE_MODULE_KEY]
    suite_path = Path(path) if path is not None else DEFAULT_SUITE
    if not suite_path.is_file():
        raise FileNotFoundError(f"bench suite not found: {suite_path}")
    spec = importlib.util.spec_from_file_location(SUITE_MODULE_KEY, suite_path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    sys.modules[SUITE_MODULE_KEY] = module
    spec.loader.exec_module(module)
    return module


def run_candidate(
    preset: str,
    repeat: int,
    runs: int,
    suite_path: Optional[Path] = None,
) -> Dict[str, Any]:
    """Run the suite ``runs`` times; gate metrics become per-metric medians."""
    module = load_suite(suite_path)
    documents = [module.run_suite(preset, repeat=repeat) for _ in range(runs)]
    if len(documents) == 1:
        return documents[0]
    merged = documents[0]
    for check in CHECKS:
        section = check["section"]
        metric = check["metric"]
        for i, row in enumerate(merged.get(section, [])):
            samples = [
                doc[section][i][metric]
                for doc in documents
                if metric in doc.get(section, [{}] * (i + 1))[i]
            ]
            if samples:
                row[metric] = statistics.median(samples)
    merged["median_of"] = len(documents)
    return merged


def _rows_by_workload(doc: Dict[str, Any], section: str) -> Dict[str, Dict[str, Any]]:
    return {row["workload"]: row for row in doc.get(section, []) if "workload" in row}


def compare_documents(
    baseline: Dict[str, Any],
    candidate: Dict[str, Any],
    slack: float = 2.5,
) -> Dict[str, Any]:
    """Evaluate every gated metric; returns the full check report.

    A ``time`` metric regresses when ``candidate > baseline * slack`` AND
    the absolute delta exceeds the check's floor; ``throughput`` is the
    mirror image (``candidate < baseline / slack`` and delta over floor).
    A workload present in the baseline but missing from the candidate is a
    regression (the bench silently disappearing must not pass the gate) —
    except for checks marked ``optional``, which are *skipped* when absent
    from the candidate (the native engine's columns only exist on trees
    with the extension built) but still gate whenever present.
    """
    if slack <= 1.0:
        raise ValueError(f"slack must be > 1.0, got {slack}")
    checks: List[Dict[str, Any]] = []
    for check in CHECKS:
        section, metric = check["section"], check["metric"]
        kind, floor = check["kind"], check["floor"]
        optional = bool(check.get("optional"))
        base_rows = _rows_by_workload(baseline, section)
        cand_rows = _rows_by_workload(candidate, section)
        for workload, base_row in base_rows.items():
            if metric not in base_row:
                continue
            entry: Dict[str, Any] = {
                "section": section,
                "workload": workload,
                "metric": metric,
                "kind": kind,
                "baseline": base_row[metric],
            }
            cand_row = cand_rows.get(workload)
            if cand_row is None or metric not in cand_row:
                if optional:
                    entry.update(
                        candidate=None,
                        regression=False,
                        skipped=True,
                        reason=(
                            "optional metric absent from the candidate run "
                            "(native extension not built here)"
                        ),
                    )
                else:
                    entry.update(
                        candidate=None,
                        regression=True,
                        reason="workload missing from the candidate run",
                    )
                checks.append(entry)
                continue
            base = float(base_row[metric])
            cand = float(cand_row[metric])
            entry["candidate"] = cand
            entry["ratio"] = (cand / base) if base else None
            if kind == "throughput":
                regressed = cand < base / slack and (base - cand) > floor
                reason = (
                    f"{metric} fell {base:.6g} -> {cand:.6g} "
                    f"(limit {base / slack:.6g})"
                )
            else:
                regressed = cand > base * slack and (cand - base) > floor
                reason = (
                    f"{metric} rose {base:.6g} -> {cand:.6g} "
                    f"(limit {base * slack:.6g})"
                )
            entry["regression"] = regressed
            if regressed:
                entry["reason"] = reason
            checks.append(entry)
    regressions = [c for c in checks if c["regression"]]
    skipped = [c for c in checks if c.get("skipped")]
    return {
        "slack": slack,
        "checks": checks,
        "checked": len(checks),
        "regressions": len(regressions),
        "skipped": len(skipped),
        "ok": not regressions,
    }


def _print_report(report: Dict[str, Any]) -> None:
    for entry in report["checks"]:
        if entry["regression"]:
            print(
                f"REGRESSION {entry['section']}/{entry['workload']} "
                f"{entry['metric']}: {entry.get('reason', 'missing')}"
            )
    for entry in report["checks"]:
        if entry.get("skipped"):
            print(
                f"skipped {entry['section']}/{entry['workload']} "
                f"{entry['metric']}: {entry['reason']}"
            )
    print(
        f"bench-check: {report['checked']} metric(s) checked, "
        f"{report['regressions']} regression(s), "
        f"{report.get('skipped', 0)} optional skipped "
        f"(slack {report['slack']:g}x)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench-check",
        description=(
            "Run the perf suite and fail (exit 1) when any gated metric "
            "regressed past the committed baseline."
        ),
    )
    parser.add_argument(
        "--baseline",
        default=str(DEFAULT_BASELINE),
        metavar="PATH",
        help="committed baseline document (default: benchmarks/baselines/)",
    )
    parser.add_argument(
        "--suite",
        default=None,
        metavar="PATH",
        help="bench suite script (default: benchmarks/bench_perf_suite.py)",
    )
    parser.add_argument(
        "--preset",
        choices=["micro", "small", "full"],
        default=None,
        help="workload preset (default: whatever the baseline was run with)",
    )
    parser.add_argument(
        "--repeat", type=int, default=3, help="best-of repetitions per timing"
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=1,
        metavar="K",
        help="suite executions; metrics gate on the per-metric median",
    )
    parser.add_argument(
        "--slack",
        type=float,
        default=2.5,
        help="relative tolerance: fail only past baseline*slack (default 2.5)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="fastest useful pass: --repeat 1 --runs 1 (CI per-push mode)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the fresh run to the baseline path instead of gating",
    )
    parser.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="also write the full check report as JSON to PATH",
    )
    return parser


def main_bench_check(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro-bench-check`` console script."""
    args = build_parser().parse_args(argv)
    if args.quick:
        args.repeat = 1
        args.runs = 1
    if args.runs < 1 or args.repeat < 1:
        print("bench-check: --runs and --repeat must be positive", file=sys.stderr)
        return 2

    baseline_path = Path(args.baseline)
    suite_path = Path(args.suite) if args.suite else None

    if args.update_baseline:
        preset = args.preset or "small"
        doc = run_candidate(preset, args.repeat, args.runs, suite_path)
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"baseline updated: {baseline_path} (preset {preset})")
        return 0

    if not baseline_path.is_file():
        print(
            f"bench-check: no baseline at {baseline_path} — run with "
            "--update-baseline first",
            file=sys.stderr,
        )
        return 2
    try:
        baseline = json.loads(baseline_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"bench-check: unreadable baseline: {exc}", file=sys.stderr)
        return 2

    preset = args.preset or baseline.get("preset", "small")
    if preset != baseline.get("preset"):
        print(
            f"bench-check: preset {preset!r} does not match the baseline's "
            f"{baseline.get('preset')!r}; comparing anyway (shared workloads only)"
        )
    candidate = run_candidate(preset, args.repeat, args.runs, suite_path)
    report = compare_documents(baseline, candidate, slack=args.slack)
    report["baseline_path"] = str(baseline_path)
    report["preset"] = preset
    report["runs"] = args.runs
    report["repeat"] = args.repeat
    report["candidate"] = candidate
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"report written to {args.report}")
    _print_report(report)
    return 0 if report["ok"] else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main_bench_check())
