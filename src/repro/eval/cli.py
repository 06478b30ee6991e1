"""Command-line entry points.

* ``repro-table1`` — regenerate the paper's Table 1.
* ``repro-casestudy`` — regenerate the Sections 2 / 5.1 LoG walk-through.
* ``repro-partition`` — partition a user-supplied pattern or kernel: the
  library as a standalone tool.
* ``repro-profile`` — solve + simulate one pattern with full telemetry:
  span tree, cycle histogram, per-bank conflict heatmap and attribution.

Every command accepts ``--emit-metrics PATH`` to write the obs-layer
snapshot (counters/gauges/histograms plus any recorded spans) as JSON, or
as flat CSV when ``PATH`` ends in ``.csv``.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Optional, Sequence, Tuple

from ..core.mapping import BankMapping
from ..core.pattern import Pattern
from ..core.solver import Objective, solve
from ..patterns.library import BENCHMARKS, benchmark_pattern
from .casestudy import run_case_study
from .report import render_case_study, render_table1
from .table1 import build_table


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        default=None,
        help="worker processes for independent rows (default: serial)",
    )


def _add_ltb_engine(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ltb-engine",
        choices=["auto", "scalar", "vectorized", "native"],
        default="auto",
        help="LTB search engine for the instrumented run (identical results; "
        "reported LTB times always measure the scalar reference; native "
        "requires the C extension, built on first use)",
    )


def _add_emit_metrics(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--emit-metrics",
        metavar="PATH",
        default=None,
        help="write the telemetry snapshot to PATH (.json, .csv, or .prom)",
    )


def _emit_metrics(path: Optional[str], conflicts=None, extra=None) -> None:
    """Write the telemetry snapshot via the one shared serializer."""
    from ..obs.export import emit_metrics

    emit_metrics(path, conflicts=conflicts, extra=extra)


def main_table1(argv: Sequence[str] | None = None) -> int:
    """Regenerate Table 1 and print it with the published values inline."""
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's Table 1 (DAC 2015 memory partitioning)."
    )
    parser.add_argument(
        "--benchmarks",
        nargs="*",
        choices=sorted(BENCHMARKS),
        default=None,
        help="subset of rows to run (default: all seven)",
    )
    parser.add_argument(
        "--repetitions",
        type=int,
        default=20,
        help="timing repetitions for our algorithm (LTB uses 1/10th)",
    )
    parser.add_argument(
        "--no-paper", action="store_true", help="omit the published reference rows"
    )
    _add_jobs(parser)
    _add_ltb_engine(parser)
    _add_emit_metrics(parser)
    args = parser.parse_args(argv)
    table = build_table(
        args.benchmarks,
        time_repetitions=args.repetitions,
        jobs=args.jobs,
        ltb_engine=args.ltb_engine,
    )
    print(render_table1(table, include_paper=not args.no_paper))
    _emit_metrics(args.emit_metrics)
    return 0


def main_casestudy(argv: Sequence[str] | None = None) -> int:
    """Regenerate the Sections 2 / 5.1 LoG walk-through."""
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's LoG case study (Sections 2 and 5.1)."
    )
    parser.add_argument("--nmax", type=int, default=10, help="bank-count ceiling")
    _add_jobs(parser)
    _add_ltb_engine(parser)
    _add_emit_metrics(parser)
    args = parser.parse_args(argv)
    print(
        render_case_study(
            run_case_study(
                n_max=args.nmax, jobs=args.jobs, ltb_engine=args.ltb_engine
            )
        )
    )
    _emit_metrics(args.emit_metrics)
    return 0


def main_sweeps(argv: Sequence[str] | None = None) -> int:
    """Run the figure-style parameter sweeps for one benchmark pattern.

    Examples::

        repro-sweeps --benchmark log --banks 2-16
        repro-sweeps --benchmark se --factors 1,2,4,8 --jobs 4
    """
    parser = argparse.ArgumentParser(
        description=(
            "Parameter sweeps: overhead vs banks (with achieved deltaII), "
            "overhead vs resolution, throughput vs unroll factor."
        )
    )
    parser.add_argument(
        "--benchmark", choices=sorted(BENCHMARKS), default="log", help="pattern"
    )
    parser.add_argument("--shape", default="640,480", help="array shape for overhead")
    parser.add_argument("--banks", default="2-16", help="bank-count range, e.g. 2-16")
    parser.add_argument(
        "--factors", default="1,2,4", help="comma-separated unroll factors"
    )
    parser.add_argument(
        "--nmax", type=int, default=None, help="bank ceiling for the unroll series"
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print each row the moment the scheduler completes it "
        "(completion order) instead of after the section's last point",
    )
    _add_jobs(parser)
    _add_emit_metrics(parser)
    args = parser.parse_args(argv)

    from ..obs.metrics import registry as obs_registry
    from .sweeps import overhead_vs_banks, overhead_vs_resolution, throughput_vs_unroll

    pattern = benchmark_pattern(args.benchmark)
    shape = tuple(int(w) for w in args.shape.split(","))
    try:
        lo, hi = (int(part) for part in args.banks.split("-"))
    except ValueError:
        raise SystemExit(f"--banks expects LO-HI, got {args.banks!r}")
    factors = [int(f) for f in args.factors.split(",")]
    registry = obs_registry()

    def emit_overhead(_i, point):
        registry.gauge(f"sweeps.overhead.{point.n_banks}.ours").set(point.ours_elements)
        registry.gauge(f"sweeps.overhead.{point.n_banks}.ltb").set(point.ltb_elements)
        if point.delta_ii is not None:
            registry.gauge(
                f"sweeps.overhead.{point.n_banks}.delta_ii"
            ).set(point.delta_ii)
        print(
            f"{point.n_banks:>4} {point.ours_elements:>10} {point.ltb_elements:>10} "
            f"{point.delta_ii if point.delta_ii is not None else '-':>8}",
            flush=args.progress,
        )

    def emit_unroll(_i, row):
        factor, banks, ii, throughput = row
        registry.gauge(f"sweeps.unroll.{factor}.banks").set(banks)
        registry.gauge(f"sweeps.unroll.{factor}.ii").set(ii)
        registry.gauge(f"sweeps.unroll.{factor}.throughput").set(throughput)
        print(f"{factor:>6} {banks:>6} {ii:>4} {throughput:>12.2f}",
              flush=args.progress)

    def emit_resolution(_i, row):
        name, ours, ltb = row
        registry.gauge(f"sweeps.resolution.{name}.ours").set(ours)
        registry.gauge(f"sweeps.resolution.{name}.ltb").set(ltb)
        print(f"{name:>12} {ours:>6} {ltb:>6}", flush=args.progress)

    # With --progress the emitters ride the scheduler's streaming callback
    # (rows appear in completion order, no barrier); without it they replay
    # over the returned list, so output order stays the input order.
    streaming = args.progress

    print(f"overhead vs banks ({args.benchmark}, shape {shape}):")
    print(f"{'N':>4} {'ours':>10} {'ltb':>10} {'deltaII':>8}", flush=streaming)
    points = overhead_vs_banks(
        shape, range(lo, hi + 1), pattern=pattern, jobs=args.jobs,
        on_row=emit_overhead if streaming else None,
    )
    if not streaming:
        for i, point in enumerate(points):
            emit_overhead(i, point)

    print()
    print(f"throughput vs unroll (n_max={args.nmax}):")
    print(f"{'factor':>6} {'banks':>6} {'II':>4} {'elems/cycle':>12}",
          flush=streaming)
    unroll_rows = throughput_vs_unroll(
        pattern, factors, n_max=args.nmax, jobs=args.jobs,
        on_row=emit_unroll if streaming else None,
    )
    if not streaming:
        for i, row in enumerate(unroll_rows):
            emit_unroll(i, row)

    print()
    print("overhead vs resolution (9 kb blocks):")
    print(f"{'resolution':>12} {'ours':>6} {'ltb':>6}", flush=streaming)
    resolution_rows = overhead_vs_resolution(
        pattern, jobs=args.jobs, on_row=emit_resolution if streaming else None
    )
    if not streaming:
        for i, row in enumerate(resolution_rows):
            emit_resolution(i, row)

    _emit_metrics(args.emit_metrics)
    return 0


def _pattern_from_args(args: argparse.Namespace) -> Pattern:
    if args.benchmark:
        return benchmark_pattern(args.benchmark)
    if args.mask:
        rows = [[int(ch) for ch in row] for row in args.mask.split(",")]
        return Pattern.from_mask(rows, name="cli")
    if args.kernel:
        from ..hls.extract import extract_pattern
        from ..hls.frontend import parse_kernel

        with open(args.kernel) as handle:
            nest = parse_kernel(handle.read())
        return extract_pattern(nest, args.array)
    raise SystemExit("one of --benchmark, --mask, or --kernel is required")


def main_partition(argv: Sequence[str] | None = None) -> int:
    """Partition a pattern given on the command line.

    Examples::

        repro-partition --benchmark log --nmax 10
        repro-partition --mask 010,111,010 --shape 64,48
        repro-partition --kernel mykernel.c --shape 640,480 --save sol.json
    """
    parser = argparse.ArgumentParser(
        description="Memory-partition an access pattern (DAC 2015 algorithm)."
    )
    source = parser.add_argument_group("pattern source (choose one)")
    source.add_argument("--benchmark", choices=sorted(BENCHMARKS), help="a Table 1 pattern")
    source.add_argument(
        "--mask", help="comma-separated 0/1 rows, e.g. 010,111,010 for the cross"
    )
    source.add_argument("--kernel", help="path to a mini-C stencil kernel file")
    parser.add_argument("--array", default=None, help="array to extract (for --kernel)")
    parser.add_argument("--shape", default=None, help="array shape, e.g. 640,480")
    parser.add_argument("--nmax", type=int, default=None, help="bank-count ceiling")
    parser.add_argument(
        "--objective",
        choices=[o.value for o in Objective],
        default=Objective.LATENCY.value,
        help="Problem 1 optimization order",
    )
    parser.add_argument("--save", default=None, help="write the solution to a JSON file")
    parser.add_argument(
        "--emit-c", action="store_true", help="print B(x)/F(x) helper functions in C"
    )
    parser.add_argument("--grid", action="store_true", help="print a bank-index grid")
    _add_emit_metrics(parser)
    args = parser.parse_args(argv)

    from ..obs.metrics import registry as obs_registry

    pattern = _pattern_from_args(args)
    shape = tuple(int(w) for w in args.shape.split(",")) if args.shape else None

    result = solve(
        pattern,
        shape=shape,
        n_max=args.nmax,
        objective=Objective(args.objective),
        ops=obs_registry().op_counter("cli.partition.ops"),
    )
    solution = result.solution
    print(f"pattern: {pattern.size} elements, {pattern.ndim} dimensions")
    print(f"transform alpha = {solution.transform.alpha}")
    print(f"banks = {solution.n_banks} (unconstrained N_f = {solution.n_unconstrained})")
    print(f"extra initiation interval = {solution.delta_ii} "
          f"({solution.delta_ii + 1} cycle(s) per pattern access)")
    if shape:
        print(f"storage overhead = {result.overhead_elements} elements over {shape}")

    if args.grid and pattern.ndim == 2:
        from ..viz.ascii_art import render_bank_grid

        rows = pattern.extents[0] + 2
        cols = pattern.extents[1] + 4
        print(render_bank_grid(solution, rows, cols, highlight=pattern))

    if args.emit_c:
        if shape is None:
            raise SystemExit("--emit-c requires --shape")
        from ..hls.codegen import generate_bank_helpers

        mapping = BankMapping(solution=solution, shape=shape)
        print(generate_bank_helpers("X", mapping))

    if args.save:
        from ..io import save_solution

        save_solution(solution, args.save)
        print(f"solution written to {args.save}")
    _emit_metrics(args.emit_metrics)
    return 0


#: ``repro-profile avg2x2``-style synthetic pattern names.
_AVG_RE = re.compile(r"(?:avg|rect)(\d+)x(\d+)$")


def _profile_pattern(name: str) -> Pattern:
    """Resolve a profile target: benchmark name, ``avgRxC``, or a 0/1 mask."""
    key = name.lower()
    if key in BENCHMARKS:
        return benchmark_pattern(key)
    match = _AVG_RE.fullmatch(key)
    if match:
        from ..patterns.generators import rectangle

        rows, cols = int(match.group(1)), int(match.group(2))
        return rectangle((rows, cols), name=key)
    if set(key) <= set("01,"):
        return Pattern.from_mask(
            [[int(ch) for ch in row] for row in key.split(",")], name="mask"
        )
    raise SystemExit(
        f"unknown pattern {name!r}: use a benchmark ({', '.join(sorted(BENCHMARKS))}), "
        "an avgRxC window (e.g. avg2x2), or a 0/1 mask like 010,111,010"
    )


def _default_profile_shape(pattern: Pattern) -> Tuple[int, ...]:
    """A shape big enough to sweep and small enough to simulate quickly."""
    if pattern.ndim >= 3:
        return tuple(max(3 * e, e + 4) for e in pattern.extents)
    return tuple(max(4 * e, e + 8) for e in pattern.extents)


def main_profile(argv: Sequence[str] | None = None) -> int:
    """Profile one pattern end to end: solve, simulate, attribute.

    Examples::

        repro-profile avg2x2
        repro-profile log --nmax 8 --shape 24,24
        REPRO_OBS=1 repro-profile median --emit-metrics profile.json
    """
    parser = argparse.ArgumentParser(
        description=(
            "Solve and simulate one access pattern with telemetry enabled: "
            "span tree, cycle histogram, per-bank conflict attribution."
        )
    )
    parser.add_argument(
        "pattern",
        help="benchmark name, avgRxC window (e.g. avg2x2), or 0/1 mask rows",
    )
    parser.add_argument("--shape", default=None, help="array shape, e.g. 24,24")
    parser.add_argument("--nmax", type=int, default=None, help="bank-count ceiling")
    parser.add_argument("--step", type=int, default=1, help="domain stride")
    parser.add_argument("--limit", type=int, default=None, help="iteration cap")
    parser.add_argument(
        "--ports", type=int, default=1, help="ports per bank (bank bandwidth B)"
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the per-element data-corruption check (faster timings)",
    )
    parser.add_argument(
        "--engine",
        choices=["auto", "scalar", "vectorized", "native"],
        default="auto",
        help="simulation engine (identical reports; scalar shows the "
        "reference span tree, vectorized the fast path, native the "
        "C extension, built on first use)",
    )
    _add_emit_metrics(parser)
    args = parser.parse_args(argv)

    from .. import obs
    from ..obs.report import (
        render_conflict_report,
        render_cycle_histogram,
        render_span_tree,
    )
    from ..sim.memsim import simulate_sweep, speedup_vs_unpartitioned

    obs.enable()
    obs.reset()

    pattern = _profile_pattern(args.pattern)
    shape = (
        tuple(int(w) for w in args.shape.split(","))
        if args.shape
        else _default_profile_shape(pattern)
    )
    if len(shape) != pattern.ndim:
        raise SystemExit(
            f"shape {shape} does not match pattern dimensionality {pattern.ndim}"
        )

    ops = obs.registry().op_counter("profile.solve.ops")
    result = solve(pattern, shape=shape, n_max=args.nmax, ops=ops)
    solution = result.solution
    assert result.mapping is not None  # shape is always supplied here

    ports = max(args.ports, solution.bank_ports)
    conflicts = obs.ConflictTable(ports)
    report = simulate_sweep(
        result.mapping,
        step=args.step,
        limit=args.limit,
        ports_per_bank=args.ports,
        verify=not args.no_verify,
        conflicts=conflicts,
        engine=args.engine,
    )

    print(
        f"pattern {pattern.name or args.pattern}: {pattern.size} elements over "
        f"shape {shape}"
    )
    print(
        f"solution: N={solution.n_banks} (N_f={solution.n_unconstrained}), "
        f"deltaII={solution.delta_ii}, scheme={solution.scheme}, "
        f"solve ops={ops.total}"
    )
    print(
        f"simulated: {report.iterations} iterations, II={report.measured_ii:.3f}, "
        f"worst={report.worst_cycles} cycle(s), "
        f"speedup vs single bank={speedup_vs_unpartitioned(report, pattern.size):.1f}x"
    )
    print()
    print("span tree:")
    print(render_span_tree(obs.tracer().records()))
    print()
    print("cycles per iteration:")
    print(render_cycle_histogram(report.cycle_histogram))
    print()
    print(render_conflict_report(conflicts, n_banks=solution.n_banks))
    consistent = conflicts.cycle_histogram == report.cycle_histogram
    print(
        "attribution totals vs simulation report: "
        + ("consistent" if consistent else "MISMATCH")
    )

    _emit_metrics(
        args.emit_metrics,
        conflicts=conflicts,
        extra={
            "report": report.to_dict(),
            "solution": {
                "pattern": pattern.name or args.pattern,
                "n_banks": solution.n_banks,
                "n_unconstrained": solution.n_unconstrained,
                "delta_ii": solution.delta_ii,
                "scheme": solution.scheme,
            },
        },
    )
    return 0 if consistent and conflicts.verify_consistent() else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main_table1())
