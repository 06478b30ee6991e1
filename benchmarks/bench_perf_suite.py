"""Performance trajectory suite: time the hot paths, write ``BENCH_perf.json``.

Unlike the ``bench_*`` pytest benches (which regenerate *paper numbers*),
this suite tracks the *implementation's* speed across PRs: solver, sweep,
and simulator timings for scalar vs vectorized engines and cold vs warm
cache, written as one JSON document (``BENCH_perf.json`` in the current
directory unless ``--output`` says otherwise; CI runs it from the repo
root) so CI can archive the trajectory.

Run directly (not through pytest)::

    PYTHONPATH=src python benchmarks/bench_perf_suite.py --preset small
    PYTHONPATH=src python benchmarks/bench_perf_suite.py --preset full

The ``full`` preset includes the acceptance workload: a 512×512 image
swept by the 3×3 stencil, where the vectorized engine must beat the scalar
reference by ≥ 10× while producing a bit-identical report.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.baselines import (
    BlockScheme,
    CyclicScheme,
    block_mapping,
    cyclic_mapping,
    ltb_partition,
)
from repro import native as repro_native
from repro.core import OpCounter, partition, same_size_sweep, solve, solve_cache
from repro.core.mapping import BankMapping
from repro.core.pattern import Pattern
from repro.patterns.generators import rectangle, unrolled
from repro.patterns.library import gaussian_pattern, log_pattern, median_pattern
from repro.sched import Task, map_tasks, run_stream
from repro.sim import simulate_sweep

#: (name, pattern factory, simulation shape) per preset.  ``micro`` exists
#: for the regression gate's tests: small enough to run twice in a test,
#: same document shape as the real presets.
PRESETS: Dict[str, List[Any]] = {
    "micro": [
        ("stencil3x3_24", lambda: rectangle((3, 3), name="avg3x3"), (24, 24)),
    ],
    "small": [
        ("stencil3x3_64", lambda: rectangle((3, 3), name="avg3x3"), (64, 64)),
        ("log_48", log_pattern, (48, 48)),
    ],
    "full": [
        ("stencil3x3_512", lambda: rectangle((3, 3), name="avg3x3"), (512, 512)),
        ("log_256", log_pattern, (256, 256)),
        ("median_256", median_pattern, (256, 256)),
    ],
}

#: (name, pattern factory) for the LTB search bench.  The full preset adds
#: the unrolled acceptance workloads, where the vectorized engine must beat
#: the scalar enumeration by >= 20x with bit-identical results.
LTB_WORKLOADS: Dict[str, List[Any]] = {
    "micro": [
        ("median", median_pattern),
    ],
    "small": [
        ("median", median_pattern),
        ("gaussian", gaussian_pattern),
    ],
    "full": [
        ("median", median_pattern),
        ("gaussian", gaussian_pattern),
        ("gaussian_unroll2", lambda: unrolled(gaussian_pattern(), 2)),
        ("median_unroll5", lambda: unrolled(median_pattern(), 5)),
    ],
}


def _best_of(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _native_sim_columns(
    mapping: BankMapping, scalar_report, scalar_s: float, repeat: int
) -> Dict[str, Any]:
    """``native_*`` columns for a simulate row, or ``{}`` when the
    extension is unavailable.

    The native columns are *additive*: a host without the extension emits
    the same document minus these keys, and ``repro-bench-check`` treats
    them as optional (gated only when present).
    """
    if not repro_native.available():
        return {}
    native_s = _best_of(
        lambda: simulate_sweep(mapping, verify=False, engine="native"), repeat
    )
    native_report = simulate_sweep(mapping, verify=False, engine="native")
    return {
        "native_s": native_s,
        "native_speedup": scalar_s / native_s if native_s else float("inf"),
        "native_identical": scalar_report == native_report,
    }


def _bench_simulate(
    name: str, pattern: Pattern, shape: Sequence[int], repeat: int
) -> Dict[str, Any]:
    solution = partition(pattern, cache=False)
    mapping = BankMapping(solution=solution, shape=tuple(shape))
    # verify=False for the timing runs: the scalar verify path re-derives
    # every element in Python and would otherwise dominate both engines.
    scalar_s = _best_of(
        lambda: simulate_sweep(mapping, verify=False, engine="scalar"), repeat
    )
    vector_s = _best_of(
        lambda: simulate_sweep(mapping, verify=False, engine="vectorized"), repeat
    )
    scalar_report = simulate_sweep(mapping, verify=False, engine="scalar")
    vector_report = simulate_sweep(mapping, verify=False, engine="vectorized")
    row = {
        "workload": name,
        "shape": list(shape),
        "pattern_elements": pattern.size,
        "iterations": scalar_report.iterations,
        "scalar_s": scalar_s,
        "vectorized_s": vector_s,
        "speedup": scalar_s / vector_s if vector_s else float("inf"),
        "reports_identical": scalar_report == vector_report,
    }
    row.update(_native_sim_columns(mapping, scalar_report, scalar_s, repeat))
    return row


def _bench_solve(name: str, pattern: Pattern, repeat: int) -> Dict[str, Any]:
    solve_cache.clear()
    cold_s = _best_of(lambda: solve(pattern, n_max=8, cache=False), repeat)
    solve_cache.clear()
    solve(pattern, n_max=8)  # prime
    warm_s = _best_of(lambda: solve(pattern, n_max=8), repeat)
    cache = solve_cache.cache()
    return {
        "workload": name,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / warm_s if warm_s else float("inf"),
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
    }


def _bench_sweep(name: str, pattern: Pattern, n_max: int, repeat: int) -> Dict[str, Any]:
    scalar_s = _best_of(
        lambda: same_size_sweep(pattern, n_max, engine="scalar"), repeat
    )
    vector_s = _best_of(
        lambda: same_size_sweep(pattern, n_max, engine="vectorized"), repeat
    )
    identical = same_size_sweep(pattern, n_max, engine="scalar") == same_size_sweep(
        pattern, n_max, engine="vectorized"
    )
    return {
        "workload": name,
        "n_max": n_max,
        "scalar_s": scalar_s,
        "vectorized_s": vector_s,
        "speedup": scalar_s / vector_s if vector_s else float("inf"),
        "results_identical": identical,
    }


def _ltb_observables(pattern: Pattern, engine: str):
    ops = OpCounter()
    result = ltb_partition(pattern, ops=ops, engine=engine)
    return (
        result.solution.n_banks,
        result.solution.transform.alpha,
        result.vectors_tried,
        result.candidates_tried,
        ops.counts,
    )


def _bench_ltb_search(name: str, pattern: Pattern, repeat: int) -> Dict[str, Any]:
    scalar_s = _best_of(lambda: ltb_partition(pattern, engine="scalar"), repeat)
    vector_s = _best_of(lambda: ltb_partition(pattern, engine="vectorized"), repeat)
    scalar_obs = _ltb_observables(pattern, "scalar")
    vector_obs = _ltb_observables(pattern, "vectorized")
    n_banks, alpha, vectors_tried, _, _ = vector_obs
    row = {
        "workload": name,
        "pattern_elements": pattern.size,
        "solution": {"n_banks": n_banks, "alpha": list(alpha)},
        "vectors_tried": vectors_tried,
        "scalar_s": scalar_s,
        "vectorized_s": vector_s,
        "speedup": scalar_s / vector_s if vector_s else float("inf"),
        "reports_identical": scalar_obs == vector_obs,
    }
    if repro_native.available():
        native_s = _best_of(
            lambda: ltb_partition(pattern, engine="native"), repeat
        )
        row.update(
            native_s=native_s,
            native_speedup=scalar_s / native_s if native_s else float("inf"),
            native_identical=scalar_obs == _ltb_observables(pattern, "native"),
        )
    return row


def _bench_baseline_sim(
    name: str, shape: Sequence[int], repeat: int
) -> List[Dict[str, Any]]:
    """Time the registered cyclic/block bulk kernels against scalar replay."""
    pattern = rectangle((3, 3), name="avg3x3")
    mappings = [
        ("cyclic", cyclic_mapping(CyclicScheme(dim=0, n_banks=8, ndim=2), pattern, shape)),
        ("block", block_mapping(BlockScheme(dim=0, n_banks=4, shape=tuple(shape)), pattern)),
    ]
    rows = []
    for scheme_name, mapping in mappings:
        scalar_s = _best_of(
            lambda: simulate_sweep(mapping, verify=False, engine="scalar"), repeat
        )
        vector_s = _best_of(
            lambda: simulate_sweep(mapping, verify=False, engine="vectorized"), repeat
        )
        scalar_report = simulate_sweep(mapping, verify=False, engine="scalar")
        vector_report = simulate_sweep(mapping, verify=False, engine="vectorized")
        row = {
            "workload": f"{name}_{scheme_name}",
            "scheme": scheme_name,
            "shape": list(shape),
            "n_banks": mapping.n_banks,
            "scalar_s": scalar_s,
            "vectorized_s": vector_s,
            "speedup": scalar_s / vector_s if vector_s else float("inf"),
            "reports_identical": scalar_report == vector_report,
        }
        row.update(_native_sim_columns(mapping, scalar_report, scalar_s, repeat))
        rows.append(row)
    return rows


#: DAG-vs-flat grids: translated copies of each base pattern share one
#: canonical solve, so a grid of ``len(bases) × len(n_maxes)`` distinct
#: solves fans out to ``× translations`` cells (8x sharing everywhere —
#: comfortably past the 4x the acceptance criterion asks for).
DAG_GRIDS: Dict[str, Dict[str, Any]] = {
    "micro": {
        "bases": [("log", log_pattern)],
        "n_maxes": [8, 10],
        "translations": 8,
        "shape": (32, 32),
    },
    "small": {
        "bases": [("log", log_pattern), ("median", median_pattern)],
        "n_maxes": [8, 10],
        "translations": 8,
        "shape": (48, 48),
    },
    "full": {
        "bases": [
            ("log", log_pattern),
            ("median", median_pattern),
            ("gaussian", gaussian_pattern),
        ],
        "n_maxes": [8, 10],
        "translations": 8,
        "shape": (64, 64),
    },
}

#: A dag-bench grid cell: (base name, base factory, translation, n_max, shape).
_DagCell = Any


def _dag_shared_solve(base_name: str, factory_name: str, n_max: int, shape) -> Dict[str, Any]:
    """The shareable unit of cell work: canonical solve + simulation.

    ``cache=False`` on the solve is deliberate: the bench counts *actual
    solver executions*, and the per-process memo dict would otherwise hide
    them (per-worker, so nondeterministically).  The scheduler's saving
    must come from structural deduplication, not from a lucky cache hit.
    """
    pattern = _DAG_FACTORIES[factory_name]()
    result = solve(pattern, shape=tuple(shape), n_max=n_max, cache=False)
    report = simulate_sweep(result.mapping, verify=False, engine="vectorized")
    solution = result.solution
    return {
        "base": base_name,
        "n_banks": solution.n_banks,
        "delta_ii": solution.delta_ii,
        "alpha": list(solution.transform.alpha),
        "measured_ii": report.measured_ii,
        "overhead_elements": result.overhead_elements,
    }


def _dag_cell_row(cell, shared: Dict[str, Any]) -> Dict[str, Any]:
    """Per-cell arithmetic on the shared solve: cheap, translation-specific."""
    base_name, factory_name, translation, n_max, _shape = cell
    offsets = _DAG_FACTORIES[factory_name]().translated(translation).offsets
    alpha, n_banks = shared["alpha"], shared["n_banks"]
    bank0 = sum(a * o for a, o in zip(alpha, offsets[0])) % n_banks
    return {
        "cell": f"{base_name}@t{translation[0]}_{translation[1]}_n{n_max}",
        "n_banks": n_banks,
        "delta_ii": shared["delta_ii"],
        "measured_ii": shared["measured_ii"],
        "overhead_elements": shared["overhead_elements"],
        "first_offset_bank": bank0,
    }


def _dag_flat_cell(cell) -> Dict[str, Any]:
    """Flat-map task: every cell re-derives the full solve + simulation."""
    base_name, factory_name, translation, n_max, shape = cell
    shared = _dag_shared_solve(base_name, factory_name, n_max, shape)
    return _dag_cell_row(cell, shared)


#: Named pattern factories so dag tasks ship names (picklable) not lambdas.
_DAG_FACTORIES = {
    "log": log_pattern,
    "median": median_pattern,
    "gaussian": gaussian_pattern,
}


def _dag_grid_cells(grid: Dict[str, Any]) -> List[_DagCell]:
    cells: List[_DagCell] = []
    for t in range(grid["translations"]):
        # Interleave keys across the cell order (worst case for any
        # executor that might batch neighbors onto one worker).
        for base_name, factory in grid["bases"]:
            for n_max in grid["n_maxes"]:
                cells.append(
                    (base_name, base_name, (t, 2 * t), n_max, grid["shape"])
                )
    return cells


def _run_dag_flat(cells, jobs) -> List[Dict[str, Any]]:
    """The flat arm: one task per cell and no keys, hence no dedup."""
    return map_tasks(_dag_flat_cell, cells, jobs=jobs)


def _run_dag_sched(cells, jobs) -> Any:
    """Scheduler phase: one keyed solve task *per cell*, inline row tasks.

    Every cell registers its own solve node — the scheduler's digest-keyed
    deduplication (via :func:`repro.core.cache.stable_digest` on the
    canonical solve key, which already normalizes translation) is what
    collapses them onto one execution per distinct pattern.  The executed
    count is measured from the result stream, not assumed.
    """
    from repro.core.cache import solve_key

    row_tasks: List[Task] = []
    for cell in cells:
        base_name, factory_name, translation, n_max, shape = cell
        pattern = _DAG_FACTORIES[factory_name]().translated(translation)
        key = ("dag.solve", solve_key(pattern, tuple(shape), n_max, "latency", 0))
        solve_task = Task(
            _dag_shared_solve,
            args=(base_name, factory_name, n_max, shape),
            key=key,
            placement="process",
            name=f"dag.solve.{base_name}.n{n_max}",
        )
        row_tasks.append(
            Task(
                _dag_cell_row,
                args=(cell,),
                deps=(solve_task,),
                placement="inline",
                name="dag.row",
            )
        )
    rows: List[Any] = [None] * len(row_tasks)
    index = {t: i for i, t in enumerate(row_tasks)}
    executed_solves = 0
    for outcome in run_stream(row_tasks, jobs=jobs):
        if outcome.task in index:
            if not outcome.ok:
                raise outcome.error
            rows[index[outcome.task]] = outcome.value
        elif outcome.state == "done" and not outcome.deduped:
            executed_solves += 1
        elif outcome.state != "done":
            raise outcome.error
    return rows, executed_solves


def _bench_dag(preset: str, repeat: int) -> List[Dict[str, Any]]:
    """Flat map vs keyed DAG on a sweep grid with shared patterns.

    Both phases run the identical grid with the solve memo disabled, so
    ``solver invocations`` counts real solver executions: the flat map
    pays one per cell, the keyed DAG one per distinct canonical digest.
    Rows must come back bit-identical — the scheduler is a wall-clock and
    work-count optimization, never a semantics change.
    """
    import os as _os

    grid = DAG_GRIDS[preset]
    cells = _dag_grid_cells(grid)
    distinct = len(grid["bases"]) * len(grid["n_maxes"])
    jobs = min(4, _os.cpu_count() or 1)
    state: Dict[str, Any] = {}

    def flat_pass():
        state["flat_rows"] = _run_dag_flat(cells, jobs)

    def sched_pass():
        state["dag_rows"], state["dag_solves"] = _run_dag_sched(cells, jobs)

    # Correctness data (rows, executed-solve count) comes from one direct
    # pass; _best_of is purely the timing harness (tests stub it out).
    flat_pass()
    sched_pass()
    flat_wall_s = _best_of(flat_pass, repeat)
    dag_wall_s = _best_of(sched_pass, repeat)
    flat_solves = len(cells)  # one real solve per cell, by construction
    dag_solves = state["dag_solves"]
    identical = state["flat_rows"] == state["dag_rows"]
    return [
        {
            "workload": f"shared_grid_{preset}",
            "cells": len(cells),
            "distinct_solves": distinct,
            "sharing": len(cells) / distinct,
            "jobs": jobs,
            "flat_solver_invocations": flat_solves,
            "dag_solver_invocations": dag_solves,
            "solver_invocation_reduction": 1.0 - dag_solves / flat_solves,
            "flat_wall_s": flat_wall_s,
            "dag_wall_s": dag_wall_s,
            "flat_rows_per_s": len(cells) / flat_wall_s if flat_wall_s else float("inf"),
            "dag_rows_per_s": len(cells) / dag_wall_s if dag_wall_s else float("inf"),
            "rows_identical": identical,
        }
    ]


def _percentile_ms(latencies_s: List[float], fraction: float) -> float:
    """Nearest-rank percentile of a latency sample, in milliseconds."""
    ordered = sorted(latencies_s)
    rank = max(0, min(len(ordered) - 1, int(fraction * len(ordered))))
    return ordered[rank] * 1e3


def _bench_serve(preset: str) -> List[Dict[str, Any]]:
    """Round-trip latency/throughput against a live in-process server.

    Cold phase: every request is a distinct solve (same ``log`` pattern,
    varying ``n_max`` — translations share a solve key, so ``n_max`` is the
    knob that makes keys distinct).  Warm phase: a *new* server against the
    same store directory with the in-memory cache cleared, so every request
    is answered from the on-disk store — the restart story the store exists
    for.
    """
    import tempfile

    from repro.serve import ServeClient, serve_in_thread

    n_keys = {"micro": 2, "small": 8}.get(preset, 16)
    n_max_values = list(range(4, 4 + n_keys))
    rows: List[Dict[str, Any]] = []
    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as store_dir:
        for phase in ("cold_store", "warm_store"):
            solve_cache.clear()  # the store, not the memo dict, should answer
            latencies: List[float] = []
            started = time.perf_counter()
            with serve_in_thread(store_dir=store_dir) as srv:
                with ServeClient(port=srv.port) as client:
                    for n_max in n_max_values:
                        t0 = time.perf_counter()
                        client.solve(benchmark="log", n_max=n_max)
                        latencies.append(time.perf_counter() - t0)
                    store_stats = client.healthz()["store"]
            total_s = time.perf_counter() - started
            rows.append(
                {
                    "workload": f"log_nmax_sweep_{phase}",
                    "phase": phase,
                    "requests": len(latencies),
                    "distinct_keys": len(n_max_values),
                    "rps": len(latencies) / sum(latencies),
                    "p50_ms": _percentile_ms(latencies, 0.50),
                    "p99_ms": _percentile_ms(latencies, 0.99),
                    "total_s": total_s,
                    "store_entries": store_stats["entries"],
                    "store_hits": store_stats["hits"],
                }
            )
    return rows


#: Zipf warm-traffic bench knobs per preset.
ZIPF_CONFIGS: Dict[str, Dict[str, Any]] = {
    "micro": {"requests": 60, "n_max": 8},
    "small": {"requests": 150, "n_max": 8},
    "full": {"requests": 400, "n_max": 8},
}

#: Deliberately *asymmetric* base kernels: every 2-D benchmark stencil in
#: the library (log, se, prewitt, median, gaussian) is reflection-symmetric,
#: so its symmetry orbit collapses to the translation orbit and the quotient
#: would have nothing to show.  A corner stencil and a 3-D slab have real
#: orbits under reflection and leading-axis permutation.
ZIPF_BASES: List[Tuple[str, Tuple[Tuple[int, ...], ...], Tuple[int, ...]]] = [
    ("corner2d", ((0, 0), (0, 1), (1, 0)), (24, 24)),
    ("slab3d", ((0, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)), (8, 8, 8)),
]


def _zipf_universe() -> List[Tuple[str, Pattern, Tuple[int, ...]]]:
    """Every kernel variant Zipf traffic draws from.

    Per base: the identity, its reflections, its leading-axis permutations
    (3-D only), two seeded compositions, and a translated twin of each —
    the full symmetry orbit the canonical cache claims to collapse.
    """
    from repro.verify.gen import symmetry_variants

    universe: List[Tuple[str, Pattern, Tuple[int, ...]]] = []
    for name, offsets, shape in ZIPF_BASES:
        base = Pattern(offsets, name=name)
        members = [(f"{name}/id", base, shape)]
        for kind in ("reflection", "permutation", "composed"):
            if kind == "permutation" and base.ndim < 3:
                continue
            members.extend(
                (f"{name}/{tag}", variant, v_shape)
                for tag, variant, v_shape in symmetry_variants(
                    base, shape, kind, seed=7, count=2
                )
            )
        seen: set = set()
        distinct: List[Tuple[str, Pattern, Tuple[int, ...]]] = []
        for tag, variant, v_shape in members:
            key = (variant.offsets, v_shape)
            if key in seen:
                continue
            seen.add(key)
            distinct.append((tag, variant.with_name(tag), v_shape))
        for tag, variant, v_shape in list(distinct):
            shifted = variant.translated(tuple(1 for _ in range(variant.ndim)))
            distinct.append((f"{tag}+t1", shifted.with_name(f"{tag}+t1"), v_shape))
        universe.extend(distinct)
    return universe


def _zipf_traffic(
    universe: List[Any], requests: int, seed_tag: str
) -> List[Any]:
    """A seeded Zipf(s=1.1) request sequence over the variant universe."""
    rng = random.Random(f"repro-zipf:{seed_tag}")
    order = list(range(len(universe)))
    rng.shuffle(order)  # decouple popularity rank from construction order
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(order))]
    return [universe[i] for i in rng.choices(order, weights=weights, k=requests)]


def _zipf_phase(
    workload: str,
    traffic: List[Any],
    n_max: int,
    store_dir: str,
    reference: Optional[List[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """One server lifetime replaying ``traffic``.

    Every request carries the bank ceiling ``n_max``.  Every response is
    checked bit-identical against an in-process cold solve; when
    ``reference`` responses are given (the warm-restart phase) the response
    stream must also match them element-for-element.  ``translation_keys``
    counts the distinct translation-normalized specs
    (:meth:`~repro.serve.protocol.SolveSpec.digest`) in the traffic: the
    solves a translation-only cache would need, where the symmetry
    quotient needs ``cold_solves``.
    """
    from repro.core.solver import Objective
    from repro.io import solution_to_dict
    from repro.serve import ServeClient, serve_in_thread
    from repro.serve.protocol import SolveSpec

    solve_cache.clear()  # only the store may carry answers between phases
    try:
        latencies: List[float] = []
        responses: List[Dict[str, Any]] = []
        requested: List[Any] = []
        with serve_in_thread(store_dir=store_dir) as srv:
            with ServeClient(port=srv.port) as client:
                entries_before = client.healthz()["store"]["entries"]
                for _tag, pattern, shape in traffic:
                    t0 = time.perf_counter()
                    doc = client.solve(pattern=pattern, shape=shape, n_max=n_max)
                    latencies.append(time.perf_counter() - t0)
                    responses.append(doc["solution"])
                    requested.append((pattern, shape))
                health = client.healthz()
        entries_after = health["store"]["entries"]

        # Bit-identity: every response equals a fresh in-process solve of
        # the requester's own pattern.
        expected_memo: Dict[Any, Dict[str, Any]] = {}
        identical = True
        for (pattern, shape), got in zip(requested, responses):
            memo_key = (pattern.offsets, shape)
            if memo_key not in expected_memo:
                expected_memo[memo_key] = solution_to_dict(
                    solve(pattern, shape, n_max=n_max, cache=False).solution
                )
            if got != expected_memo[memo_key]:
                identical = False
        if reference is not None and responses != reference:
            identical = False

        translation_keys = len(
            {
                SolveSpec(pattern, shape, n_max, Objective.LATENCY, 0).digest()
                for pattern, shape in requested
            }
        )
        cold_solves = max(0, entries_after - entries_before)
        row: Dict[str, Any] = {
            "workload": workload,
            "requests": len(traffic),
            "distinct_variants": len({t[0] for t in traffic}),
            "translation_keys": translation_keys,
            "cold_solves": cold_solves,
            "canonical_hit_rate": 1.0 - cold_solves / len(traffic) if traffic else 0.0,
            "p50_ms": _percentile_ms(latencies, 0.50),
            "p99_ms": _percentile_ms(latencies, 0.99),
            "store_entries": entries_after,
            "responses_identical": identical,
        }
        row["_responses"] = responses  # stripped before the document is written
        return row
    finally:
        solve_cache.clear()


def _bench_zipf(preset: str) -> List[Dict[str, Any]]:
    """Zipf warm traffic through the symmetry-canonical cache and store.

    Two phases over one seeded request sequence: (1) a cold store — the
    canonical-hit-rate / cold-solve collapse the cache exists for, set
    against ``translation_keys``, the cold solves a translation-only cache
    would pay — and (2) the same store after a server restart (every
    answer from disk).
    """
    import tempfile

    config = ZIPF_CONFIGS[preset]
    universe = _zipf_universe()
    traffic = _zipf_traffic(universe, config["requests"], preset)
    n_max = config["n_max"]

    rows: List[Dict[str, Any]] = []
    with tempfile.TemporaryDirectory(prefix="repro-zipf-") as store_dir:
        cold = _zipf_phase(
            f"zipf_{preset}_symmetry_cold", traffic, n_max, store_dir
        )
        rows.append(cold)
        rows.append(
            _zipf_phase(
                f"zipf_{preset}_symmetry_warm",
                traffic,
                n_max,
                store_dir,
                reference=cold["_responses"],
            )
        )
    for row in rows:
        row.pop("_responses", None)
    return rows


def run_suite(preset: str, repeat: int = 3) -> Dict[str, Any]:
    """Execute every bench in ``preset`` and return the JSON document."""
    workloads = PRESETS[preset]
    doc: Dict[str, Any] = {
        "preset": preset,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "native_available": repro_native.available(),
        "simulate": [],
        "solve": [],
        "sweep": [],
        "ltb_search": [],
        "baseline_sim": [],
        "serve": [],
        "dag": [],
        "zipf": [],
    }
    for name, factory, shape in workloads:
        pattern = factory()
        doc["simulate"].append(_bench_simulate(name, pattern, shape, repeat))
        doc["solve"].append(_bench_solve(name, pattern, repeat))
        doc["sweep"].append(
            _bench_sweep(name, pattern, n_max=max(64, 4 * pattern.size), repeat=repeat)
        )
    for name, factory in LTB_WORKLOADS[preset]:
        doc["ltb_search"].append(_bench_ltb_search(name, factory(), repeat))
    baseline_shape = {"micro": (24, 24), "small": (64, 64)}.get(preset, (256, 256))
    doc["baseline_sim"].extend(
        _bench_baseline_sim(f"stencil3x3_{baseline_shape[0]}", baseline_shape, repeat)
    )
    doc["serve"].extend(_bench_serve(preset))
    doc["dag"].extend(_bench_dag(preset, repeat))
    doc["zipf"].extend(_bench_zipf(preset))
    return doc


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Time solve/sweep/simulate hot paths; write BENCH_perf.json."
    )
    parser.add_argument(
        "--preset", choices=sorted(PRESETS), default="small", help="workload size"
    )
    parser.add_argument(
        "--repeat", type=int, default=3, help="best-of repetitions per timing"
    )
    parser.add_argument(
        "--output",
        default="BENCH_perf.json",
        help="output path (default: BENCH_perf.json in the current directory)",
    )
    args = parser.parse_args(argv)

    doc = run_suite(args.preset, repeat=args.repeat)
    Path(args.output).write_text(json.dumps(doc, indent=2) + "\n")

    for row in doc["simulate"]:
        native = (
            f", native {row['native_s']:.3f}s ({row['native_speedup']:.1f}x, "
            f"identical={row['native_identical']})"
            if "native_s" in row
            else ""
        )
        print(
            f"simulate {row['workload']}: scalar {row['scalar_s']:.3f}s, "
            f"vectorized {row['vectorized_s']:.3f}s "
            f"({row['speedup']:.1f}x, identical={row['reports_identical']})"
            f"{native}"
        )
    for row in doc["solve"]:
        print(
            f"solve {row['workload']}: cold {row['cold_s'] * 1e3:.2f}ms, "
            f"warm {row['warm_s'] * 1e6:.1f}us ({row['speedup']:.0f}x)"
        )
    for row in doc["sweep"]:
        print(
            f"sweep {row['workload']} (n_max={row['n_max']}): "
            f"scalar {row['scalar_s'] * 1e3:.2f}ms, "
            f"vectorized {row['vectorized_s'] * 1e3:.2f}ms ({row['speedup']:.1f}x)"
        )
    for row in doc["ltb_search"]:
        native = (
            f", native {row['native_s'] * 1e3:.2f}ms "
            f"({row['native_speedup']:.1f}x, identical={row['native_identical']})"
            if "native_s" in row
            else ""
        )
        print(
            f"ltb_search {row['workload']}: scalar {row['scalar_s'] * 1e3:.2f}ms, "
            f"vectorized {row['vectorized_s'] * 1e3:.2f}ms "
            f"({row['speedup']:.1f}x, N={row['solution']['n_banks']}, "
            f"identical={row['reports_identical']}){native}"
        )
    for row in doc["baseline_sim"]:
        native = (
            f", native {row['native_s'] * 1e3:.2f}ms "
            f"({row['native_speedup']:.1f}x, identical={row['native_identical']})"
            if "native_s" in row
            else ""
        )
        print(
            f"baseline_sim {row['workload']}: scalar {row['scalar_s'] * 1e3:.2f}ms, "
            f"vectorized {row['vectorized_s'] * 1e3:.2f}ms "
            f"({row['speedup']:.1f}x, identical={row['reports_identical']})"
            f"{native}"
        )
    for row in doc["serve"]:
        print(
            f"serve {row['workload']}: {row['requests']} reqs, "
            f"{row['rps']:.0f} rps, p50 {row['p50_ms']:.2f}ms, "
            f"p99 {row['p99_ms']:.2f}ms "
            f"(store entries={row['store_entries']}, hits={row['store_hits']})"
        )
    for row in doc["dag"]:
        print(
            f"dag {row['workload']}: {row['cells']} cells / "
            f"{row['distinct_solves']} distinct solves "
            f"({row['sharing']:.0f}x sharing, jobs={row['jobs']}): "
            f"solver invocations {row['flat_solver_invocations']} -> "
            f"{row['dag_solver_invocations']} "
            f"(-{row['solver_invocation_reduction'] * 100:.0f}%), "
            f"wall {row['flat_wall_s'] * 1e3:.1f}ms -> "
            f"{row['dag_wall_s'] * 1e3:.1f}ms, "
            f"rows identical={row['rows_identical']}"
        )
    for row in doc["zipf"]:
        print(
            f"zipf {row['workload']}: {row['requests']} reqs over "
            f"{row['distinct_variants']} variants, cold solves "
            f"{row['cold_solves']} vs {row['translation_keys']} translation keys "
            f"(hit rate {row['canonical_hit_rate']:.2f}), "
            f"p50 {row['p50_ms']:.2f}ms, p99 {row['p99_ms']:.2f}ms, "
            f"identical={row['responses_identical']}"
        )
    print(f"written: {args.output}")

    ok = (
        all(r["reports_identical"] for r in doc["simulate"])
        and all(r["results_identical"] for r in doc["sweep"])
        and all(r["reports_identical"] for r in doc["ltb_search"])
        and all(r["reports_identical"] for r in doc["baseline_sim"])
        and all(
            r.get("native_identical", True)
            for section in ("simulate", "ltb_search", "baseline_sim")
            for r in doc[section]
        )
        and all(r["rows_identical"] for r in doc["dag"])
        and all(r["responses_identical"] for r in doc["zipf"])
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
