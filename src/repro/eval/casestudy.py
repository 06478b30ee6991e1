"""Section 5.1 / Section 2 case study: the LoG worked example.

Regenerates every number the paper walks through for the 13-element LoG
pattern: the derived transform ``α = (5, 1)``, the transformed values
``z``, the 13-bank assignment of Fig. 2(b), the ``δP|N`` sweep row, the
``N_max = 10`` choices (fast 7-bank fold and same-size 7-bank solution of
Fig. 2(c)), and the Section 2 motivational op/overhead comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..baselines.ltb import ltb_overhead_elements, ltb_partition
from ..core.mapping import ours_overhead_elements
from ..core.opcount import OpCounter
from ..core.partition import (
    fast_nc,
    minimize_nf,
    partition,
    same_size_sweep,
)
from ..core.pattern import Pattern
from ..obs.metrics import registry as obs_registry
from ..obs.tracer import span
from ..patterns.library import log_pattern
from ..sched import Task, gather


@dataclass(frozen=True)
class CaseStudy:
    """All derived quantities of the paper's LoG walk-through.

    Attributes mirror the narrative order of Sections 2 and 5.1.
    """

    pattern: Pattern
    alpha: Tuple[int, ...]
    z_values: Tuple[int, ...]
    n_f: int
    bank_indices: Tuple[int, ...]
    sweep_row: Tuple[int, ...]  # A_P = δP|N + 1 for N = 1..10
    fast_nc: int
    fast_rounds: int
    same_size_nc: int
    same_size_candidates: Tuple[int, ...]
    same_size_delta: int
    ours_operations: int
    ltb_operations: int
    ltb_vectors_tried: int
    ours_overhead_elements: int
    ltb_overhead_elements: int


def _ours_chain_task(pattern, n_max):
    """Scheduler node: everything derived by the paper's algorithm."""
    ours_ops = OpCounter()
    n_f, transform, z_values = minimize_nf(pattern, ops=ours_ops)
    solution = partition(pattern)
    bank_indices = tuple(solution.bank_of(delta) for delta in pattern.offsets)
    sweep = same_size_sweep(pattern, n_max, transform)
    nc_fast, rounds = fast_nc(n_f, n_max)
    return (n_f, transform, tuple(z_values), bank_indices, sweep, nc_fast, rounds, ours_ops)


def _bound_task(pattern):
    """Scheduler node: the chain-wide LTB bank ceiling (sub-ms, inline)."""
    return partition(pattern).n_banks


def _ltb_chain_task(pattern, engine, bound):
    """Scheduler node: the (much slower) LTB baseline.

    ``bound`` is the chain-wide bank ceiling produced by the
    :func:`_bound_task` dependency; the worker honors it instead of
    re-deriving it.  The bound is valid by construction — see
    :func:`run_case_study`.
    """
    ltb_ops = OpCounter()
    ltb = ltb_partition(pattern, n_max=bound, ops=ltb_ops, engine=engine)
    return (ltb.solution.n_banks, ltb.vectors_tried, ltb_ops)


def _case_chains(pattern, n_max, jobs, ltb_engine):
    """Run the two algorithm chains as one scheduled DAG.

    The bank ceiling is a real dependency edge — an inline task feeding the
    (process-heavy) LTB node — instead of a value the parent computes before
    any parallelism starts.  The ours chain is an independent subgraph, so
    it runs concurrently with both.
    """
    t_ours = Task(
        _ours_chain_task,
        args=(pattern, n_max),
        placement="process",
        name="casestudy.ours",
    )
    t_bound = Task(
        _bound_task, args=(pattern,), placement="inline", name="casestudy.bound"
    )
    t_ltb = Task(
        _ltb_chain_task,
        args=(pattern, ltb_engine),
        deps=(t_bound,),
        placement="process",
        name="casestudy.ltb",
    )
    return gather([t_ours, t_ltb], jobs=jobs)


def run_case_study(
    shape: Tuple[int, int] = (640, 480),
    n_max: int = 10,
    jobs: int | None = None,
    ltb_engine: str = "auto",
) -> CaseStudy:
    """Execute the full LoG case study at the paper's SD resolution.

    The paper presents offsets in a frame shifted by (2, 2); we use the
    same shift so the ``z`` values and bank indices match the text
    verbatim ({14, 18, ..., 34} and {1, 5, 6, ...}).

    ``jobs`` > 1 runs the two independent algorithm chains (ours, LTB) on
    separate worker processes — as a scheduled DAG (bound → LTB, with the
    ours chain as a free subgraph); the numbers are identical to a serial
    run.

    The LTB chain runs under a shared ceiling derived once per run: our
    unconstrained ``N_f``.  It is a sound bound — at ``N = N_f`` the
    component-wise residues ``α mod N_f`` form a valid candidate vector, so
    the exhaustive search always terminates at or below it.  (The
    case-study ``n_max`` itself is the *folding* ceiling of the ours chain
    and would be too tight: LoG's LTB minimum is 13 > 10.)
    """
    pattern = log_pattern().translated((2, 2))

    with span("eval.casestudy", jobs=jobs):
        chains = _case_chains(pattern, n_max, jobs, ltb_engine)
        (n_f, transform, z_values, bank_indices, sweep, nc_fast, rounds, ours_ops) = chains[0]
        ltb_banks, ltb_vectors, ltb_ops = chains[1]

    registry = obs_registry()
    registry.absorb_ops("eval.casestudy.ours.ops", ours_ops)
    registry.absorb_ops("eval.casestudy.ltb.ops", ltb_ops)
    registry.gauge("eval.casestudy.n_f").set(n_f)
    registry.gauge("eval.casestudy.same_size_nc").set(sweep.best_n)
    registry.gauge("eval.casestudy.fast_nc").set(nc_fast)
    registry.gauge("eval.casestudy.ltb.vectors_tried").set(ltb_vectors)

    return CaseStudy(
        pattern=pattern,
        alpha=transform.alpha,
        z_values=tuple(z_values),
        n_f=n_f,
        bank_indices=bank_indices,
        sweep_row=tuple(c for c in sweep.conflicts_by_n[1:]),  # type: ignore[misc]
        fast_nc=nc_fast,
        fast_rounds=rounds,
        same_size_nc=sweep.best_n,
        same_size_candidates=sweep.best_candidates,
        same_size_delta=sweep.conflicts_by_n[sweep.best_n] - 1,  # type: ignore[operator]
        ours_operations=ours_ops.total,
        ltb_operations=ltb_ops.total,
        ltb_vectors_tried=ltb_vectors,
        ours_overhead_elements=ours_overhead_elements(shape, n_f),
        ltb_overhead_elements=ltb_overhead_elements(shape, ltb_banks),
    )
