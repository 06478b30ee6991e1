"""Multi-objective partitioning driver (paper Problem 1).

Problem 1 asks, for a pattern ``P`` of ``m`` elements, for mappings ``B``
and ``F`` minimizing three objectives —

1. ``δP`` toward 0 (additional initiation interval),
2. ``N`` toward ``m`` (bank count),
3. ``ΔW`` toward 0 (storage overhead),

subject to address uniqueness and ``N ≤ N_max``.  The paper resolves the
interplay by fixing an *optimization order* and notes that "different
optimizing orders lead to solutions of different concerns" (e.g. a
zero-storage-overhead demand).  This module makes that knob explicit:

* :data:`Objective.LATENCY` — the paper's default order: drive ``δP`` as
  low as the constraint allows, then minimize ``N`` among the minimal-δ
  candidates (this reproduces the case study's 7-bank choice from the
  tied set {7, 9}).
* :data:`Objective.BANKS` — bank-count-first: the smallest ``N`` whose
  ``δP`` stays within an explicit latency budget ``delta_max`` (default 0,
  i.e. fully parallel).  Lets a designer trade cycles for muxes.
* :data:`Objective.STORAGE` — zero-overhead demand: restrict candidates to
  bank counts dividing ``w_{n-1}`` (overhead is exactly 0 there), then
  minimize ``δP``, then ``N``.

All policies reuse the same derived ``α``; the residual search space is
only the scalar bank count, so every policy costs ``O(N_max · m)`` beyond
Algorithm 1.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..errors import InfeasibleConstraintError
from ..obs.metrics import registry as obs_registry
from ..obs.tracer import span
from . import cache as solve_cache
from .mapping import BankMapping, ours_overhead_elements
from .opcount import OpCounter, resolve
from .partition import PartitionSolution, minimize_nf, same_size_sweep
from .pattern import Pattern


class Objective(enum.Enum):
    """Which Problem 1 objective gets priority after feasibility."""

    LATENCY = "latency"
    BANKS = "banks"
    STORAGE = "storage"


@dataclass(frozen=True)
class SolverResult:
    """A solved instance: the partitioning decision plus its consequences.

    Attributes
    ----------
    solution:
        Bank-count / transform decision.
    mapping:
        Full address mapping when an array shape was supplied, else None.
    overhead_elements:
        ``ΔW`` in elements for the supplied shape (0 when no shape given).
    """

    solution: PartitionSolution
    mapping: Optional[BankMapping]
    overhead_elements: int

    @property
    def objective_vector(self) -> Tuple[int, int, int]:
        """``(δP, N, ΔW)`` — Problem 1's objective tuple."""
        return (
            self.solution.delta_ii,
            self.solution.n_banks,
            self.overhead_elements,
        )


def _divisors(value: int, limit: int) -> Tuple[int, ...]:
    """Divisors of ``value`` up to ``limit``, ascending."""
    return tuple(d for d in range(1, min(value, limit) + 1) if value % d == 0)


def _make_solution(
    pattern: Pattern, transform, n_banks: int, n_f: int, delta: int
) -> PartitionSolution:
    return PartitionSolution(
        pattern=pattern,
        transform=transform,
        n_banks=n_banks,
        n_unconstrained=n_f,
        delta_ii=delta,
        scheme="direct",
        algorithm="ours",
    )


def _finish_result(
    solution: PartitionSolution, shape: Sequence[int] | None
) -> SolverResult:
    """Attach the shape-specific consequences (mapping, overhead).

    Cheap arithmetic on top of a solution — this is the part a cache hit
    still recomputes, since it is the only part that depends on the full
    shape rather than the canonical pattern.
    """
    mapping = BankMapping(solution=solution, shape=tuple(shape)) if shape else None
    overhead = (
        ours_overhead_elements(tuple(shape), solution.n_banks) if shape else 0
    )
    return SolverResult(solution=solution, mapping=mapping, overhead_elements=overhead)


def solve(
    pattern: Pattern,
    shape: Sequence[int] | None = None,
    n_max: int | None = None,
    objective: Objective = Objective.LATENCY,
    delta_max: int = 0,
    ops: OpCounter | None = None,
    cache: bool = True,
) -> SolverResult:
    """Solve Problem 1 for one pattern under the chosen objective order.

    Parameters
    ----------
    pattern:
        The parallel access pattern.
    shape:
        Array shape; required for :data:`Objective.STORAGE` (overhead
        depends on ``w_{n-1}``) and for materializing a mapping.
    n_max:
        Bank-count ceiling (Problem 1 constraint 2); ``None`` = unlimited.
    objective:
        Optimization-order policy, see module docstring.
    delta_max:
        Latency budget for :data:`Objective.BANKS`: the largest acceptable
        ``δP``.  Ignored by the other policies.
    ops:
        Optional arithmetic-op instrumentation.  Instrumented calls always
        bypass the cache *and* canonicalization — op counts must reflect
        the paper's algorithm on the caller's own pattern.
    cache:
        Look up / store the solution in the canonical solve cache
        (:mod:`repro.core.cache`).  ``False`` forces a fresh solve.  Either
        way the solver runs on the canonical orbit representative and maps
        the solution back into the caller's frame — cold and warm paths
        therefore return bit-identical results by construction.

    Raises
    ------
    InfeasibleConstraintError
        If the policy's candidate set is empty (bad ``n_max``, missing
        shape for STORAGE, or no ``N`` meets ``delta_max`` under BANKS).

    Examples
    --------
    >>> from repro.patterns import log_pattern
    >>> solve(log_pattern()).objective_vector
    (0, 13, 0)
    >>> solve(log_pattern(), n_max=10).solution.n_banks
    7
    """
    if ops is not None:
        # Instrumented calls charge the paper's algorithm on the caller's
        # own pattern: no canonical detour, no memoized answers.
        with span(
            "solve.solve",
            ops=resolve(ops),
            pattern=pattern.name or "?",
            objective=objective.value,
        ):
            return _finish_result(
                _solve_impl(pattern, shape, n_max, objective, delta_max, ops), shape
            )

    started = time.perf_counter()
    shape_t = tuple(shape) if shape else None
    canon_pattern, op = solve_cache.canonicalize(pattern)
    canon_shape = op.shape_to_canonical(shape_t)
    key = solve_cache.canonical_solve_key(
        canon_pattern.offsets,
        int(canon_shape[-1]) if canon_shape else None,
        n_max,
        objective.value,
        delta_max,
    )
    if cache:
        hit = solve_cache.cache().get(key, canon_pattern)
        if hit is not None:
            result = _finish_result(op.solution_to_caller(hit, pattern), shape)
            obs_registry().log_histogram("solve.warm_ms").observe(
                (time.perf_counter() - started) * 1000.0
            )
            return result
    with span(
        "solve.solve",
        ops=resolve(ops),
        pattern=pattern.name or "?",
        objective=objective.value,
    ):
        canon_solution = _solve_impl(
            canon_pattern, canon_shape, n_max, objective, delta_max, None
        )
    obs_registry().log_histogram("solve.cold_ms").observe(
        (time.perf_counter() - started) * 1000.0
    )
    if cache:
        solve_cache.cache().put(key, canon_solution)
    return _finish_result(op.solution_to_caller(canon_solution, pattern), shape)


def _solve_impl(
    pattern: Pattern,
    shape: Sequence[int] | None,
    n_max: int | None,
    objective: Objective,
    delta_max: int,
    ops: OpCounter | None,
) -> PartitionSolution:
    """The partitioning decision for ``pattern`` in its own frame.

    Shape-free: the caller attaches the mapping and overhead once, in the
    frame it answers in (:func:`_finish_result`).
    """
    if n_max is not None and n_max < 1:
        raise InfeasibleConstraintError(f"n_max must be at least 1, got {n_max}")

    n_f, transform, _ = minimize_nf(pattern, ops=ops)

    if objective is Objective.STORAGE:
        if shape is None:
            raise InfeasibleConstraintError(
                "Objective.STORAGE needs the array shape: overhead depends on w[-1]"
            )
        ceiling = n_max if n_max is not None else shape[-1]
        candidates = _divisors(shape[-1], ceiling)
        if not candidates:
            raise InfeasibleConstraintError(
                f"no divisor of w[-1]={shape[-1]} is <= n_max={ceiling}"
            )
        sweep = same_size_sweep(pattern, max(candidates), transform, ops)
        best = min(candidates, key=lambda n: (sweep.conflicts_by_n[n], n))
        solution = _make_solution(
            pattern, transform, best, n_f, sweep.conflicts_by_n[best] - 1  # type: ignore[operator]
        )
    elif objective is Objective.BANKS:
        if delta_max < 0:
            raise InfeasibleConstraintError(f"delta_max must be >= 0, got {delta_max}")
        ceiling = n_max if n_max is not None else n_f
        sweep = same_size_sweep(pattern, ceiling, transform, ops)
        eligible = [
            n
            for n in range(1, ceiling + 1)
            if sweep.conflicts_by_n[n] - 1 <= delta_max  # type: ignore[operator]
        ]
        if not eligible:
            raise InfeasibleConstraintError(
                f"no bank count <= {ceiling} achieves delta_ii <= {delta_max}; "
                f"best achievable is {min(c for c in sweep.conflicts_by_n if c) - 1}"
            )
        best = eligible[0]
        solution = _make_solution(
            pattern, transform, best, n_f, sweep.conflicts_by_n[best] - 1  # type: ignore[operator]
        )
    elif n_max is None or n_f <= n_max:
        # LATENCY, unconstrained (or slack constraint): Algorithm 1's N_f is
        # optimal — δP = 0 and N_f is the smallest conflict-free count
        # reachable with this transform.
        solution = _make_solution(pattern, transform, n_f, n_f, 0)
    else:
        # LATENCY under a binding constraint: the same-size sweep; among
        # the tied minimal-δ candidates pick the smallest N (objective 2).
        sweep = same_size_sweep(pattern, n_max, transform, ops)
        chosen = sweep.best_candidates[0]
        solution = _make_solution(
            pattern, transform, chosen, n_f, sweep.conflicts_by_n[chosen] - 1  # type: ignore[operator]
        )

    return solution


def solve_joint(
    patterns: Sequence[Pattern],
    shape: Sequence[int] | None = None,
    n_max: int | None = None,
    objective: Objective = Objective.LATENCY,
    delta_max: int = 0,
    ops: OpCounter | None = None,
    cache: bool = True,
) -> SolverResult:
    """Partition one array accessed by *several* patterns simultaneously.

    Real kernels often read an array through more than one window in the
    same iteration — e.g. a pipelined producer/consumer pair, or an
    unrolled loop whose iterations each apply the base stencil.  A single
    physical banking must serve all of them, so the solution is computed
    for the **union** pattern: separating the union separates every member
    pattern at every offset (each member is a subset of the union at each
    of its instances).

    All patterns must share dimensionality; the returned solution's
    ``pattern`` is the union.

    Examples
    --------
    >>> from repro.patterns import se_pattern
    >>> reader = se_pattern()
    >>> shifted = se_pattern().translated((0, 1))
    >>> solve_joint([reader, shifted]).solution.n_banks >= reader.size
    True
    """
    if not patterns:
        raise InfeasibleConstraintError("solve_joint needs at least one pattern")
    merged = patterns[0]
    for extra in patterns[1:]:
        merged = merged.union(extra)
    merged = merged.with_name("|".join(p.name or "p" for p in patterns))
    return solve(
        merged,
        shape=shape,
        n_max=n_max,
        objective=objective,
        delta_max=delta_max,
        ops=ops,
        cache=cache,
    )
