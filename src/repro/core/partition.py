"""Bank-count selection (paper Sections 4.2–4.3).

Given the transformed pattern values ``z^(i) = α · Δ^(i)``, a bank count
``N`` is conflict-free iff all residues ``z^(i) % N`` are distinct — which
holds iff no pairwise difference ``|z^(i) − z^(j)|`` is a (nonzero)
multiple of ``N``.  This module implements:

* :func:`minimize_nf` — the paper's Algorithm 1: smallest conflict-free
  ``N_f ≥ m`` with no bank limit.
* :func:`fast_nc` — the two-level-modulo scheme for a bank limit
  ``N_max < N_f`` (Section 4.3.2, "fast approach"): access the pattern in
  ``F = ⌈N_f / N_max⌉`` rounds through ``N_c = ⌈N_f / F⌉`` banks.
* :func:`same_size_sweep` / :func:`same_size_nc` — the alternative scheme
  that keeps all banks the same size: evaluate ``δP|N`` for every
  ``N ≤ N_max`` and pick the minimum (the Section 5.1 case-study table).
* :class:`PartitionSolution` — the result record shared by our algorithm
  and the baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import PartitioningError
from ..obs.tracer import span
from . import vectorized
from .opcount import OpCounter, resolve
from .pattern import Pattern
from .transform import LinearTransform, derive_alpha

#: Engine names accepted by :func:`same_size_sweep`.
SWEEP_ENGINES = ("auto", "scalar", "vectorized")


@dataclass(frozen=True)
class PartitionSolution:
    """A complete memory-partitioning solution.

    Attributes
    ----------
    pattern:
        The access pattern the solution was built for.
    transform:
        The linear transform whose dot product feeds the bank hash.
    n_banks:
        Number of physical banks ``N`` (the outermost modulo).
    n_unconstrained:
        The conflict-free bank count ``N_f`` found before applying any
        ``n_max`` limit.  Equal to ``n_banks`` when no limit was hit.
    delta_ii:
        Additional initiation interval ``δP``: 0 means the whole pattern is
        served in one cycle; ``k`` means ``k+1`` accesses to the busiest bank.
    scheme:
        ``"direct"`` (``B = (α·x) % N``), ``"two-level"``
        (``B = ((α·x) % N_f) % N_c``), ``"wide"`` (``B = ((α·x) % N_f) // W``
        for bandwidth-``W`` banks), or a baseline-specific label.
    algorithm:
        Producer label, e.g. ``"ours"`` or ``"ltb"``.
    bank_ports:
        Accesses each physical bank serves per cycle (the paper's bank
        bandwidth ``B``; 1 except for ``"wide"`` solutions).
    """

    pattern: Pattern
    transform: LinearTransform
    n_banks: int
    n_unconstrained: int
    delta_ii: int = 0
    scheme: str = "direct"
    algorithm: str = "ours"
    bank_ports: int = 1

    def bank_of(self, vector: Sequence[int], ops: OpCounter | None = None) -> int:
        """Bank index of element ``vector`` under this solution."""
        counter = resolve(ops)
        value = self.transform.apply(vector, ops)
        counter.mod()
        if self.scheme == "two-level":
            counter.mod()
            return (value % self.n_unconstrained) % self.n_banks
        if self.scheme == "wide":
            counter.div()
            return (value % self.n_unconstrained) // self.bank_ports
        return value % self.n_banks

    def bank_indices(self, offset: Sequence[int] | None = None) -> List[int]:
        """Bank index of every pattern element at loop offset ``offset``.

        ``offset=None`` evaluates the pattern at the origin; by Theorem 1's
        translation argument the conflict structure is offset-invariant for
        the ``"direct"`` scheme, and we verify that claim in tests rather
        than assuming it for other schemes.
        """
        base = self.pattern if offset is None else self.pattern.translated(offset)
        return [self.bank_of(delta) for delta in base.offsets]

    @property
    def cycles_per_access(self) -> int:
        """Cycles needed to fetch the whole pattern (``δP + 1``)."""
        return self.delta_ii + 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartitionSolution({self.algorithm}, N={self.n_banks}, "
            f"Nf={self.n_unconstrained}, dII={self.delta_ii}, {self.scheme})"
        )


def pairwise_differences(values: Sequence[int], ops: OpCounter | None = None) -> List[int]:
    """All nonzero pairwise absolute differences ``|z_i − z_j|`` (with repeats).

    This is the multiset the paper's Algorithm 1 histograms into ``E``.
    Charges one subtraction per pair (the sign drop is free hardware-wise,
    and the paper's op counts — e.g. Canny's 325 = 300 pairs + 25
    transforms — confirm one-op-per-pair accounting).
    """
    counter = resolve(ops)
    diffs: List[int] = []
    m = len(values)
    for i in range(m - 1):
        for j in range(i + 1, m):
            counter.sub()
            diffs.append(abs(values[i] - values[j]))
    return diffs


def minimize_nf(
    pattern: Pattern,
    transform: LinearTransform | None = None,
    ops: OpCounter | None = None,
) -> Tuple[int, LinearTransform, List[int]]:
    """Paper Algorithm 1: the smallest conflict-free bank count ``N_f``.

    Starting from ``N = m``, a candidate is rejected as soon as one of its
    multiples ``k·N ≤ M`` is an observed pairwise difference (the paper's
    ``E[kN] ≠ 0``), exactly as in the pseudo code.

    Op charges are the pseudo code's, made in bulk: one subtraction per
    pair and one compare per pair for the max scan (line 10), then per
    step of the ``N`` search one multiplication and one loop-guard
    compare, plus one ``E`` compare and one addition on every step that
    does not end the search.  Each phase charges inside its own span.

    Returns ``(n_f, transform, z_values)`` so callers can reuse the
    transformed values without recomputing them.

    Raises
    ------
    PartitioningError
        Only on internal inconsistency; Algorithm 1 always terminates with
        ``N_f ≤ M + 1`` because any ``N > M`` has no multiple inside ``E``.
    """
    counter = resolve(ops)
    with span("solve.minimize_nf", ops=counter, pattern=pattern.name or "?"):
        with span("solve.transform", ops=counter):
            if transform is None:
                transform = derive_alpha(pattern, ops)
            z_values = transform.transform_pattern(pattern, ops)
        m = pattern.size
        if m == 1:
            return 1, transform, z_values

        with span("solve.qset_build", ops=counter):
            # The distinct differences: only E[d] != 0 is ever read, so the
            # histogram's counts (memory traffic, never charged) are not
            # kept.  Sorted, each difference is b - a >= 0; 0 is a duplicate.
            ordered = sorted(z_values)
            qset = {b - a for a, b in combinations(ordered, 2)}
            pairs = m * (m - 1) // 2
            counter.sub(pairs)
            if 0 in qset:
                raise PartitioningError(
                    "transform does not separate the pattern (duplicate z values); "
                    "Theorem 1 guarantees this never happens for the derived alpha"
                )
            counter.compare(pairs)  # the max scan of line 10
            max_diff = ordered[-1] - ordered[0]

        # Lines 17-25: grow N until no multiple of it is an observed difference.
        # The pseudo code walks k = 1, 2, ... to the first k·N in Q (reject
        # N: k steps) or past M (accept N: M // N + 1 steps).  When N has
        # more multiples below M than Q has members, scanning Q finds the
        # same first k, so the work per candidate is bounded by |Q| even
        # for a pattern whose spread M is huge.
        with span("solve.select_n", ops=counter) as selection:
            n_f = m
            steps = 0
            while True:
                last = max_diff // n_f
                if last <= len(qset):
                    k = 1
                    while k <= last and k * n_f not in qset:
                        k += 1
                else:
                    k = min((d // n_f for d in qset if d % n_f == 0), default=last + 1)
                if k > last:
                    steps += last + 1
                    break
                steps += k
                n_f += 1
            counter.mul(steps)
            counter.compare(2 * steps - 1)
            if steps > 1:
                counter.add(steps - 1)
            selection.annotate(n_f=n_f)
            return n_f, transform, z_values


def fast_nc(
    n_f: int, n_max: int, ops: OpCounter | None = None
) -> Tuple[int, int]:
    """Section 4.3.2 fast approach: fold ``N_f`` banks into ``N_c ≤ N_max``.

    Returns ``(n_c, rounds)`` where ``rounds = F = ⌈N_f / N_max⌉`` is the
    number of access cycles needed (so ``δP = rounds − 1``).  When
    ``N_f ≤ N_max`` this degenerates to ``(N_f, 1)``.
    """
    if n_max <= 0:
        raise ValueError(f"n_max must be positive, got {n_max}")
    counter = resolve(ops)
    counter.compare()
    if n_f <= n_max:
        return n_f, 1
    counter.div(2)
    rounds = math.ceil(n_f / n_max)
    n_c = math.ceil(n_f / rounds)
    return n_c, rounds


@dataclass(frozen=True)
class SweepResult:
    """Result of the same-size ``δP|N`` sweep (Section 4.3.2 alternative).

    Attributes
    ----------
    conflicts_by_n:
        ``conflicts_by_n[N] = δP|N + 1``: the worst-case number of pattern
        elements sharing one bank when the array is split into ``N`` banks
        (the Section 5.1 case-study row).  Index 0 is unused (``None``).
    best_n:
        Smallest ``N ≤ N_max`` achieving the minimal conflict count.
    best_candidates:
        All ``N`` achieving the minimum, ascending (the paper notes
        ``N_c = 7 or 9`` for the LoG example).
    """

    conflicts_by_n: Tuple[Optional[int], ...]
    best_n: int
    best_candidates: Tuple[int, ...] = field(default=())

    @property
    def delta_ii(self) -> int:
        """The achieved additional initiation interval."""
        return self.conflicts_by_n[self.best_n] - 1  # type: ignore[operator]


def mode_count(values: Sequence[int], ops: OpCounter | None = None) -> int:
    """Number of occurrences of the most frequent value (``A_P`` in Def. 4)."""
    if not values:
        raise ValueError("mode of an empty sequence is undefined")
    counter = resolve(ops)
    histogram: Dict[int, int] = {}
    for v in values:
        histogram[v] = histogram.get(v, 0) + 1
    counter.compare(len(histogram))
    return max(histogram.values())


def _sweep_conflicts_scalar(
    z_values: Sequence[int],
    n_max: int,
    counter: OpCounter,
    ops: OpCounter | None,
) -> List[Optional[int]]:
    """Reference per-N loop: one pass over the ``z`` values per candidate."""
    conflicts: List[Optional[int]] = [None]
    for n in range(1, n_max + 1):
        counter.mod(len(z_values))
        residues = [z % n for z in z_values]
        conflicts.append(mode_count(residues, ops))
    return conflicts


def _sweep_conflicts_vectorized(
    z_values: Sequence[int], n_max: int, counter: OpCounter
) -> List[Optional[int]]:
    """All candidate N in broadcasted blocks.

    Sorting each row of ``residues[i, j] = z_j % n_i`` puts equal residues
    side by side, so the row's distinct-residue count (what
    :func:`mode_count` charges as a compare) is one plus its number of
    value changes, and its mode (the conflict count) is its longest run.
    The hardware-cost model must not notice the execution strategy, so the
    charges mirror the scalar loop exactly: ``mod(m)`` +
    ``compare(distinct)`` per candidate.

    Candidate blocks are bounded by the bulk chunk budget, so the
    ``(block, m)`` residue matrix stays within it for every ``n_max``.
    """
    z = np.asarray(z_values, dtype=np.int64)
    m = len(z_values)
    conflicts: List[Optional[int]] = [None]
    block = max(1, vectorized.DEFAULT_CHUNK_ELEMENTS // m)
    for lo in range(1, n_max + 1, block):
        ns = np.arange(lo, min(lo + block, n_max + 1), dtype=np.int64)
        residues = z[None, :] % ns[:, None]
        residues.sort(axis=1)
        size = residues.size
        # Flat run-start flags plus a closing sentinel.  Every row opens a
        # run, so no run crosses a row boundary.
        starts = np.empty(size + 1, dtype=bool)
        grid = starts[:-1].reshape(residues.shape)
        grid[:, 0] = True
        np.not_equal(residues[:, 1:], residues[:, :-1], out=grid[:, 1:])
        starts[-1] = True
        first = np.flatnonzero(starts)
        runs = first[1:] - first[:-1]
        row_runs = np.searchsorted(first, np.arange(0, size, m))
        counter.mod(size)
        counter.compare(len(runs))
        conflicts.extend(np.maximum.reduceat(runs, row_runs).tolist())
    return conflicts


def same_size_sweep(
    pattern: Pattern,
    n_max: int,
    transform: LinearTransform | None = None,
    ops: OpCounter | None = None,
    engine: str = "auto",
) -> SweepResult:
    """Evaluate ``δP|N + 1`` for every ``N = 1 … N_max`` and pick the best.

    Because every ``y^(i) = α·(s + Δ^(i))`` shares the ``α·s`` term *and*
    ``(a + c) % N`` shifts all residues by the same constant only when the
    conflict count is computed — the mode count of ``{(α·Δ^(i)) % N}``
    equals the mode count at any loop offset, so a single evaluation per
    ``N`` suffices (this offset-invariance is property-tested).

    ``engine`` selects the execution strategy: ``"vectorized"`` (the
    ``"auto"`` default) evaluates all candidates in one broadcasted NumPy
    pass, ``"scalar"`` keeps the reference per-N loop.  Results and op
    charges are identical (property-tested).
    """
    if n_max <= 0:
        raise ValueError(f"n_max must be positive, got {n_max}")
    if engine not in SWEEP_ENGINES:
        raise ValueError(
            f"unknown sweep engine {engine!r}; choose one of {SWEEP_ENGINES}"
        )
    counter = resolve(ops)
    with span("solve.bank_limit_sweep", ops=counter, n_max=n_max):
        if transform is None:
            transform = derive_alpha(pattern, ops)
        z_values = transform.transform_pattern(pattern, ops)

        if engine == "scalar" or not z_values:
            conflicts = _sweep_conflicts_scalar(z_values, n_max, counter, ops)
        else:
            conflicts = _sweep_conflicts_vectorized(z_values, n_max, counter)

        best = min(c for c in conflicts if c is not None)
        candidates = tuple(n for n in range(1, n_max + 1) if conflicts[n] == best)
        return SweepResult(
            conflicts_by_n=tuple(conflicts),
            best_n=candidates[0],
            best_candidates=candidates,
        )


def same_size_nc(
    pattern: Pattern,
    n_max: int,
    transform: LinearTransform | None = None,
    ops: OpCounter | None = None,
) -> Tuple[int, int]:
    """Same-size bank count under ``N_max``: returns ``(n_c, delta_ii)``."""
    result = same_size_sweep(pattern, n_max, transform, ops)
    return result.best_n, result.delta_ii


def partition(
    pattern: Pattern,
    n_max: int | None = None,
    same_size: bool = True,
    ops: OpCounter | None = None,
    cache: bool = True,
) -> PartitionSolution:
    """End-to-end partitioner: the paper's full flow for one pattern.

    1. Derive ``α`` from the bounding box (Section 4.1).
    2. Run Algorithm 1 to get the unconstrained ``N_f``.
    3. If ``n_max`` is given and ``N_f > n_max``, fall back to either the
       same-size sweep (default; uniform bank sizes, minimal ``δP``) or the
       fast two-level modulo scheme.

    Solutions are memoized on the translation-normalized pattern (see
    :mod:`repro.core.cache`); pass ``cache=False`` to force a fresh solve.
    Instrumented calls (``ops`` given) always solve fresh so op counts stay
    honest.

    Examples
    --------
    >>> from repro.patterns import log_pattern
    >>> partition(log_pattern()).n_banks
    13
    >>> sol = partition(log_pattern(), n_max=10)
    >>> (sol.n_banks, sol.delta_ii)
    (7, 1)
    """
    from . import cache as solve_cache  # local: cache imports this module

    use_cache = cache and ops is None
    if use_cache:
        key = solve_cache.partition_key(pattern, n_max, same_size)
        hit = solve_cache.cache().get(key, pattern)
        if hit is not None:
            return hit
    with span(
        "solve.partition",
        ops=resolve(ops),
        pattern=pattern.name or "?",
        n_max=n_max,
    ):
        solution = _partition_phases(pattern, n_max, same_size, ops)
    if use_cache:
        solve_cache.cache().put(key, solution)
    return solution


def _partition_phases(
    pattern: Pattern,
    n_max: int | None,
    same_size: bool,
    ops: OpCounter | None,
) -> PartitionSolution:
    n_f, transform, _ = minimize_nf(pattern, ops=ops)
    if n_max is None or n_f <= n_max:
        return PartitionSolution(
            pattern=pattern,
            transform=transform,
            n_banks=n_f,
            n_unconstrained=n_f,
            delta_ii=0,
            scheme="direct",
            algorithm="ours",
        )
    if same_size:
        n_c, delta = same_size_nc(pattern, n_max, transform, ops)
        return PartitionSolution(
            pattern=pattern,
            transform=transform,
            n_banks=n_c,
            n_unconstrained=n_f,
            delta_ii=delta,
            scheme="direct",
            algorithm="ours",
        )
    n_c, rounds = fast_nc(n_f, n_max, ops)
    return PartitionSolution(
        pattern=pattern,
        transform=transform,
        n_banks=n_c,
        n_unconstrained=n_f,
        delta_ii=rounds - 1,
        scheme="two-level",
        algorithm="ours",
    )


def widen_solution(solution: PartitionSolution, bandwidth: int) -> PartitionSolution:
    """Fold a conflict-free solution onto bandwidth-``B`` banks (Section 3).

    The paper notes the whole framework "is easy to extend to the situation
    where bank bandwidth is B by combining B banks together": group the
    ``N_f`` logical banks into ``⌈N_f / B⌉`` physical banks of ``B`` ports
    each.  Every physical bank receives at most ``B`` of the pattern's
    elements (one per folded logical bank), so ``δP`` stays 0 *provided the
    hardware banks really serve ``B`` accesses per cycle* — the returned
    solution records that requirement in ``bank_ports``.

    The case study's closing remark is the instance ``N_f = 13, B = 2``:
    13 single-ported banks become 7 dual-ported ones.

    Raises
    ------
    ValueError
        For ``bandwidth < 1`` or when applied to a non-``direct`` scheme
        (fold the unconstrained solution, not an already-folded one).
    """
    if bandwidth < 1:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    if solution.scheme != "direct":
        raise ValueError(
            f"widen_solution expects a direct-scheme solution, got {solution.scheme!r}"
        )
    if bandwidth == 1:
        return solution
    n_wide = math.ceil(solution.n_banks / bandwidth)
    return PartitionSolution(
        pattern=solution.pattern,
        transform=solution.transform,
        n_banks=n_wide,
        n_unconstrained=solution.n_banks,
        delta_ii=solution.delta_ii,
        scheme="wide",
        algorithm=solution.algorithm,
        bank_ports=bandwidth,
    )
