"""Property oracles checked on every fuzz case.

Each oracle is an independent judge of one claim the paper (or one of our
engines) makes.  They deliberately avoid calling the code path under test
to produce the expected value — expected values come from closed forms,
exhaustive enumeration, or a *different* implementation of the same
quantity:

``theorem1``
    The derived ``α`` separates the pattern (distinct ``z`` values) and
    ``N_f >= m`` (no fewer banks can serve ``m`` parallel reads).
``conflict_free``
    A ``δ(II) = 0`` claim is checked on **exhaustive loop offsets**: for
    every shift class of ``α·s`` the pattern's bank indices are pairwise
    distinct.
``delta_claim``
    The claimed ``δ(II)`` matches the worst bank load over all shift
    classes — exact for direct-scheme solutions, an upper bound for the
    two-level fold (whose conflict count varies with the offset).
``nf_minimal``
    Brute force: every ``N in [m, N_f)`` has a colliding residue pair, so
    Algorithm 1's answer is minimal for this ``α``; constrained same-size
    solutions must match an independently recomputed ``δP|N`` sweep.
``mapping``
    ``F(x)`` is injective within each bank (exhaustive over the array),
    only the **last** dimension is padded, and the storage overhead equals
    the Section 4.4 closed form.
``sim_differential``
    The scalar (``hw.banked_memory`` replay) and — when the compiled
    extension is built — native simulation engines produce bit-identical
    reports, and the measured ``δ(II)`` agrees with the solver's claim
    (equality for direct solutions, bounded above for two-level).
``ltb_differential``
    On small instances, both LTB search engines (scalar, and native when
    built) return the same first-hit vector, the same
    ``vectors_tried``/``candidates_tried`` and identical op charges (or
    fails identically), and LTB's minimum never exceeds our ``N_f``.
``symmetry_reflection`` / ``symmetry_permutation`` / ``symmetry_composed``
    The solve cache's symmetry quotient (translation × per-axis reflection
    × leading-axis permutation, :func:`repro.core.cache.canonicalize`) is
    checked per claimed invariance: every orbit member canonicalizes to
    the same representative and ``canonical_key``, its solve invariants
    (``N``, ``N_f``, ``δ``, scheme) are orbit-constant, the mapped-back
    solution is valid **in the variant's own frame** (separation,
    exhaustive-shift ``δ`` exactness, Section 4.4 bijectivity), and a
    simulated cache hit — canonical solve mapped back through the
    variant's :class:`~repro.core.cache.SymmetryOp` — is field-for-field
    identical to a cold solve of the variant.  ``symmetry_permutation``
    is not applicable below 3-D (the innermost-fixing subgroup is
    trivial there).

Oracles return a list of human-readable failure messages (empty = pass);
the runner wraps unexpected exceptions as ``crash`` failures, so a raising
solver is a caught defect, not a broken fuzzer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..baselines.ltb import ltb_partition
from ..core.cache import canonical_key, canonicalize
from ..core.mapping import BankMapping, build_mapping, ours_overhead_elements
from ..core.opcount import OpCounter
from ..core.partition import PartitionSolution, partition
from ..core.pattern import Pattern
from ..core.solver import Objective, _solve_impl, solve
from ..errors import PartitioningError, ReproError
from ..sim.memsim import simulate_sweep
from .gen import CaseSpec, symmetry_variants

#: Iteration cap for the differential simulation (conflict structure is
#: shift-periodic, so a bounded prefix of the sweep already covers every
#: residue class the full sweep would).
SIM_LIMIT = 96

#: Cost guard for the LTB exhaustive search: only instances whose scalar
#: enumeration is provably tiny run the differential (size**(ndim+2) grows
#: past any budget fast).
LTB_MAX_SIZE = 5
LTB_MAX_NDIM = 3
LTB_EXTRA_BANKS = 4


@dataclass(frozen=True)
class OracleFailure:
    """One violated property: which oracle, and what it saw."""

    oracle: str
    message: str

    def to_dict(self) -> Dict[str, str]:
        return {"oracle": self.oracle, "message": self.message}

    @classmethod
    def from_dict(cls, payload: Dict[str, str]) -> "OracleFailure":
        return cls(oracle=str(payload["oracle"]), message=str(payload["message"]))


@dataclass
class CaseOutcome:
    """All oracle verdicts for one case."""

    case: CaseSpec
    failures: List[OracleFailure] = field(default_factory=list)
    checked: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


class _Context:
    """Solved-once state shared by the oracles of one case."""

    def __init__(self, case: CaseSpec) -> None:
        self.case = case
        self.pattern: Pattern = case.pattern()
        # cache=False: every fuzz case is a fresh solve, so a poisoned or
        # monkeypatched solver cannot hide behind a memoized good answer.
        self.solution: PartitionSolution = partition(
            self.pattern,
            n_max=case.n_max,
            same_size=(case.scheme == "same-size"),
            cache=False,
        )
        self.mapping: BankMapping = build_mapping(self.solution, case.shape)
        self.z_values: List[int] = self.solution.transform.transform_pattern(
            self.pattern
        )


def _mode(values: List[int]) -> int:
    histogram: Dict[int, int] = {}
    for v in values:
        histogram[v] = histogram.get(v, 0) + 1
    return max(histogram.values())


def _banks_at_shift(
    solution: PartitionSolution, z_values: List[int], shift: int
) -> List[int]:
    """Physical bank of every pattern element at transform shift ``shift``."""
    if solution.scheme == "two-level":
        return [
            ((z + shift) % solution.n_unconstrained) % solution.n_banks
            for z in z_values
        ]
    return [(z + shift) % solution.n_banks for z in z_values]


def _shift_space(solution: PartitionSolution) -> int:
    """How many shift classes cover every loop offset's conflict structure.

    ``α·s`` enters the direct hash mod ``N`` and the two-level hash mod
    ``N_f``, so those many consecutive shifts enumerate every reachable
    bank assignment of the pattern.
    """
    if solution.scheme == "two-level":
        return solution.n_unconstrained
    return solution.n_banks


def oracle_theorem1(ctx: _Context) -> List[str]:
    failures = []
    m = ctx.pattern.size
    if len(set(ctx.z_values)) != m:
        failures.append(
            f"alpha {ctx.solution.transform.alpha} does not separate the "
            f"pattern: z values {ctx.z_values} contain duplicates"
        )
    if ctx.solution.n_unconstrained < m:
        failures.append(
            f"N_f = {ctx.solution.n_unconstrained} < m = {m}: fewer banks than "
            "parallel accesses cannot be conflict-free"
        )
    if ctx.case.n_max is not None and ctx.solution.n_banks > ctx.case.n_max:
        failures.append(
            f"solution uses {ctx.solution.n_banks} banks over the ceiling "
            f"n_max = {ctx.case.n_max}"
        )
    return failures


def oracle_conflict_free(ctx: _Context) -> List[str]:
    if ctx.solution.delta_ii != 0:
        return []
    m = ctx.pattern.size
    for shift in range(_shift_space(ctx.solution)):
        banks = _banks_at_shift(ctx.solution, ctx.z_values, shift)
        if len(set(banks)) != m:
            return [
                f"delta_ii = 0 claimed but shift {shift} maps the pattern to "
                f"banks {banks} (collision)"
            ]
    return []


def oracle_delta_claim(ctx: _Context) -> List[str]:
    claimed = ctx.solution.delta_ii + 1
    worst = 0
    worst_shift = 0
    for shift in range(_shift_space(ctx.solution)):
        load = _mode(_banks_at_shift(ctx.solution, ctx.z_values, shift))
        if load > worst:
            worst, worst_shift = load, shift
    if ctx.solution.scheme == "two-level":
        if worst > claimed:
            return [
                f"two-level solution claims <= {claimed} accesses per bank but "
                f"shift {worst_shift} needs {worst} "
                f"(N_f={ctx.solution.n_unconstrained}, N_c={ctx.solution.n_banks})"
            ]
        return []
    if worst != claimed:
        return [
            f"direct solution claims exactly {claimed} accesses to the busiest "
            f"bank but shift {worst_shift} measures {worst}"
        ]
    return []


def oracle_nf_minimal(ctx: _Context) -> List[str]:
    failures = []
    m = ctx.pattern.size
    n_f = ctx.solution.n_unconstrained
    for n in range(m, n_f):
        residues = [z % n for z in ctx.z_values]
        if len(set(residues)) == m:
            failures.append(
                f"N_f = {n_f} is not minimal: N = {n} already separates the "
                f"pattern under alpha {ctx.solution.transform.alpha}"
            )
            break
    n_max = ctx.case.n_max
    sweep_path = (
        n_max is not None
        and n_f > n_max
        and ctx.solution.scheme == "direct"
    )
    if sweep_path:
        # Independent re-derivation of the Section 4.3.2 same-size sweep.
        conflicts = {
            n: _mode([z % n for z in ctx.z_values]) for n in range(1, n_max + 1)
        }
        best = min(conflicts.values())
        chosen = ctx.solution.n_banks
        if conflicts[chosen] != ctx.solution.delta_ii + 1:
            failures.append(
                f"sweep solution claims delta_ii = {ctx.solution.delta_ii} at "
                f"N = {chosen} but the residue mode there is {conflicts[chosen]}"
            )
        if conflicts[chosen] != best:
            failures.append(
                f"sweep chose N = {chosen} with {conflicts[chosen]} conflicts "
                f"but some N <= {n_max} achieves {best}"
            )
        elif any(n < chosen and conflicts[n] == best for n in conflicts):
            smaller = min(n for n in conflicts if conflicts[n] == best)
            failures.append(
                f"sweep chose N = {chosen} but N = {smaller} ties at "
                f"{best} conflicts (objective 2 wants the smallest N)"
            )
    return failures


def oracle_mapping(ctx: _Context) -> List[str]:
    failures = []
    mapping = ctx.mapping
    try:
        mapping.verify_bijective()
    except ReproError as exc:
        failures.append(f"F(x) is not injective within banks: {exc}")
    if mapping.bank_shape[:-1] != mapping.shape[:-1]:
        failures.append(
            f"padding touched a non-last dimension: bank shape "
            f"{mapping.bank_shape} vs array shape {mapping.shape}"
        )
    inner = (
        ctx.solution.n_unconstrained
        if ctx.solution.scheme == "two-level"
        else ctx.solution.n_banks
    )
    expected = ours_overhead_elements(ctx.case.shape, inner)
    if mapping.overhead_elements != expected:
        failures.append(
            f"storage overhead {mapping.overhead_elements} != Section 4.4 "
            f"closed form {expected} (shape {ctx.case.shape}, inner banks {inner})"
        )
    tail = math.ceil(ctx.case.shape[-1] / inner) * inner - ctx.case.shape[-1]
    if tail >= inner:
        failures.append(
            f"last-dimension padding {tail} >= bank granularity {inner}"
        )
    return failures


def _differential_engines() -> Tuple[str, ...]:
    """Engines the differential oracles cross-check.

    Always the scalar reference; the compiled native engine joins
    whenever the extension loads, so a host with a C compiler fuzzes
    scalar against native and one without checks the scalar reference
    alone, without error.
    """
    from .. import native

    return ("scalar", "native") if native.available() else ("scalar",)


def oracle_sim_differential(ctx: _Context) -> List[str]:
    failures = []
    engines = _differential_engines()
    scalar = simulate_sweep(
        ctx.mapping, limit=SIM_LIMIT, verify=True, engine="scalar"
    )
    for engine in engines[1:]:
        fast = simulate_sweep(
            ctx.mapping, limit=SIM_LIMIT, verify=True, engine=engine
        )
        if scalar.to_dict() != fast.to_dict():
            failures.append(
                f"scalar and {engine} simulation reports diverge: "
                f"{scalar.to_dict()} vs {fast.to_dict()}"
            )
    claimed = ctx.solution.delta_ii
    measured = scalar.measured_delta_ii
    if ctx.solution.scheme == "two-level":
        if measured > claimed:
            failures.append(
                f"banked-memory replay measured delta_ii = {measured}, above "
                f"the two-level claim {claimed}"
            )
    elif measured != claimed:
        failures.append(
            f"banked-memory replay measured delta_ii = {measured} but the "
            f"solver claims {claimed} (direct scheme is offset-invariant)"
        )
    return failures


def _ltb_eligible(case: CaseSpec) -> bool:
    pattern_size = len(case.offsets)
    return pattern_size <= LTB_MAX_SIZE and len(case.shape) <= LTB_MAX_NDIM


def oracle_ltb_differential(ctx: _Context) -> Optional[List[str]]:
    if not _ltb_eligible(ctx.case):
        return None  # cost-gated out: not checked, not a pass
    cap = ctx.pattern.size + LTB_EXTRA_BANKS
    engines = _differential_engines()
    runs = {}
    for engine in engines:
        ops = OpCounter()
        try:
            result = ltb_partition(ctx.pattern, n_max=cap, ops=ops, engine=engine)
        except PartitioningError:
            runs[engine] = (None, ops)
        else:
            runs[engine] = (result, ops)
    scalar, scalar_ops = runs["scalar"]
    failures = []
    for engine in engines[1:]:
        fast, fast_ops = runs[engine]
        if (scalar is None) != (fast is None):
            failures.append(
                f"LTB engines disagree on feasibility under N <= {cap}: "
                f"scalar={'fail' if scalar is None else 'ok'}, "
                f"{engine}={'fail' if fast is None else 'ok'}"
            )
            continue
        if scalar is not None and fast is not None:
            if (
                scalar.solution.n_banks != fast.solution.n_banks
                or scalar.solution.transform.alpha
                != fast.solution.transform.alpha
            ):
                failures.append(
                    "LTB engines returned different solutions: scalar "
                    f"(N={scalar.solution.n_banks}, alpha="
                    f"{scalar.solution.transform.alpha}) vs {engine} "
                    f"(N={fast.solution.n_banks}, alpha="
                    f"{fast.solution.transform.alpha})"
                )
            if (scalar.vectors_tried, scalar.candidates_tried) != (
                fast.vectors_tried,
                fast.candidates_tried,
            ):
                failures.append(
                    "LTB engines searched different amounts: scalar "
                    f"({scalar.vectors_tried} vectors, {scalar.candidates_tried} "
                    f"candidates) vs {engine} ({fast.vectors_tried}, "
                    f"{fast.candidates_tried})"
                )
        if scalar_ops.counts != fast_ops.counts:
            failures.append(
                f"LTB engines charged different ops (scalar vs {engine}): "
                f"{scalar_ops.counts} vs {fast_ops.counts}"
            )
    if scalar is not None and scalar.solution.n_banks > ctx.solution.n_unconstrained:
        failures.append(
            f"LTB's exhaustive minimum {scalar.solution.n_banks} exceeds "
            f"our N_f = {ctx.solution.n_unconstrained}: impossible, ours "
            "is one of the vectors LTB enumerates"
        )
    return failures


def _solution_fields(solution: PartitionSolution) -> Dict[str, object]:
    """Everything a caller can observe about a solution, for bit-identity."""
    return {
        "offsets": solution.pattern.offsets,
        "alpha": solution.transform.alpha,
        "extents": solution.transform.extents,
        "n_banks": solution.n_banks,
        "n_unconstrained": solution.n_unconstrained,
        "delta_ii": solution.delta_ii,
        "scheme": solution.scheme,
        "algorithm": solution.algorithm,
    }


def _symmetry_reference(ctx: _Context):
    """Canonical representative, key, and cold solve of the base pattern.

    Computed once per case and shared by the three symmetry oracles (the
    checks are pure given these).  Uses ``Objective.LATENCY`` through the
    :func:`repro.core.solver.solve` driver — the path the canonical cache
    actually serves — rather than the scheme-selecting ``partition`` API.
    """
    ref = getattr(ctx, "_symmetry_ref", None)
    if ref is None:
        canon_pattern, _ = canonicalize(ctx.pattern)
        key = canonical_key(
            ctx.pattern,
            ctx.case.shape,
            ctx.case.n_max,
            Objective.LATENCY.value,
            0,
        )
        cold = solve(
            ctx.pattern,
            ctx.case.shape,
            n_max=ctx.case.n_max,
            cache=False,
        )
        ref = (canon_pattern, key, cold.solution)
        ctx._symmetry_ref = ref
    return ref


def _check_symmetry_variant(
    ctx: _Context, tag: str, variant: Pattern, v_shape: Tuple[int, ...]
) -> List[str]:
    """All claimed invariances for one orbit member of the case's pattern."""
    failures: List[str] = []
    canon_base, base_key, base_solution = _symmetry_reference(ctx)
    canon_v, op_v = canonicalize(variant)
    if canon_v.offsets != canon_base.offsets:
        failures.append(
            f"{tag}: orbit members canonicalize differently: variant to "
            f"{canon_v.offsets}, base to {canon_base.offsets}"
        )
        return failures  # downstream checks assume a shared representative
    v_key = canonical_key(
        variant, v_shape, ctx.case.n_max, Objective.LATENCY.value, 0
    )
    if v_key != base_key:
        failures.append(
            f"{tag}: canonical_key is not orbit-invariant: {v_key} vs {base_key}"
        )
    cold = solve(variant, v_shape, n_max=ctx.case.n_max, cache=False).solution
    for name in ("n_banks", "n_unconstrained", "delta_ii", "scheme"):
        got, want = getattr(cold, name), getattr(base_solution, name)
        if got != want:
            failures.append(
                f"{tag}: solve invariant {name} = {got!r} for the variant but "
                f"{want!r} for the base pattern"
            )
    # Validity in the variant's own frame: the mapped-back transform (whose
    # alpha may carry negative components) must separate, meet its delta
    # claim exhaustively, and stay Section-4.4 bijective.
    z_values = cold.transform.transform_pattern(variant)
    if len(set(z_values)) != variant.size:
        failures.append(
            f"{tag}: mapped-back alpha {cold.transform.alpha} does not "
            f"separate the variant (z = {z_values})"
        )
    else:
        worst, worst_shift = 0, 0
        for shift in range(_shift_space(cold)):
            load = _mode(_banks_at_shift(cold, z_values, shift))
            if load > worst:
                worst, worst_shift = load, shift
        if worst != cold.delta_ii + 1:
            failures.append(
                f"{tag}: variant-frame solution claims {cold.delta_ii + 1} "
                f"accesses to the busiest bank but shift {worst_shift} "
                f"measures {worst}"
            )
        try:
            build_mapping(cold, v_shape).verify_bijective()
        except ReproError as exc:
            failures.append(
                f"{tag}: mapped-back F(x) is not injective within banks: {exc}"
            )
    # A warm hit — the canonical solution un-applied through the variant's
    # SymmetryOp — must be field-for-field identical to the cold solve.
    canon_shape = op_v.shape_to_canonical(v_shape)
    canon_solution = _solve_impl(
        canon_v, canon_shape, ctx.case.n_max, Objective.LATENCY, 0, None
    )
    warm = op_v.solution_to_caller(canon_solution, variant)
    if _solution_fields(warm) != _solution_fields(cold):
        failures.append(
            f"{tag}: warm-hit solution differs from the cold solve: "
            f"{_solution_fields(warm)} vs {_solution_fields(cold)}"
        )
    return failures


def oracle_symmetry_reflection(ctx: _Context) -> List[str]:
    failures: List[str] = []
    for tag, variant, v_shape in symmetry_variants(
        ctx.pattern, ctx.case.shape, "reflection"
    ):
        failures.extend(_check_symmetry_variant(ctx, tag, variant, v_shape))
    return failures


def oracle_symmetry_permutation(ctx: _Context) -> Optional[List[str]]:
    if ctx.pattern.ndim < 3:
        return None  # the innermost-fixing permutation subgroup is trivial
    failures: List[str] = []
    for tag, variant, v_shape in symmetry_variants(
        ctx.pattern, ctx.case.shape, "permutation"
    ):
        failures.extend(_check_symmetry_variant(ctx, tag, variant, v_shape))
    return failures


def oracle_symmetry_composed(ctx: _Context) -> List[str]:
    failures: List[str] = []
    _, base_key, _ = _symmetry_reference(ctx)
    variants = symmetry_variants(
        ctx.pattern,
        ctx.case.shape,
        "composed",
        seed=ctx.case.seed * 1000003 + ctx.case.index,
    )
    for tag, variant, v_shape in variants:
        failures.extend(_check_symmetry_variant(ctx, tag, variant, v_shape))
        # The translation leg of the composition: a raw (un-normalized)
        # translate of the variant must still share the orbit key.
        shifted = variant.translated(tuple(e + 1 for e in variant.extents))
        s_key = canonical_key(
            shifted, v_shape, ctx.case.n_max, Objective.LATENCY.value, 0
        )
        if s_key != base_key:
            failures.append(
                f"{tag}: translating the variant changed canonical_key: "
                f"{s_key} vs {base_key}"
            )
    return failures


#: Oracle catalog, in the order they run (cheap analytic checks first).
ORACLES: Dict[str, Callable[[_Context], List[str]]] = {
    "theorem1": oracle_theorem1,
    "conflict_free": oracle_conflict_free,
    "delta_claim": oracle_delta_claim,
    "nf_minimal": oracle_nf_minimal,
    "mapping": oracle_mapping,
    "sim_differential": oracle_sim_differential,
    "ltb_differential": oracle_ltb_differential,
    "symmetry_reflection": oracle_symmetry_reflection,
    "symmetry_permutation": oracle_symmetry_permutation,
    "symmetry_composed": oracle_symmetry_composed,
}

ORACLE_NAMES: Tuple[str, ...] = tuple(ORACLES)


def run_oracles(case: CaseSpec) -> CaseOutcome:
    """Solve ``case`` and check every oracle; never raises for a bad solve.

    Exceptions escaping the solve or an oracle are converted into ``crash``
    failures carrying the exception type and message: a crashing solver is
    a defect the fuzzer caught, not fuzzer breakage.
    """
    outcome = CaseOutcome(case=case)
    try:
        ctx = _Context(case)
    except Exception as exc:  # noqa: BLE001 - the fuzzer must survive any bug
        outcome.failures.append(
            OracleFailure("crash", f"{type(exc).__name__} while solving: {exc}")
        )
        outcome.checked = ("crash",)
        return outcome
    checked = []
    for name, oracle in ORACLES.items():
        try:
            messages = oracle(ctx)
        except Exception as exc:  # noqa: BLE001
            messages = [f"{type(exc).__name__} inside oracle: {exc}"]
        if messages is None:  # oracle declared itself not applicable
            continue
        checked.append(name)
        for message in messages:
            outcome.failures.append(OracleFailure(name, message))
    outcome.checked = tuple(checked)
    return outcome
