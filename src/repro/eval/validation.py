"""Exhaustive cross-validation harness (the repository's ``make validate``).

Runs every benchmark pattern through every applicable scheme
(unconstrained, same-size constrained, two-level fast fold, wide banks,
packed tail) over a battery of array shapes, and machine-checks, for each
combination:

1. bijectivity of the address mapping,
2. the advertised ``δ(II)`` against the cycle-level simulator,
3. the closed-form storage overhead against the mapping's accounting,
4. where the mapping runs on the native engine (every type with a native
   spec, when the compiled tier loads), its report against the scalar
   reference's.

This is slower than the unit tests (it is the belt *and* the suspenders)
and is what ``repro-validate`` runs; the test suite exercises a trimmed
configuration of it so the harness itself cannot rot.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..core.mapping import BankMapping, ours_overhead_elements
from ..core.packed import packed_mapping
from ..core.partition import PartitionSolution, partition, widen_solution
from ..errors import ReproError
from ..patterns.library import BENCHMARKS
from ..sim.memsim import resolve_engine, simulate_sweep


@dataclass(frozen=True)
class ValidationCase:
    """One (pattern, scheme, shape) combination to validate."""

    benchmark: str
    scheme: str
    shape: Tuple[int, ...]


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of one case."""

    case: ValidationCase
    passed: bool
    detail: str = ""


@dataclass
class ValidationReport:
    """Aggregate outcome of a validation run."""

    results: List[ValidationResult] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.passed)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if not r.passed)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def failures(self) -> List[ValidationResult]:
        return [r for r in self.results if not r.passed]

    def summary(self) -> str:
        lines = [f"validation: {self.passed} passed, {self.failed} failed"]
        for failure in self.failures():
            lines.append(
                f"  FAIL {failure.case.benchmark}/{failure.case.scheme}"
                f"@{failure.case.shape}: {failure.detail}"
            )
        return "\n".join(lines)


def _shapes_for(pattern, quick: bool) -> List[Tuple[int, ...]]:
    """Shapes exercising divisible, off-by-one, and awkward tails."""
    extents = pattern.normalized().extents
    base0 = max(extents[0] + 2, 6)
    if pattern.ndim == 2:
        shapes = [
            (base0, extents[1] + 9),
            (base0, extents[1] + 14),
            (base0 + 3, extents[1] + 22),
        ]
        return shapes[:2] if quick else shapes
    # 3-D: keep tiny, the enumeration is cubic.
    shapes = [(extents[0] + 1, extents[1] + 2, extents[2] + 26)]
    if not quick:
        shapes.append((extents[0] + 2, extents[1] + 1, extents[2] + 29))
    return shapes


def _build_mapping(
    scheme: str, pattern, shape: Tuple[int, ...]
) -> Optional[BankMapping]:
    """Mapping for one scheme; None when the scheme does not apply."""
    if scheme == "direct":
        return BankMapping(solution=partition(pattern), shape=shape)
    if scheme == "constrained":
        n_f = partition(pattern).n_banks
        if n_f < 3:
            return None
        return BankMapping(
            solution=partition(pattern, n_max=n_f - 1), shape=shape
        )
    if scheme == "two-level":
        n_f = partition(pattern).n_banks
        if n_f < 3:
            return None
        return BankMapping(
            solution=partition(pattern, n_max=n_f - 1, same_size=False),
            shape=shape,
        )
    if scheme == "wide":
        return BankMapping(
            solution=widen_solution(partition(pattern), 2), shape=shape
        )
    if scheme == "packed":
        return packed_mapping(partition(pattern), shape)
    raise ValueError(f"unknown scheme {scheme!r}")


def validate_case(case: ValidationCase, sim_limit: int = 150) -> ValidationResult:
    """Run all four checks for one combination."""
    pattern = BENCHMARKS[case.benchmark]()
    try:
        mapping = _build_mapping(case.scheme, pattern, case.shape)
        if mapping is None:
            return ValidationResult(case=case, passed=True, detail="skipped (n/a)")
        solution: PartitionSolution = mapping.solution

        mapping.verify_bijective(sample_limit=50_000)

        engine = resolve_engine(mapping)
        report = simulate_sweep(mapping, limit=sim_limit, engine=engine)
        if engine != "scalar" and report != simulate_sweep(
            mapping, limit=sim_limit, engine="scalar"
        ):
            return ValidationResult(
                case=case,
                passed=False,
                detail=f"{engine} report differs from the scalar reference",
            )
        if report.worst_cycles > solution.delta_ii + 1:
            return ValidationResult(
                case=case,
                passed=False,
                detail=(
                    f"measured {report.worst_cycles} cycles > advertised "
                    f"{solution.delta_ii + 1}"
                ),
            )

        if case.scheme in ("direct", "constrained"):
            expected = ours_overhead_elements(case.shape, solution.n_banks)
            if mapping.overhead_elements != expected:
                return ValidationResult(
                    case=case,
                    passed=False,
                    detail=(
                        f"overhead {mapping.overhead_elements} != closed-form "
                        f"{expected}"
                    ),
                )
        if case.scheme == "packed" and mapping.overhead_elements != 0:
            return ValidationResult(
                case=case, passed=False, detail="packed mapping has overhead"
            )
    except ReproError as exc:
        return ValidationResult(case=case, passed=False, detail=str(exc))
    return ValidationResult(case=case, passed=True)


SCHEMES: Tuple[str, ...] = ("direct", "constrained", "two-level", "wide", "packed")


def run_validation(
    benchmarks: Sequence[str] | None = None,
    schemes: Sequence[str] = SCHEMES,
    quick: bool = False,
    progress: Callable[[str], None] | None = None,
) -> ValidationReport:
    """Validate the full (or restricted) matrix."""
    names = list(benchmarks) if benchmarks is not None else list(BENCHMARKS)
    report = ValidationReport()
    for name in names:
        pattern = BENCHMARKS[name]()
        for shape in _shapes_for(pattern, quick):
            for scheme in schemes:
                case = ValidationCase(benchmark=name, scheme=scheme, shape=shape)
                if progress:
                    progress(f"{name}/{scheme}@{shape}")
                report.results.append(validate_case(case))
    return report


def main_validate(argv: Sequence[str] | None = None) -> int:
    """CLI: ``repro-validate [--quick] [--benchmarks ...]``."""
    import argparse

    parser = argparse.ArgumentParser(
        description="Cross-validate every scheme on every benchmark pattern."
    )
    parser.add_argument(
        "--benchmarks", nargs="*", choices=sorted(BENCHMARKS), default=None
    )
    parser.add_argument("--quick", action="store_true", help="fewer shapes")
    parser.add_argument("--verbose", action="store_true", help="print each case")
    args = parser.parse_args(argv)

    progress = print if args.verbose else None
    report = run_validation(args.benchmarks, quick=args.quick, progress=progress)
    print(report.summary())
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main_validate())
