"""Serialization of partitioning artifacts.

A real tool needs to persist its decisions — the banking chosen for each
array is consumed by later build steps (codegen, floorplanning, reports).
This module round-trips the core objects through plain JSON-compatible
dictionaries: no pickle, no custom binary, diff-able in version control.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from .core.mapping import BankMapping
from .core.partition import PartitionSolution
from .core.pattern import Pattern
from .core.transform import LinearTransform
from .errors import ReproError


class SerializationError(ReproError, ValueError):
    """The payload is not a valid serialized repro object."""


_FORMAT = "repro/partition-solution"
_FORMAT_MAPPING = "repro/bank-mapping"
_VERSION = 1


def pattern_to_dict(pattern: Pattern) -> Dict[str, Any]:
    """JSON-compatible form of a pattern."""
    return {
        "name": pattern.name,
        "offsets": [list(offset) for offset in pattern.offsets],
    }


def pattern_from_dict(payload: Dict[str, Any]) -> Pattern:
    """Inverse of :func:`pattern_to_dict`."""
    try:
        return Pattern(payload["offsets"], name=payload.get("name", ""))
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed pattern payload: {exc}") from exc


def solution_to_dict(solution: PartitionSolution) -> Dict[str, Any]:
    """JSON-compatible form of a partitioning solution."""
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "pattern": pattern_to_dict(solution.pattern),
        "alpha": list(solution.transform.alpha),
        "extents": list(solution.transform.extents),
        "n_banks": solution.n_banks,
        "n_unconstrained": solution.n_unconstrained,
        "delta_ii": solution.delta_ii,
        "scheme": solution.scheme,
        "algorithm": solution.algorithm,
        "bank_ports": solution.bank_ports,
    }


def solution_from_dict(payload: Dict[str, Any]) -> PartitionSolution:
    """Inverse of :func:`solution_to_dict`, with validation."""
    if payload.get("format") != _FORMAT:
        raise SerializationError(
            f"expected format {_FORMAT!r}, got {payload.get('format')!r}"
        )
    if payload.get("version") != _VERSION:
        raise SerializationError(f"unsupported version {payload.get('version')!r}")
    try:
        solution = PartitionSolution(
            pattern=pattern_from_dict(payload["pattern"]),
            transform=LinearTransform(
                alpha=tuple(payload["alpha"]),
                extents=tuple(payload.get("extents", ())),
            ),
            n_banks=int(payload["n_banks"]),
            n_unconstrained=int(payload["n_unconstrained"]),
            delta_ii=int(payload["delta_ii"]),
            scheme=str(payload["scheme"]),
            algorithm=str(payload["algorithm"]),
            bank_ports=int(payload.get("bank_ports", 1)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed solution payload: {exc}") from exc
    for name in ("n_banks", "n_unconstrained", "bank_ports"):
        if getattr(solution, name) < 1:
            raise SerializationError(
                f"malformed solution payload: {name} must be at least 1, "
                f"got {getattr(solution, name)}"
            )
    transform = solution.transform
    ndim = solution.pattern.ndim
    if len(transform.alpha) != ndim or len(transform.extents) not in (0, ndim):
        raise SerializationError(
            f"malformed solution payload: a {ndim}-D pattern needs {ndim} alpha "
            f"components and 0 or {ndim} extents, got {len(transform.alpha)} "
            f"and {len(transform.extents)}"
        )
    # Sanity: the recorded bank hash must still separate the pattern to the
    # recorded delta; a corrupted file should not silently mis-bank.  Each
    # physical bank serves ``bank_ports`` accesses per cycle, so the busiest
    # bank's load divides by the port count before comparing.
    banks = solution.bank_indices()
    worst = max(banks.count(b) for b in set(banks))
    measured_delta = -(-worst // solution.bank_ports) - 1
    if measured_delta > solution.delta_ii:
        raise SerializationError(
            f"payload is inconsistent: measured delta {measured_delta} exceeds "
            f"recorded delta {solution.delta_ii}"
        )
    return solution


def mapping_to_dict(mapping: BankMapping) -> Dict[str, Any]:
    """JSON-compatible form of a full bank mapping."""
    return {
        "format": _FORMAT_MAPPING,
        "version": _VERSION,
        "solution": solution_to_dict(mapping.solution),
        "shape": list(mapping.shape),
    }


def mapping_from_dict(payload: Dict[str, Any]) -> BankMapping:
    """Inverse of :func:`mapping_to_dict`."""
    if payload.get("format") != _FORMAT_MAPPING:
        raise SerializationError(
            f"expected format {_FORMAT_MAPPING!r}, got {payload.get('format')!r}"
        )
    try:
        return BankMapping(
            solution=solution_from_dict(payload["solution"]),
            shape=tuple(payload["shape"]),
        )
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed mapping payload: {exc}") from exc


def save_solution(solution: PartitionSolution, path: Union[str, Path]) -> None:
    """Write a solution to a JSON file."""
    Path(path).write_text(json.dumps(solution_to_dict(solution), indent=2))


def load_solution(path: Union[str, Path]) -> PartitionSolution:
    """Read a solution from a JSON file."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SerializationError(f"{path} is not valid JSON: {exc}") from exc
    return solution_from_dict(payload)


def save_mapping(mapping: BankMapping, path: Union[str, Path]) -> None:
    """Write a full mapping (solution + array shape) to a JSON file."""
    Path(path).write_text(json.dumps(mapping_to_dict(mapping), indent=2))


def load_mapping(path: Union[str, Path]) -> BankMapping:
    """Read a full mapping from a JSON file."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SerializationError(f"{path} is not valid JSON: {exc}") from exc
    return mapping_from_dict(payload)
