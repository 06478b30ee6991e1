"""Wire protocol for the partitioning service: JSON in, JSON out.

Every endpoint speaks plain JSON documents over HTTP/1.1 — no framing
beyond ``Content-Length``, no dependencies beyond the stdlib.  This module
is the single place where untrusted request bodies become validated core
objects (and back), so the server, the client, and the tests all share one
schema:

* a **pattern** is ``{"benchmark": "log"}``, ``{"offsets": [[0,1], ...]}``,
  or ``{"mask": ["010", "111", "010"]}`` (plus an optional ``"name"``);
* a **solve spec** adds ``shape``, ``n_max``, ``objective``, ``delta_max``;
* a **simulate spec** adds the sweep knobs (``step``, ``limit``, ``ports``,
  ``verify``, ``engine``) and makes ``shape`` mandatory;
* errors are ``{"error": {"code": ..., "message": ...}}`` with a matching
  HTTP status (the codes are the :data:`ERROR_*` constants below).

Identity: a spec's :meth:`~SolveSpec.canonical_cache_key` is exactly the
in-memory solve-cache key, and :meth:`~SolveSpec.canonical_digest` is its
:func:`~repro.core.cache.stable_digest`, what the coalescer and the on-disk
store key by.  Requests that differ only by translation share that
identity and resolve to one solve, stored once for the origin-normalized
pattern (:meth:`~SolveSpec.canonicalized`); each requester gets it back
with its own pattern re-attached.  Mirrored or axis-permuted copies are
different patterns with their own identity.

Work estimates: every spec has one :meth:`~SolveSpec.work_estimate`, built
from the quantities admission bounds (Algorithm 1's pairs, the same-size
sweep's ceiling, a simulation's elements and reads).  The server runs work
that fits :data:`INLINE_WORK_BUDGET` on its event loop and the rest on an
executor thread (see :mod:`repro.serve.server`).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional, Tuple

from ..core.cache import canonical_key, canonicalize, stable_digest
from ..core.mapping import BankMapping, ours_overhead_elements
from ..core.partition import PartitionSolution
from ..core.pattern import Pattern
from ..core.solver import Objective
from ..core.vectorized import (
    DEFAULT_CHUNK_ELEMENTS,
    DEFAULT_MAX_GRID_ELEMENTS,
    grid_size,
)
from ..errors import ReproError, SimulationError
from ..io import pattern_to_dict, solution_to_dict

#: Structured error codes carried in ``{"error": {"code": ...}}``.
ERROR_BAD_REQUEST = "bad_request"
ERROR_NOT_FOUND = "not_found"
ERROR_INFEASIBLE = "infeasible"
ERROR_DEADLINE = "deadline_exceeded"
ERROR_QUEUE_FULL = "queue_full"
ERROR_SHUTTING_DOWN = "shutting_down"
ERROR_INTERNAL = "internal"

#: error code → HTTP status the server answers with.
HTTP_STATUS: Dict[str, int] = {
    ERROR_BAD_REQUEST: 400,
    ERROR_NOT_FOUND: 404,
    ERROR_INFEASIBLE: 422,
    ERROR_QUEUE_FULL: 429,
    ERROR_INTERNAL: 500,
    ERROR_SHUTTING_DOWN: 503,
    ERROR_DEADLINE: 504,
}

#: Simulation engines a request may name (mirrors ``sim.memsim.ENGINES``).
SIM_ENGINES = ("auto", "scalar", "native")

# Work estimates are in units of one native simulated read, ~5 ns on the
# 2-core dev box.  Each weight below is from in-process timings there
# (best of 3-5 runs, Python 3.11, native tier built).

#: A solve's fixed cost: cold solves of the small library stencils take
#: 0.055-0.10 ms.
SOLVE_WORK = 20_000

#: One of Algorithm 1's ``m(m−1)/2`` pairwise differences: the m = 724
#: solve (random 2-D offsets in a 200×200 box) takes 36.5 ms over 261,726
#: pairs, ~140 ns each.
PAIR_WORK = 30

#: One (bank count, offset) cell of the same-size sweep: LoG under
#: ``storage`` at w = 2^18 or ``banks`` at ``n_max`` = 2^18 takes 124-129 ms
#: for 3.4M cells, 36-38 ns each (58 ns at w = 1024).
SWEEP_CELL_WORK = 10

#: One simulated element, loaded or read, by resolved engine: native
#: 4.6-6.4 ns (LoG and Canny from 64×64 to 1024×1024), scalar
#: 13.5-14.1 µs (LoG from 16×16 to 256×256).
ELEMENT_WORK = {"native": 1, "scalar": 2_800}

#: The most estimated work the server runs on its event loop, ~1.5 ms on
#: the dev box.  Every request of perfbench's ``serve_cold`` fits: over its
#: first 24k specs (seeds 1-2) the largest solve is 36,770 units (Sobel 3-D
#: under "banks") and the largest sweep 120,684 (Canny on 64×81; Canny on
#: 64×80 simulates in 0.64 ms).
#: The m = 724 solve (7.9M units), LoG sweeps over 2^18 bank counts (34M),
#: a native 1024×1024 LoG simulate (14.6M, 79 ms) and a scalar LoG
#: simulate on 16×16 (6.0M, 26 ms) do not.
INLINE_WORK_BUDGET = 300_000


class BadRequestError(ReproError, ValueError):
    """The request body does not follow the protocol."""


def error_payload(code: str, message: str, **extra: Any) -> Dict[str, Any]:
    """The structured error document every failure path returns."""
    doc: Dict[str, Any] = {"code": code, "message": message}
    doc.update(extra)
    return {"error": doc}


# -- request parsing --------------------------------------------------------


def _is_int_list(value: Any) -> bool:
    """A list of JSON integers (``bool`` is an ``int`` subclass, not a number)."""
    return isinstance(value, (list, tuple)) and all(type(v) is int for v in value)


def _is_int_rows(value: Any) -> bool:
    """A list of :func:`_is_int_list` rows, in two C-level passes.

    One pass checks every row with ``isinstance`` (so list and tuple
    subclasses pass, as they do for :func:`_is_int_list`), the other
    collects the exact types of all components, which must be ``{int}``.
    """
    return (
        isinstance(value, (list, tuple))
        and all(map(isinstance, value, itertools.repeat((list, tuple))))
        and set(map(type, itertools.chain.from_iterable(value))) <= {int}
    )


def require_mapping(doc: Any) -> Dict[str, Any]:
    """Return ``doc`` if it is a JSON object, else raise :class:`BadRequestError`."""
    if not isinstance(doc, dict):
        raise BadRequestError(f"request body must be a JSON object, got {type(doc).__name__}")
    return doc


def parse_pattern(doc: Dict[str, Any]) -> Pattern:
    """Build the request's pattern from one of the three accepted forms."""
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise BadRequestError("pattern name must be a string")
    if "benchmark" in doc:
        from ..patterns.library import BENCHMARKS, benchmark_pattern

        bench = doc["benchmark"]
        if not isinstance(bench, str):
            raise BadRequestError(f"benchmark must be a string, got {bench!r}")
        if bench not in BENCHMARKS:
            raise BadRequestError(
                f"unknown benchmark {bench!r}; one of {sorted(BENCHMARKS)}"
            )
        return benchmark_pattern(bench)
    if "offsets" in doc:
        offsets = doc["offsets"]
        if not _is_int_rows(offsets):
            raise BadRequestError(
                f"offsets must be a list of integer lists, got {offsets!r}"
            )
        try:
            return Pattern(offsets, name=name)
        except ReproError as exc:
            raise BadRequestError(f"bad offsets: {exc}") from exc
    if "mask" in doc:
        rows = doc["mask"]
        try:
            grid = [
                [int(ch) for ch in row] if isinstance(row, str) else list(row)
                for row in rows
            ]
            return Pattern.from_mask(grid, name=name or "mask")
        except (ReproError, TypeError, ValueError) as exc:
            raise BadRequestError(f"bad mask: {exc}") from exc
    raise BadRequestError(
        "pattern source required: one of 'benchmark', 'offsets', or 'mask'"
    )


def _parse_shape(doc: Dict[str, Any], ndim: int) -> Optional[Tuple[int, ...]]:
    raw = doc.get("shape")
    if raw is None:
        return None
    if not _is_int_list(raw):
        raise BadRequestError(f"shape must be a list of integers, got {raw!r}")
    shape = tuple(raw)
    if len(shape) != ndim:
        raise BadRequestError(
            f"shape {shape} does not match pattern dimensionality {ndim}"
        )
    if any(w < 1 for w in shape):
        raise BadRequestError(f"shape extents must be positive, got {shape}")
    return shape


def _sweep_ceiling(
    objective: Objective, shape: Optional[Tuple[int, ...]], n_max: Optional[int]
) -> Optional[int]:
    """The bank count the same-size sweep walks to, when the request sets it.

    That is ``n_max`` for "banks", and the innermost extent (or ``n_max``,
    if smaller) for "storage".  ``None`` means Algorithm 1's ``N_f`` bounds
    the sweep, if it runs at all: "banks" without ``n_max``, and "latency",
    which sweeps only below ``N_f``.
    """
    if objective is Objective.BANKS:
        return n_max
    if objective is Objective.STORAGE and shape is not None:
        return shape[-1] if n_max is None else min(n_max, shape[-1])
    return None


def _parse_optional_int(doc: Dict[str, Any], field: str, minimum: int) -> Optional[int]:
    raw = doc.get(field)
    if raw is None:
        return None
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise BadRequestError(f"{field} must be an integer, got {raw!r}")
    if raw < minimum:
        raise BadRequestError(f"{field} must be >= {minimum}, got {raw}")
    return raw


@dataclass(frozen=True)
class SolveSpec:
    """A validated ``solve`` request: everything that identifies a solution."""

    pattern: Pattern
    shape: Optional[Tuple[int, ...]]
    n_max: Optional[int]
    objective: Objective
    delta_max: int

    def canonical_cache_key(self) -> Hashable:
        """The solve-cache key (:func:`repro.core.cache.canonical_key`).

        Equal for every translate of the pattern (same shape tail /
        ``n_max`` / objective / ``delta_max``) — this is what the
        in-memory cache indexes by.
        """
        return canonical_key(
            self.pattern, self.shape, self.n_max, self.objective.value, self.delta_max
        )

    def canonical_digest(self) -> str:
        """Cross-process identity: what the coalescer and the store key by."""
        return stable_digest(self.canonical_cache_key())

    def work_estimate(self) -> int:
        """Estimated work of solving this spec cold (see :data:`SOLVE_WORK`).

        A fixed cost, Algorithm 1's ``m(m−1)/2`` pairs and the same-size
        sweep's ``ceiling · m`` cells.  Where ``N_f`` bounds the sweep, the
        pattern's bounding-box volume stands in for it: ``α``'s suffix
        products keep every transformed offset within that volume, so
        ``N_f`` never exceeds it.  Translated, mirrored and axis-permuted
        copies of a spec get the same estimate.
        """
        m = self.pattern.size
        ceiling = _sweep_ceiling(self.objective, self.shape, self.n_max)
        if ceiling is None and self.objective is not Objective.STORAGE:
            if self.objective is Objective.BANKS:
                ceiling = self.pattern.bounding_box_volume
            elif self.n_max is not None:
                ceiling = min(self.n_max, self.pattern.bounding_box_volume)
        return (
            SOLVE_WORK
            + PAIR_WORK * (m * (m - 1) // 2)
            + SWEEP_CELL_WORK * (ceiling or 0) * m
        )

    def canonicalized(self) -> Tuple["SolveSpec", Tuple[int, ...]]:
        """The spec for the origin-normalized pattern, and the corner moved.

        The returned spec's pattern is :func:`~repro.core.cache.canonicalize`
        of this spec's pattern, and the corner is the minimum offset that
        was subtracted (all zeros when the pattern already sits at the
        origin; the spec itself is returned then).  Solving the returned
        spec and re-attaching this spec's pattern yields exactly what
        solving this spec directly returns.
        """
        canon_pattern = canonicalize(self.pattern)
        # Translation keeps the sorted order: first offsets differ by the corner.
        corner = tuple(
            a - b for a, b in zip(self.pattern.offsets[0], canon_pattern.offsets[0])
        )
        if canon_pattern.offsets == self.pattern.offsets:
            return self, corner
        return dataclasses.replace(self, pattern=canon_pattern), corner


@dataclass(frozen=True)
class SimulateSpec:
    """A validated ``simulate`` request: a solve spec plus sweep knobs."""

    solve: SolveSpec
    step: int
    limit: Optional[int]
    ports_per_bank: int
    verify: bool
    engine: str

    def work_estimate(self) -> int:
        """Estimated work of the sweep alone (the solve is estimated apart).

        Every element of the array is loaded once and every iteration reads
        the pattern's ``m`` offsets; each costs :data:`ELEMENT_WORK` of the
        engine ``engine`` resolves to (``auto`` is native wherever the
        compiled tier loads, else scalar).
        """
        from .. import native
        from ..sim.trace import domain_ranges

        engine = self.engine
        if engine == "auto":
            engine = "native" if native.available() else "scalar"
        pattern, shape = self.solve.pattern, self.solve.shape
        assert shape is not None  # parse_simulate_spec requires it
        iterations = math.prod(map(len, domain_ranges(pattern, shape, self.step)))
        if self.limit is not None:
            iterations = min(iterations, self.limit)
        elements = grid_size(shape) + iterations * pattern.size
        return ELEMENT_WORK[engine] * elements


def parse_solve_spec(doc: Any) -> SolveSpec:
    """Validate a ``solve`` request body."""
    doc = require_mapping(doc)
    pattern = parse_pattern(doc)
    # Algorithm 1's histogram spans the largest pairwise difference, which
    # grows with the bounding box: three far-apart offsets cost time linear
    # in its volume.
    volume = pattern.bounding_box_volume
    if volume > DEFAULT_CHUNK_ELEMENTS:
        raise BadRequestError(
            f"pattern bounding box has {volume} elements, above the cap of "
            f"{DEFAULT_CHUNK_ELEMENTS}"
        )
    # Algorithm 1's Q holds every pairwise difference: quadratic in m.
    pairs = pattern.size * (pattern.size - 1) // 2
    if pairs > DEFAULT_CHUNK_ELEMENTS:
        raise BadRequestError(
            f"pattern has {pattern.size} offsets, {pairs} pairwise "
            f"differences, above the cap of {DEFAULT_CHUNK_ELEMENTS}"
        )
    shape = _parse_shape(doc, pattern.ndim)
    objective_raw = doc.get("objective", Objective.LATENCY.value)
    try:
        objective = Objective(objective_raw)
    except ValueError as exc:
        raise BadRequestError(
            f"unknown objective {objective_raw!r}; one of "
            f"{[o.value for o in Objective]}"
        ) from exc
    delta_max = _parse_optional_int(doc, "delta_max", 0)
    n_max = _parse_optional_int(doc, "n_max", 1)
    # The same-size sweep walks every bank count up to its ceiling.
    # "latency" sweeps only below N_f, which the pattern bounds, so a slack
    # n_max of any size stays cheap.
    ceiling = _sweep_ceiling(objective, shape, n_max)
    if ceiling is not None and ceiling > DEFAULT_CHUNK_ELEMENTS:
        raise BadRequestError(
            f"objective {objective.value!r} would sweep {ceiling} bank counts, "
            f"above the cap of {DEFAULT_CHUNK_ELEMENTS}"
        )
    return SolveSpec(
        pattern=pattern,
        shape=shape,
        n_max=n_max,
        objective=objective,
        delta_max=0 if delta_max is None else delta_max,
    )


def parse_simulate_spec(doc: Any) -> SimulateSpec:
    """Validate a ``simulate`` request body (``shape`` is mandatory)."""
    doc = require_mapping(doc)
    spec = parse_solve_spec(doc)
    if spec.shape is None:
        raise BadRequestError("simulate requires an array shape")
    volume = grid_size(spec.shape)
    if volume > DEFAULT_MAX_GRID_ELEMENTS:
        raise BadRequestError(
            f"simulate shape {list(spec.shape)} has {volume} elements, above "
            f"the cap of {DEFAULT_MAX_GRID_ELEMENTS}"
        )
    from ..sim.trace import domain_ranges  # local: repro.sim is heavy to import

    try:
        domain_ranges(spec.pattern, spec.shape)
    except SimulationError as exc:
        raise BadRequestError(str(exc)) from exc
    step = _parse_optional_int(doc, "step", 1)
    ports = _parse_optional_int(doc, "ports", 1)
    engine = doc.get("engine", "auto")
    if engine not in SIM_ENGINES:
        raise BadRequestError(f"unknown engine {engine!r}; one of {SIM_ENGINES}")
    if engine == "native":
        from .. import native

        if not native.available():
            raise BadRequestError(
                "engine 'native' is unavailable in this server (engine "
                "'auto' falls back silently): "
                f"{native.build_info()['import_error']}"
            )
    verify = doc.get("verify", True)
    if not isinstance(verify, bool):
        raise BadRequestError(f"verify must be a boolean, got {verify!r}")
    return SimulateSpec(
        solve=spec,
        step=1 if step is None else step,
        limit=_parse_optional_int(doc, "limit", 1),
        ports_per_bank=1 if ports is None else ports,
        verify=verify,
        engine=engine,
    )


def parse_timeout_s(doc: Any) -> Optional[float]:
    """Per-request deadline in seconds, from a ``timeout_ms`` field.

    ``None`` (absent) means no deadline; any finite number is accepted — a
    non-positive budget simply expires immediately, which is the documented
    way to probe the deadline path.  ``NaN`` and infinities (which Python's
    JSON parser accepts) are rejected.
    """
    if not isinstance(doc, dict):
        return None
    raw = doc.get("timeout_ms")
    if raw is None:
        return None
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise BadRequestError(f"timeout_ms must be a number, got {raw!r}")
    try:
        seconds = float(raw) / 1000.0
    except OverflowError:
        seconds = math.inf
    if not math.isfinite(seconds):
        raise BadRequestError(f"timeout_ms must be finite, got {raw!r}")
    return seconds


# -- response building ------------------------------------------------------


def solution_payload(
    solution: PartitionSolution, spec: SolveSpec, digest: str
) -> Dict[str, Any]:
    """The ``solve`` response body for one solved spec.

    The solution travels in the same ``repro/partition-solution`` JSON
    format :mod:`repro.io` persists, so a client can feed the response
    straight into :func:`repro.io.solution_from_dict` and obtain an object
    bit-identical to a direct in-process :func:`repro.core.solver.solve`.
    """
    overhead = (
        ours_overhead_elements(spec.shape, solution.n_banks) if spec.shape else 0
    )
    payload: Dict[str, Any] = {
        "key": digest,
        "solution": solution_to_dict(solution),
        "objective_vector": [solution.delta_ii, solution.n_banks, overhead],
        "overhead_elements": overhead,
    }
    if spec.shape:
        mapping = BankMapping(solution=solution, shape=spec.shape)
        payload["mapping"] = {
            "shape": list(spec.shape),
            "rows_per_bank": mapping.rows_per_bank,
            "total_bank_elements": mapping.total_bank_elements,
        }
    return payload


def request_payload(spec: SolveSpec) -> Dict[str, Any]:
    """The canonical request body for a spec (what the client sends)."""
    doc: Dict[str, Any] = {"offsets": pattern_to_dict(spec.pattern)["offsets"]}
    if spec.pattern.name:
        doc["name"] = spec.pattern.name
    if spec.shape is not None:
        doc["shape"] = list(spec.shape)
    if spec.n_max is not None:
        doc["n_max"] = spec.n_max
    if spec.objective is not Objective.LATENCY:
        doc["objective"] = spec.objective.value
    if spec.delta_max:
        doc["delta_max"] = spec.delta_max
    return doc
