"""Seeded request generation for the served workloads.

The program only ever sees the generated request bodies.  The seed picks
variants, shapes, ``n_max`` values and the request order; the *mix*
(which pattern family, objective and endpoint comes next) follows a fixed
rotation, so two seeds load the server with the same kinds of work and a
run's medians do not depend on which seed drew the heavy patterns.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.pattern import Pattern
from repro.core.solver import Objective
from repro.patterns.library import BENCHMARKS, benchmark_shape, sobel2d_pattern
from repro.serve.protocol import SolveSpec, request_payload
from repro.verify.gen import generate_case, symmetry_variants

#: Two chiral kernels: no reflection maps them onto themselves, so their
#: reflected variants are genuinely different offset sets that the symmetry
#: canonicalization has to fold back together.
CHIRAL = (
    Pattern(((0, 1), (0, 2), (1, 0), (1, 1), (2, 1)), name="chiral_f"),
    Pattern(((0, 0), (1, 0), (2, 0), (2, 1)), name="chiral_l"),
)

OBJECTIVES = (Objective.LATENCY, Objective.BANKS, Objective.STORAGE)

#: Zipf exponent of the warm workload's key popularity.
ZIPF_S = 1.1


def base_patterns() -> List[Tuple[Pattern, Tuple[int, ...]]]:
    """The 8 library patterns and the 2 chiral kernels, with HD shapes."""
    bases = [(f(), benchmark_shape(name, "HD")) for name, f in BENCHMARKS.items()]
    bases.append((sobel2d_pattern(), benchmark_shape("sobel2d", "HD")))
    bases.extend((p, benchmark_shape(p.name, "HD")) for p in CHIRAL)
    return bases


@dataclass(frozen=True)
class Request:
    """One generated request: endpoint, body, its bytes on the wire, identity."""

    endpoint: str
    doc: Dict[str, Any]
    body: bytes
    wire: bytes
    digest: str


def make_request(endpoint: str, spec: SolveSpec) -> Request:
    doc = request_payload(spec)
    body = json.dumps(doc, sort_keys=True).encode("utf-8")
    head = (
        f"POST {endpoint} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return Request(
        endpoint=endpoint,
        doc=doc,
        body=body,
        wire=head.encode("ascii") + body,
        digest=spec.canonical_digest(),
    )


def _variants(
    pattern: Pattern, shape: Tuple[int, ...], rng: random.Random
) -> List[Tuple[Pattern, Tuple[int, ...]]]:
    """Identity plus one reflected, one permuted and one translated variant."""
    out = [(pattern, shape)]
    for kind in ("reflection", "permutation"):
        found = symmetry_variants(pattern, shape, kind)
        if found:
            _tag, variant, v_shape = rng.choice(found)
            out.append((variant, v_shape))
    shift = tuple(rng.randint(1, 4) for _ in range(pattern.ndim))
    out.append((pattern.translated(shift), shape))
    return out


def _one_variant(
    pattern: Pattern, shape: Tuple[int, ...], rng: random.Random
) -> Tuple[Pattern, Tuple[int, ...]]:
    return rng.choice(_variants(pattern, shape, rng))


# -- serve_warm ---------------------------------------------------------------


def warm_keys(seed: int) -> List[Request]:
    """Every key of the warm workload, most popular first.

    Base patterns keep a fixed popularity order (Table 1 rows, then
    Sobel 2-D and the chiral kernels); the seed orders each pattern's
    variants × ``n_max`` keys among themselves.
    """
    rng = random.Random(f"perfbench:warm-keys:{seed}")
    keys: List[Request] = []
    for pattern, shape in base_patterns():
        m = pattern.size
        group = [
            make_request(
                "/solve",
                SolveSpec(variant, v_shape, n_max, Objective.LATENCY, 0),
            )
            for variant, v_shape in _variants(pattern, shape, rng)
            for n_max in (None, max(1, m // 2), m + 2)
        ]
        rng.shuffle(group)
        keys.extend(group)
    return keys


def zipf_sequence(n_keys: int, count: int, seed: int) -> List[int]:
    """``count`` key indices drawn from Zipf(:data:`ZIPF_S`) over ranks."""
    rng = random.Random(f"perfbench:warm-seq:{seed}")
    cumulative = list(
        itertools.accumulate(1.0 / (rank ** ZIPF_S) for rank in range(1, n_keys + 1))
    )
    total = cumulative[-1]
    return [
        min(bisect.bisect_left(cumulative, rng.random() * total), n_keys - 1)
        for _ in range(count)
    ]


# -- serve_cold ---------------------------------------------------------------


def _n_max_and_delta(
    objective: Objective, m: int, binding: bool, rng: random.Random
) -> Tuple[Optional[int], int]:
    """Constraints every spec can meet, so no request is infeasible.

    ``BANKS`` runs unconstrained (its ceiling is then ``N_f``, which always
    reaches δ = 0); ``STORAGE`` always has a ceiling (1 divides every
    width); ``LATENCY`` accepts any ceiling.
    """
    if objective is Objective.BANKS:
        return None, rng.randint(0, m // 2)
    if binding:
        return rng.randint(1, max(1, m - 1)), 0
    if objective is Objective.LATENCY and rng.random() < 0.5:
        return None, 0
    return rng.randint(m, m + 4), 0


class ColdSpecs:
    """Distinct specs for the cold workload: no two share a canonical digest.

    Request ``i`` is a ``/simulate`` when ``i % 4 == 3`` (a 2-D pattern on
    a ~64×64 array) and a ``/solve`` otherwise.  Solves alternate between a
    library/chiral pattern and a pattern from the verify fuzz generator
    (1-D to 4-D), cycle through the three objectives, and alternate binding
    and slack ceilings.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._bases = base_patterns()
        self._bases_2d = [(p, s) for p, s in self._bases if p.ndim == 2]
        self._seen: set = set()

    def _distinct(
        self, endpoint: str, make_spec, rng: random.Random
    ) -> Request:
        """Redraw until the digest is new; each retry widens the width range."""
        for retry in itertools.count():
            request = make_request(endpoint, make_spec(rng, retry))
            if request.digest not in self._seen:
                self._seen.add(request.digest)
                return request
        raise AssertionError("unreachable")

    def _solve_spec(self, j: int):
        if j % 2 == 0:
            base, base_shape = self._bases[(j // 2) % len(self._bases)]
            case = None
        else:
            case = generate_case(self.seed, j // 2)
            base, base_shape = Pattern(case.offsets, name=f"gen{j // 2}"), case.shape
        objective = OBJECTIVES[(j // 2) % 3]
        binding = (j // 6) % 2 == 0

        def make(rng: random.Random, retry: int) -> SolveSpec:
            if case is None:
                pattern, shape = _one_variant(base, base_shape, rng)
            else:
                pattern, shape = base, base_shape
            shape = tuple(shape[:-1]) + (rng.randint(600, 1400 + retry),)
            n_max, delta_max = _n_max_and_delta(objective, pattern.size, binding, rng)
            return SolveSpec(pattern, shape, n_max, objective, delta_max)

        return make

    def _simulate_spec(self, k: int):
        base, base_shape = self._bases_2d[k % len(self._bases_2d)]
        objective = OBJECTIVES[(k // len(self._bases_2d)) % 3]
        binding = (k // (3 * len(self._bases_2d))) % 2 == 0

        def make(rng: random.Random, retry: int) -> SolveSpec:
            pattern, _shape = _one_variant(base, base_shape, rng)
            n_max, delta_max = _n_max_and_delta(objective, pattern.size, binding, rng)
            return SolveSpec(
                pattern, (64, rng.randint(48, 80 + retry)), n_max, objective, delta_max
            )

        return make

    def _simulate(self, i: int) -> Request:
        rng = random.Random(f"perfbench:cold:{self.seed}:{i}")
        return self._distinct("/simulate", self._simulate_spec(i // 4), rng)

    def __iter__(self) -> Iterator[Request]:
        for i in itertools.count():
            if i % 4 == 3:
                yield self._simulate(i)
            else:
                rng = random.Random(f"perfbench:cold:{self.seed}:{i}")
                yield self._distinct("/solve", self._solve_spec(i - i // 4), rng)


def simulate_specs(seed: int, count: int) -> List[Request]:
    """The first ``count`` simulate requests of :class:`ColdSpecs`."""
    specs = ColdSpecs(seed)
    return [specs._simulate(4 * k + 3) for k in range(count)]
