"""One answer per pattern, whichever path computes it.

``solve(cache=False)`` and ``solve(ops=OpCounter())`` must return the same
solution, field for field, and where the case asks for the same-size
scheme both must equal ``partition`` — the paper's flow, which solves the
caller's own offsets and never canonicalizes.  A served ``/solve`` — cold,
answered from memory, or answered from the store after a restart — must
reply with exactly the bytes of that in-process answer.

The patterns are the ones a symmetry shortcut would get wrong: chiral
kernels and their mirrors, plus every library benchmark and the first
200 seed-0 verify cases.
"""

from __future__ import annotations

import json

import pytest

from repro.core import Pattern, partition, solve, solve_cache
from repro.core.opcount import OpCounter
from repro.obs import registry
from repro.patterns.library import BENCHMARKS
from repro.serve import ServeClient, serve_in_thread
from repro.serve.protocol import parse_solve_spec, solution_payload
from repro.verify.gen import generate_case

#: The served benchmark's two chiral kernels: no reflection maps either
#: onto itself.
CHIRAL = (
    Pattern(((0, 1), (0, 2), (1, 0), (1, 1), (2, 1)), name="chiral_f"),
    Pattern(((0, 0), (1, 0), (2, 0), (2, 1)), name="chiral_l"),
)

CORNER = Pattern(((0, 0), (0, 1), (1, 0)), name="corner")

#: (pattern, shape) pairs solved with no ceiling and with a binding one.
NAMED = (
    [(p, (64, 64)) for p in CHIRAL]
    + [(CORNER, (24, 24)), (CORNER.reflected((0,)).with_name("mirrored"), (24, 24))]
    + [
        (factory(), (16, 24, 32) if factory().ndim == 3 else (64, 64))
        for factory in BENCHMARKS.values()
    ]
)


def _fields(solution):
    return {
        "offsets": solution.pattern.offsets,
        "name": solution.pattern.name,
        "alpha": solution.transform.alpha,
        "extents": solution.transform.extents,
        "n_banks": solution.n_banks,
        "n_unconstrained": solution.n_unconstrained,
        "delta_ii": solution.delta_ii,
        "scheme": solution.scheme,
        "algorithm": solution.algorithm,
        "bank_ports": solution.bank_ports,
    }


def _check(pattern, shape, n_max, same_size=True):
    plain = solve(pattern, shape, n_max=n_max, cache=False).solution
    counted = solve(pattern, shape, n_max=n_max, ops=OpCounter()).solution
    assert _fields(plain) == _fields(counted), (pattern, n_max)
    if same_size:
        reference = partition(pattern, n_max=n_max, same_size=True, cache=False)
        assert _fields(plain) == _fields(reference), (pattern, n_max)


@pytest.mark.parametrize("binding", [False, True], ids=["free", "binding"])
def test_named_patterns_get_one_answer(binding):
    for pattern, shape in NAMED:
        n_max = max(1, pattern.size - 2) if binding else None
        _check(pattern, shape, n_max)


def test_mirrors_get_their_own_answers():
    """The paper's answers, which a shared orbit solve would overwrite."""
    assert solve(CORNER, cache=False).solution.n_banks == 3
    assert solve(CORNER.reflected((0,)), cache=False).solution.n_banks == 4
    chiral_f = solve(CHIRAL[0], cache=False).solution
    assert (chiral_f.n_banks, chiral_f.transform.alpha) == (7, (3, 1))
    assert solve(CHIRAL[0].reflected((0,)), cache=False).solution.n_banks == 8


def test_first_200_seed0_verify_cases_get_one_answer():
    same_size = 0
    for index in range(200):
        case = generate_case(0, index)
        scheme_matches = case.scheme == "same-size"
        same_size += scheme_matches
        _check(case.pattern(), case.shape, case.n_max, same_size=scheme_matches)
    assert same_size > 50


def _reply_bytes(client, doc):
    status, data, _ctype = client._request("POST", "/solve", doc)
    assert status == 200, data
    return data


@pytest.mark.parametrize("mirrored", [False, True], ids=["chiral_f", "mirror"])
def test_served_replies_are_the_in_process_answer(tmp_path, mirrored):
    """Cold, memory-hit and restarted-store replies are byte-identical to
    ``solution_payload`` of the in-process ``solve(ops=...)`` solution."""
    pattern = CHIRAL[0].reflected((0,)) if mirrored else CHIRAL[0]
    doc = {"offsets": [list(v) for v in pattern.offsets], "shape": [64, 64]}
    spec = parse_solve_spec(doc)
    solution = solve(
        spec.pattern, spec.shape, n_max=spec.n_max, ops=OpCounter()
    ).solution
    payload = solution_payload(solution, spec, spec.canonical_digest())
    expected = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    store_dir = str(tmp_path / "store")
    hits = registry().counter("solve.cache.hits")
    with serve_in_thread(store_dir=store_dir) as srv:
        with ServeClient(port=srv.port) as client:
            cold = _reply_bytes(client, doc)
            before = hits.value
            warm = _reply_bytes(client, doc)
            assert hits.value == before + 1  # answered from memory
    solve_cache.clear()  # only the store carries the answer across the restart
    with serve_in_thread(store_dir=store_dir) as srv:
        with ServeClient(port=srv.port) as client:
            restarted = _reply_bytes(client, doc)
            assert client.healthz()["store"]["hits"] == 1
    assert cold == expected
    assert warm == expected
    assert restarted == expected
