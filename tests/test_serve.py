"""The serving subsystem: protocol, store, endpoints, deadlines, restarts.

Each test boots a real :class:`~repro.serve.server.ThreadedServer` on an
ephemeral port and talks to it through the blocking client — the full
stack (HTTP framing, coalescer, solve tier, store) is exercised exactly as
production traffic would, never through private shortcuts.
"""

from __future__ import annotations

import http.client
import importlib
import json
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Pattern
from repro.core.cache import canonical_key, stable_digest
from repro.core.solver import Objective, solve
from repro.core.vectorized import DEFAULT_CHUNK_ELEMENTS
from repro.io import solution_from_dict, solution_to_dict
from repro.obs import registry
from repro.patterns import log_pattern, median_pattern, se_pattern
from repro.serve import (
    BadRequestError,
    DeadlineExceededError,
    InfeasibleRequestError,
    ServeClient,
    ServeError,
    ServerBusyError,
    SolutionStore,
    parse_simulate_spec,
    parse_solve_spec,
    serve_in_thread,
)
from repro.serve import protocol
from repro.serve.protocol import request_payload
from repro.serve.server import MAX_BODY_BYTES


@pytest.fixture()
def server(tmp_path):
    with serve_in_thread(store_dir=str(tmp_path / "store")) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with ServeClient(port=server.port) as c:
        yield c


@pytest.fixture()
def count_solves(monkeypatch):
    """Count calls into the real solver body, wherever they run in-process."""
    solver_mod = importlib.import_module("repro.core.solver")
    calls = {"n": 0}
    real = solver_mod._solve_impl

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "_solve_impl", counting)
    return calls


def _reference_is_int_rows(value):
    """The per-row offsets check the type-set test replaced, kept as the oracle."""
    return isinstance(value, (list, tuple)) and all(
        isinstance(row, (list, tuple)) and all(type(v) is int for v in row)
        for row in value
    )


#: Decoded JSON values, plus lists of short rows so that accepted offsets
#: and near misses (a bool, a float, a dict or a string row) are common.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=10,
)
_OFFSET_LIKE = st.lists(
    st.lists(st.integers(), max_size=3) | _JSON_VALUES, max_size=4
)


class TestProtocol:
    @given(_OFFSET_LIKE | _JSON_VALUES)
    @settings(max_examples=400, deadline=None)
    def test_offsets_check_accepts_what_the_per_row_check_did(self, value):
        assert protocol._is_int_rows(value) is _reference_is_int_rows(value)

    def test_solve_spec_identity_matches_cache_key(self):
        spec = parse_solve_spec({"benchmark": "log", "n_max": 10, "shape": [640, 480]})
        assert spec.canonical_cache_key() == canonical_key(
            log_pattern(), (640, 480), 10, "latency", 0
        )
        assert spec.canonical_digest() == stable_digest(spec.canonical_cache_key())

    def test_request_payload_round_trips(self):
        spec = parse_solve_spec(
            {"offsets": [[0, 0], [0, 2], [1, 1]], "name": "tri", "n_max": 4}
        )
        assert parse_solve_spec(request_payload(spec)) == spec

    def test_translated_patterns_share_a_digest(self):
        a = parse_solve_spec({"offsets": [[0, 0], [1, 1]]})
        b = parse_solve_spec({"offsets": [[7, 3], [8, 4]]})
        assert a.canonical_digest() == b.canonical_digest()

    def test_mask_and_offsets_forms_agree(self):
        mask = parse_solve_spec({"mask": ["010", "111", "010"]})
        offsets = parse_solve_spec(
            {"offsets": [[0, 1], [1, 0], [1, 1], [1, 2], [2, 1]]}
        )
        assert mask.canonical_digest() == offsets.canonical_digest()

    @pytest.mark.parametrize(
        "body",
        [
            [],
            {},
            {"benchmark": "nope"},
            {"offsets": [[0, 0], [0, 0]]},
            {"benchmark": "log", "shape": [640]},
            {"benchmark": "log", "shape": [0, 4]},
            {"benchmark": "log", "n_max": 0},
            {"benchmark": "log", "objective": "fastest"},
            {"benchmark": "log", "delta_max": -1},
        ],
    )
    def test_bad_solve_bodies(self, body):
        with pytest.raises(BadRequestError):
            parse_solve_spec(body)

    def test_bounding_box_cap_counts_volume_inclusively(self):
        parse_solve_spec({"offsets": [[0], [DEFAULT_CHUNK_ELEMENTS - 1]]})
        parse_solve_spec({"offsets": [[0, 0], [511, 511]]})  # 512 * 512 = 2^18
        for far in ([[0], [DEFAULT_CHUNK_ELEMENTS]], [[0, 0], [512, 511]]):
            with pytest.raises(BadRequestError, match="bounding box"):
                parse_solve_spec({"offsets": far})

    def test_pattern_size_cap_counts_pairwise_differences(self):
        # 724 * 723 / 2 <= 2^18 < 725 * 724 / 2
        grid = [[i // 30, i % 30] for i in range(725)]
        assert parse_solve_spec({"offsets": grid[:724]}).pattern.size == 724
        with pytest.raises(BadRequestError, match="725 offsets, 262450 pairwise"):
            parse_solve_spec({"offsets": grid})

    def test_simulate_requires_shape(self):
        with pytest.raises(BadRequestError, match="shape"):
            parse_simulate_spec({"benchmark": "log"})


class TestSolutionStore:
    def _digest_and_solution(self, n_max=10):
        solution = solve(log_pattern(), n_max=n_max, cache=False).solution
        digest = stable_digest(canonical_key(log_pattern(), None, n_max, "latency", 0))
        return digest, solution

    def test_round_trip_and_reattach(self, tmp_path):
        store = SolutionStore(tmp_path)
        digest, solution = self._digest_and_solution()
        store.put(digest, solution)
        assert len(store) == 1
        moved = log_pattern().translated((2, 5))
        loaded = store.get(digest, moved)
        assert loaded.pattern == moved
        assert loaded.n_banks == solution.n_banks
        assert (store.hits, store.misses) == (1, 0)

    def test_survives_reopen(self, tmp_path):
        digest, solution = self._digest_and_solution()
        SolutionStore(tmp_path).put(digest, solution)
        reopened = SolutionStore(tmp_path)
        assert reopened.get(digest) == solution

    def test_lru_eviction_bounds_entries(self, tmp_path):
        store = SolutionStore(tmp_path, max_entries=3)
        digests = []
        for n_max in range(5, 10):
            digest, solution = self._digest_and_solution(n_max)
            digests.append(digest)
            store.put(digest, solution)
        assert len(store) == 3
        assert store.get(digests[0]) is None  # oldest evicted
        assert store.get(digests[-1]) is not None

    def test_corrupt_artifact_is_dropped_not_fatal(self, tmp_path):
        store = SolutionStore(tmp_path)
        digest, solution = self._digest_and_solution()
        store.put(digest, solution)
        log = tmp_path / "solutions.log"
        record = log.read_bytes()
        # Corrupt the record's body in place; its head, which the index is
        # built from, stays intact.
        middle = len(record) // 2
        log.write_bytes(record[:middle] + b"{not json" + record[middle + 9 :])
        assert store.get(digest) is None
        assert store.digests() == []
        assert (store.hits, store.misses) == (0, 1)
        # The drop is in the log too: a reopened store does not serve it.
        assert SolutionStore(tmp_path).digests() == []

    def test_wrong_digest_filename_rejected(self, tmp_path):
        """A record filed under one digest that carries another is refused."""
        store = SolutionStore(tmp_path)
        digest, solution = self._digest_and_solution()
        store.put(digest, solution)
        log = tmp_path / "solutions.log"
        record = log.read_bytes()
        # The same document filed under "0" * 64: its head names that digest,
        # while the digest the document carries (JSON keeps the last of a
        # repeated key) is the real one.
        forged = record.replace(digest.encode(), b"0" * 64, 1)
        forged = forged[:-2] + b',"digest":"%s"}\n' % digest.encode()
        with log.open("ab") as handle:
            handle.write(forged)
        store2 = SolutionStore(tmp_path)
        assert store2.digests() == [digest, "0" * 64]
        assert store2.get("0" * 64) is None
        assert store2.digests() == [digest]
        assert store2.get(digest) == solution


class TestSolveEndpoint:
    def test_bit_identical_to_direct_solve(self, client):
        doc = client.solve(benchmark="log", n_max=10, shape=(640, 480))
        direct = solve(log_pattern(), shape=(640, 480), n_max=10, cache=False)
        assert solution_from_dict(doc["solution"]) == direct.solution
        assert doc["overhead_elements"] == direct.overhead_elements
        assert doc["objective_vector"] == list(direct.objective_vector)

    def test_objective_and_delta_max_pass_through(self, client):
        doc = client.solve(
            benchmark="se", shape=(64, 64), n_max=8, objective="banks", delta_max=1
        )
        direct = solve(
            se_pattern(),
            shape=(64, 64),
            n_max=8,
            objective=Objective.BANKS,
            delta_max=1,
            cache=False,
        )
        assert solution_from_dict(doc["solution"]) == direct.solution

    def test_translated_request_gets_own_pattern_back(self, client):
        moved = log_pattern().translated((4, 9))
        client.solve(benchmark="log", n_max=10)  # seed the canonical solve
        sol = client.solve_solution(pattern=moved, n_max=10)
        assert sol.pattern == moved

    def test_bad_request_is_400(self, client):
        with pytest.raises(ServeError) as info:
            client.solve(mask=["abc"])
        assert info.value.http_status == 400
        assert info.value.code == "bad_request"

    @pytest.mark.parametrize(
        "body",
        [
            {"benchmark": "log", "shape": "64"},
            {"benchmark": "log", "shape": [64.9, 48]},
            {"benchmark": "log", "shape": [True, 48]},
            {"offsets": [[0, 0], [1.5, 0]]},
            {"offsets": [[0, 0], [True, 0]]},
        ],
        ids=["string-shape", "float-shape", "bool-shape", "float-offset", "bool-offset"],
    )
    def test_non_integer_coordinates_are_400(self, client, body):
        """JSON integers only: no string iteration, truncation or bool-as-1."""
        status, data, _ = client._request("POST", "/solve", body)
        assert status == 400, data
        assert json.loads(data)["error"]["code"] == "bad_request"

    @pytest.mark.parametrize(
        "body",
        [
            {"benchmark": "log", "objective": "banks", "n_max": DEFAULT_CHUNK_ELEMENTS + 1},
            {
                "benchmark": "log",
                "objective": "storage",
                "shape": [64, DEFAULT_CHUNK_ELEMENTS + 1],
            },
            {
                "benchmark": "log",
                "objective": "storage",
                "shape": [64, 2 * (DEFAULT_CHUNK_ELEMENTS + 1)],
                "n_max": DEFAULT_CHUNK_ELEMENTS + 1,
            },
        ],
        ids=["banks-n-max", "storage-extent", "storage-both"],
    )
    def test_oversized_sweep_is_400_before_any_solve(self, client, body):
        before = _scheduled()
        status, data, _ = client._request("POST", "/solve", body)
        assert status == 400, data
        assert json.loads(data)["error"]["code"] == "bad_request"
        assert _scheduled() == before

    @pytest.mark.parametrize("far", [1 << 20, 1 << 40], ids=["2^20", "2^40"])
    def test_spread_out_pattern_is_400_before_any_solve(self, client, far):
        """Three offsets, yet Algorithm 1's histogram would span ``far``."""
        before = _scheduled()
        status, data, _ = client._request(
            "POST", "/solve", {"offsets": [[0], [1], [far]]}
        )
        assert status == 400, data
        error = json.loads(data)["error"]
        assert error["code"] == "bad_request"
        assert "bounding box" in error["message"]
        assert _scheduled() == before

    def test_large_pattern_is_400_before_any_solve(self, client):
        """Algorithm 1's ``Q`` build is quadratic in the pattern size."""
        before = _scheduled()
        offsets = [[i // 30, i % 30] for i in range(725)]
        status, data, _ = client._request("POST", "/solve", {"offsets": offsets})
        assert status == 400, data
        error = json.loads(data)["error"]
        assert error["code"] == "bad_request"
        assert "725 offsets" in error["message"]
        assert _scheduled() == before

    @pytest.mark.parametrize(
        "offsets, message",
        [
            ([[1.5]], "offsets must be a list of integer lists, got [[1.5]]"),
            ([[True]], "offsets must be a list of integer lists, got [[True]]"),
            ([["1"]], "offsets must be a list of integer lists, got [['1']]"),
            ([1, 2], "offsets must be a list of integer lists, got [1, 2]"),
            (
                [[0], [0, 1]],
                "bad offsets: ragged pattern: expected 1-dimensional offsets, got (0, 1)",
            ),
            ([[0], [0]], "bad offsets: pattern contains duplicate offsets"),
            ([], "bad offsets: a pattern must contain at least one offset"),
        ],
        ids=["float", "bool", "string", "flat", "ragged", "duplicate", "empty"],
    )
    def test_offsets_rejects_keep_their_messages(self, client, offsets, message):
        status, data, _ = client._request("POST", "/solve", {"offsets": offsets})
        assert status == 400, data
        assert json.loads(data)["error"] == {"code": "bad_request", "message": message}

    @pytest.mark.parametrize(
        "name", [["log"], {"a": 1}, 7], ids=["list", "object", "number"]
    )
    def test_non_string_benchmark_is_400_before_any_solve(self, client, name):
        before = _scheduled()
        status, data, _ = client._request("POST", "/solve", {"benchmark": name})
        assert status == 400, data
        assert json.loads(data)["error"] == {
            "code": "bad_request",
            "message": f"benchmark must be a string, got {name!r}",
        }
        assert _scheduled() == before

    def test_slack_latency_n_max_is_not_bounded(self, client):
        """Latency sweeps only below N_f, so a huge slack ceiling is cheap."""
        doc = client.solve(benchmark="log", n_max=10**9)
        direct = solve(log_pattern(), n_max=10**9, cache=False)
        assert solution_from_dict(doc["solution"]) == direct.solution

    def test_infeasible_is_422_and_server_survives(self, client):
        with pytest.raises(InfeasibleRequestError) as info:
            client.solve(benchmark="log", n_max=1, objective="banks")
        assert info.value.http_status == 422
        assert client.healthz()["status"] == "ok"

    def test_unknown_route_and_method(self, client):
        status, _, _ = client._request("POST", "/nope")
        assert status == 404
        status, _, _ = client._request("GET", "/solve")
        assert status == 405
        for method, path in (("GET", "/peer/digests"), ("PUT", "/peer/solution/ab")):
            status, _, _ = client._request(method, path)
            assert status == 404


class TestHttpFraming:
    @pytest.mark.parametrize(
        "raw, status",
        [
            (b"POST /solve HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
            (b"POST /solve HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
            (b"POST /solve HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n", 400),
            (
                b"POST /solve HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                % (MAX_BODY_BYTES + 1),
                413,
            ),
            (b"GARBAGE\r\n\r\n", 400),
        ],
        ids=[
            "non-numeric-length",
            "negative-length",
            "5000-digit-length",
            "oversized-body",
            "bad-request-line",
        ],
    )
    def test_malformed_framing_is_answered_then_closed(self, server, raw, status):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(raw)
            reply = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 %d " % status), reply
        assert b"Connection: close" in head.split(b"\r\n")
        assert json.loads(body)["error"]["code"] == "bad_request"

    @pytest.mark.parametrize("value", ["Close", "CLOSE", "TE, close"])
    def test_connection_close_option_is_case_insensitive(self, server, value):
        body = b'{"benchmark": "se"}'
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(
                b"POST /solve HTTP/1.1\r\nContent-Length: %d\r\n"
                b"Connection: %s\r\n\r\n%s" % (len(body), value.encode(), body)
            )
            reply = b""
            while b"\r\n\r\n" not in reply:
                reply += sock.recv(65536)
            head, _, rest = reply.partition(b"\r\n\r\n")
            lines = head.split(b"\r\n")
            length = next(
                int(line.split(b":", 1)[1])
                for line in lines
                if line.lower().startswith(b"content-length:")
            )
            while len(rest) < length:
                rest += sock.recv(65536)
            assert lines[0].startswith(b"HTTP/1.1 200 "), reply
            assert b"Connection: close" in lines
            assert json.loads(rest)["solution"]["n_banks"] == 5
            # ... and the server closes its end instead of idling.
            assert sock.recv(1) == b""


def _scheduled() -> int:
    return registry().snapshot()["counters"].get("serve.coalesce.scheduled", 0)


class TestDeadlines:
    @pytest.mark.parametrize(
        "raw",
        ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400],
        ids=["nan", "inf", "-inf", "1e999", "huge-int"],
    )
    def test_non_finite_timeout_is_400_before_any_work(self, server, raw):
        body = b'{"benchmark": "log", "timeout_ms": %s}' % raw.encode()
        before = _scheduled()
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request(
                "POST", "/solve", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            status, data = response.status, response.read()
        finally:
            conn.close()
        assert status == 400, data
        assert json.loads(data)["error"]["code"] == "bad_request"
        assert _scheduled() == before

    def test_expired_at_intake_is_504_and_consumes_no_queue(self, tmp_path):
        with serve_in_thread(store_dir=str(tmp_path / "s")) as srv:
            with ServeClient(port=srv.port) as client:
                with pytest.raises(DeadlineExceededError) as info:
                    client.solve(benchmark="log", timeout_ms=0)
                assert info.value.http_status == 504
                # nothing was queued, solved, or stored
                health = client.healthz()
                assert health["pending"] == 0
                assert health["store"]["entries"] == 0

    def test_expired_deadline_beats_a_cached_answer(self, tmp_path):
        with serve_in_thread(store_dir=str(tmp_path / "s")) as srv:
            with ServeClient(port=srv.port) as client:
                client.solve(benchmark="log", n_max=10)  # now memory-resident
                before = _scheduled()
                with pytest.raises(DeadlineExceededError) as info:
                    client.solve(benchmark="log", n_max=10, timeout_ms=0)
                assert info.value.http_status == 504
                assert _scheduled() == before

    def test_expired_in_flight_is_504_but_solve_completes(self, tmp_path):
        with serve_in_thread(
            store_dir=str(tmp_path / "s"), solve_delay_s=0.3
        ) as srv:
            with ServeClient(port=srv.port) as client:
                with pytest.raises(DeadlineExceededError):
                    client.solve(benchmark="median", timeout_ms=50)
                # the abandoned solve still lands in the store
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    if client.healthz()["store"]["entries"] == 1:
                        break
                    time.sleep(0.02)
                assert client.healthz()["store"]["entries"] == 1
                # and the server keeps serving
                assert client.solve(benchmark="se")["solution"]["n_banks"] == 5


class TestBackpressure:
    def test_queue_full_is_429_with_retry_after(self, tmp_path):
        with serve_in_thread(
            store_dir=str(tmp_path / "s"),
            solve_delay_s=0.4,
            max_pending=1,
            retry_after_s=2.0,
        ) as srv:
            def occupy():
                with ServeClient(port=srv.port) as busy:
                    busy.solve(benchmark="median")

            slow = threading.Thread(target=occupy)
            slow.start()
            time.sleep(0.15)  # let the slow solve occupy the queue
            with ServeClient(port=srv.port) as client:
                with pytest.raises(ServerBusyError) as info:
                    client.solve(benchmark="se")
                assert info.value.http_status == 429
                assert info.value.retry_after_s == 2.0
                # coalescing onto the in-flight job is still allowed
                doc = client.solve(benchmark="median")
                assert doc["solution"]["n_banks"] == 8
                slow.join()
                # capacity freed: the rejected request now succeeds
                assert client.solve(benchmark="se")["solution"]["n_banks"] == 5


class TestWarmRestart:
    def test_restart_serves_from_store_with_zero_solves(
        self, tmp_path, count_solves
    ):
        store_dir = str(tmp_path / "store")
        with serve_in_thread(store_dir=store_dir) as srv:
            with ServeClient(port=srv.port) as client:
                first = client.solve(benchmark="log", n_max=10)
        assert count_solves["n"] == 1

        # new server, same store; in-memory cache cleared = fresh process
        from repro.core import solve_cache

        solve_cache.clear()
        with serve_in_thread(store_dir=store_dir) as srv:
            with ServeClient(port=srv.port) as client:
                moved = log_pattern().translated((3, 9))
                doc = client.solve(pattern=moved, n_max=10)
                health = client.healthz()["store"]
        assert count_solves["n"] == 1  # no new solve after restart
        assert health["hits"] == 1
        # canonical content identical; only the attached pattern differs
        assert doc["solution"]["n_banks"] == first["solution"]["n_banks"]
        assert doc["key"] == first["key"]


#: A chiral stencil and its axis-0 mirror: two translation classes, each
#: solved on its own offsets.
_CORNER = Pattern([(0, 0), (0, 1), (1, 0)], name="corner")
_MIRRORED = Pattern([(0, 0), (0, 1), (-1, 0)], name="mirrored")


class TestMemoryTier:
    """Repeats are answered from the in-memory solve cache, on the loop."""

    def test_repeats_and_translations_skip_the_coalescer_and_store(self, tmp_path):
        moved = _CORNER.translated((5, -2))
        patterns = [_CORNER, _CORNER, moved, _MIRRORED, _MIRRORED]
        before = _scheduled()
        with serve_in_thread(store_dir=str(tmp_path / "store")) as srv:
            with ServeClient(port=srv.port) as client:
                docs = [
                    client.solve(pattern=pattern, shape=(24, 24), n_max=8)
                    for pattern in patterns
                ]
                store = client.healthz()["store"]
        # One solve per translation class: the mirror is a class of its own.
        assert _scheduled() - before == 2
        assert store["hits"] == 0
        assert store["entries"] == 2
        assert [doc["key"] for doc in docs[:3]] == [docs[0]["key"]] * 3
        assert docs[3]["key"] == docs[4]["key"] != docs[0]["key"]
        # The mirror needs a bank more than the corner (3 against 4).
        assert [doc["solution"]["n_banks"] for doc in docs] == [3, 3, 3, 4, 4]
        # Each reply is a cold solve of its own spec.
        for pattern, doc in zip(patterns, docs):
            direct = solve(pattern, shape=(24, 24), n_max=8, cache=False)
            assert solution_from_dict(doc["solution"]) == direct.solution

    def test_memory_hits_keep_the_store_artifact_fresh(self, tmp_path):
        store_dir = tmp_path / "store"
        with serve_in_thread(store_dir=str(store_dir), store_max_entries=2) as srv:
            with ServeClient(port=srv.port) as client:
                a = client.solve(benchmark="log", n_max=10)["key"]
                b = client.solve(benchmark="se")["key"]
                assert client.solve(benchmark="log", n_max=10)["key"] == a
                c = client.solve(benchmark="median")["key"]
        # The repeat of A was answered from memory, yet B is the store's
        # least recently used entry when C's write evicts one, and the
        # eviction outlives the server.
        assert len({a, b, c}) == 3
        assert srv.server.store.digests() == [a, c]
        with SolutionStore(store_dir) as reopened:
            assert reopened.digests() == [a, c]

    def test_replies_and_artifact_carry_the_golden_digest(self, tmp_path):
        """The served identity is pinned: a cold reply, a moved variant's
        memory hit and the store artifact all use the same golden digest."""
        golden = "b1b395500d9c2b1b05189f542e036820b30267236944d0993a9324377b8d98ad"
        store_dir = tmp_path / "store"
        with serve_in_thread(store_dir=str(store_dir)) as srv:
            with ServeClient(port=srv.port) as client:
                keys = [
                    client.solve(pattern=pattern, shape=(640, 480))["key"]
                    for pattern in (log_pattern(), log_pattern().translated((3, 5)))
                ]
        assert keys == [golden, golden]
        records = (store_dir / "solutions.log").read_bytes().splitlines()
        assert len(records) == 1
        assert records[0].startswith(
            b'{"digest":"%s","format":"repro/serve-solution",' % golden.encode()
        )
        assert json.loads(records[0])["digest"] == golden
        with SolutionStore(store_dir) as reopened:
            assert reopened.digests() == [golden]
            assert reopened.get(golden) is not None


class TestSimulateEndpoint:
    def test_report_matches_direct_simulation(self, client):
        doc = client.simulate(benchmark="se", shape=(16, 16))
        from repro.core.mapping import BankMapping
        from repro.sim.memsim import simulate_sweep

        direct = solve(se_pattern(), shape=(16, 16), cache=False)
        report = simulate_sweep(
            BankMapping(solution=direct.solution, shape=(16, 16))
        )
        assert doc["report"] == report.to_dict()
        assert solution_from_dict(doc["solution"]) == direct.solution

    def test_simulate_without_shape_is_400(self, client):
        with pytest.raises(ServeError) as info:
            client._json("POST", "/simulate", {"benchmark": "se"})
        assert info.value.http_status == 400

    @pytest.mark.parametrize("name", [["se"], {"a": 1}], ids=["list", "object"])
    def test_non_string_benchmark_is_400_before_any_solve(self, client, name):
        before = _scheduled()
        status, data, _ = client._request(
            "POST", "/simulate", {"benchmark": name, "shape": [16, 16]}
        )
        assert status == 400, data
        assert json.loads(data)["error"] == {
            "code": "bad_request",
            "message": f"benchmark must be a string, got {name!r}",
        }
        assert _scheduled() == before

    @pytest.mark.parametrize("engine", ["vectorized", "warp"])
    def test_unknown_engine_is_400_before_any_solve(self, client, engine):
        before = _scheduled()
        status, data, _ = client._request(
            "POST",
            "/simulate",
            {"benchmark": "se", "shape": [16, 16], "engine": engine},
        )
        assert status == 400, data
        error = json.loads(data)["error"]
        assert error["code"] == "bad_request"
        assert error["message"].startswith(f"unknown engine {engine!r}")
        assert _scheduled() == before

    def test_oversized_shape_is_400_before_any_solve(self, client):
        before = _scheduled()
        with pytest.raises(ServeError) as info:
            client.simulate(benchmark="se", shape=(100000, 100000))
        assert info.value.http_status == 400
        assert info.value.code == "bad_request"
        assert _scheduled() == before
        assert client.healthz()["store"]["entries"] == 0

    @pytest.mark.parametrize("shape, dim", [([2, 2], 0), ([64, 2], 1)])
    def test_too_small_shape_is_400_before_any_solve(self, client, shape, dim):
        before = _scheduled()
        status, data, _ = client._request(
            "POST", "/simulate", {"benchmark": "se", "shape": shape}
        )
        assert status == 400, data
        assert json.loads(data)["error"] == {
            "code": "bad_request",
            "message": f"array of shape {tuple(shape)} too small for pattern "
            f"extent along dim {dim}",
        }
        assert _scheduled() == before
        assert client.healthz()["store"]["entries"] == 0

    @pytest.mark.parametrize("field", ["step", "ports"])
    def test_boundary_integer_knobs_answer_like_in_process(self, client, field):
        # 2**63 does not fit int64: the bulk engines clamp it before any
        # int64 arithmetic, so the reply matches the scalar reference.
        from repro.core.mapping import BankMapping
        from repro.sim.memsim import simulate_sweep

        knob = {"step": "step", "ports": "ports_per_bank"}[field]
        doc = client.simulate(benchmark="log", shape=(16, 16), **{field: 2**63})
        direct = solve(log_pattern(), shape=(16, 16), cache=False).solution
        mapping = BankMapping(solution=direct, shape=(16, 16))
        assert doc["report"] == simulate_sweep(
            mapping, engine="scalar", **{knob: 2**63}
        ).to_dict()
        assert doc["report"]["ports_per_bank"] == (2**63 if field == "ports" else 1)


    @pytest.mark.parametrize(
        "shift", [(2**63 // 5 - 2, 0), (2**62, -(2**62)), (2**70, -(2**70))]
    )
    def test_far_translated_pattern_answers_like_scalar(self, client, shift):
        # The request's offsets reach the simulator untouched; the bulk
        # engines shift them to the array's origin before any int64 math.
        from repro.core.mapping import BankMapping
        from repro.sim.memsim import simulate_sweep

        pattern = log_pattern().translated(shift)
        doc = client.simulate(pattern=pattern, shape=(16, 16))
        direct = solve(pattern, shape=(16, 16), cache=False).solution
        mapping = BankMapping(solution=direct, shape=(16, 16))
        assert doc["report"] == simulate_sweep(mapping, engine="scalar").to_dict()


class TestTable1Endpoint:
    def test_single_row(self, client):
        doc = client.table1(benchmarks=["median"], repetitions=1)
        assert [row["benchmark"] for row in doc["rows"]] == ["median"]
        row = doc["rows"][0]
        assert row["ours"]["n_banks"] == 8
        assert row["ours"]["operations"] < row["ltb"]["operations"]

    def test_unknown_benchmark_is_400(self, client):
        with pytest.raises(ServeError) as info:
            client.table1(benchmarks=["nope"])
        assert info.value.http_status == 400

    @pytest.mark.parametrize(
        "benchmarks, bad",
        [([[1]], [[1]]), (["se", {"a": 1}, 3], [{"a": 1}, 3])],
        ids=["nested-list", "object-and-number"],
    )
    def test_non_string_benchmarks_are_400(self, client, benchmarks, bad):
        before = _scheduled()
        status, data, _ = client._request(
            "POST", "/table1", {"benchmarks": benchmarks}
        )
        assert status == 400, data
        assert json.loads(data)["error"] == {
            "code": "bad_request",
            "message": f"benchmarks must be strings, got {bad!r}",
        }
        assert _scheduled() == before

    @pytest.mark.parametrize(
        "benchmarks, repetitions, message",
        [
            (["median"] * 6, 1, "benchmarks repeat: ['median']"),
            (["se", "log", "se"], 1, "benchmarks repeat: ['se']"),
            (["se"], 101, "repetitions 101 is above the cap of 100"),
            (None, 10**6, "repetitions 1000000 is above the cap of 100"),
        ],
        ids=["median-x6", "se-twice", "101-reps", "million-reps"],
    )
    def test_unbounded_work_is_400(self, client, benchmarks, repetitions, message):
        with pytest.raises(ServeError) as info:
            client.table1(benchmarks=benchmarks, repetitions=repetitions)
        assert info.value.http_status == 400
        assert message in str(info.value)

    def test_repetitions_at_the_cap_are_served(self, client):
        doc = client.table1(benchmarks=["se"], repetitions=100)
        assert [row["benchmark"] for row in doc["rows"]] == ["se"]

    @pytest.mark.parametrize("body", [[], 3])
    def test_non_object_body_is_400(self, client, body):
        with pytest.raises(ServeError) as info:
            client._json("POST", "/table1", body)
        assert info.value.http_status == 400
        assert info.value.code == "bad_request"


class TestIntrospection:
    def test_healthz_shape(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["store"]["entries"] == 0
        assert health["pending"] == 0
        assert health["uptime_s"] >= 0

    def test_metrics_is_prometheus_text(self, client):
        # The registry is process-global: start from zero so the store
        # counters below are this server's alone, whatever ran before.
        registry().reset()
        client.solve(benchmark="se")
        text = client.metrics_text()
        assert "# TYPE repro_serve_requests_total counter" in text
        # Request latency is a native Prometheus histogram now.
        assert "# TYPE repro_serve_request_latency_ms histogram" in text
        assert 'repro_serve_request_latency_ms_bucket{le="+Inf"}' in text
        assert "repro_serve_request_latency_ms_count" in text
        # the store traffic shows up too
        assert "repro_serve_store_writes_total 1" in text
        # occupancy gauges are seeded by the /metrics handler itself
        assert "repro_serve_store_entries 1" in text
        assert "repro_serve_store_bytes" in text

    def test_request_counters_advance(self, server):
        before = registry().snapshot()["counters"].get("serve.requests", 0)
        with ServeClient(port=server.port) as client:
            client.healthz()
            client.solve(benchmark="se")
        after = registry().snapshot()["counters"]["serve.requests"]
        assert after - before == 2


class TestServeCli:
    def test_parser_defaults(self):
        from repro.serve.cli import build_parser

        args = build_parser().parse_args([])
        assert args.port == 8642
        assert args.store_dir is None

    def test_entry_point_registered(self):
        import repro.serve.cli as cli

        assert callable(cli.main_serve)


class _ScriptedHTTP:
    """A socket server answering one canned HTTP response per connection."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.hits = 0
        self._sock = socket.socket()
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while self.hits < len(self.responses):
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            with conn:
                try:
                    conn.recv(65536)
                    conn.sendall(self.responses[self.hits])
                except OSError:
                    pass
                self.hits += 1

    def close(self):
        self._sock.close()

    def settled_hits(self, expect: int, timeout_s: float = 2.0) -> int:
        """hits, waiting briefly — the serve thread tallies after sendall."""
        deadline = time.monotonic() + timeout_s
        while self.hits < expect and time.monotonic() < deadline:
            time.sleep(0.005)
        return self.hits


def _http(status: str, body: dict, extra_headers: str = "") -> bytes:
    payload = json.dumps(body).encode()
    return (
        f"HTTP/1.1 {status}\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n{extra_headers}"
        "Connection: close\r\n\r\n"
    ).encode() + payload


class TestClientRetries:
    def test_retries_429_honoring_retry_after(self):
        busy = _http(
            "429 Too Many Requests",
            {"error": {"code": "queue_full", "message": "try later",
                       "retry_after_s": 0.01}},
            "Retry-After: 0.01\r\n",
        )
        ok = _http("200 OK", {"status": "ok"})
        server = _ScriptedHTTP([busy, busy, ok])
        try:
            with ServeClient(port=server.port, retries=3, backoff_s=0.01) as client:
                started = time.perf_counter()
                assert client.healthz() == {"status": "ok"}
                elapsed = time.perf_counter() - started
        finally:
            server.close()
        assert server.settled_hits(3) == 3
        assert elapsed < 5.0  # hints kept the backoff tiny

    def test_retries_zero_fails_fast(self):
        busy = _http(
            "429 Too Many Requests", {"error": {"code": "queue_full", "message": "no"}}
        )
        server = _ScriptedHTTP([busy, busy])
        try:
            with ServeClient(port=server.port) as client:  # retries=0 default
                with pytest.raises(ServerBusyError):
                    client.healthz()
        finally:
            server.close()
        assert server.settled_hits(1) == 1

    def test_exhausted_retries_surface_the_final_429(self):
        busy = _http(
            "429 Too Many Requests", {"error": {"code": "queue_full", "message": "no"}}
        )
        server = _ScriptedHTTP([busy] * 3)
        try:
            with ServeClient(port=server.port, retries=2, backoff_s=0.005) as client:
                with pytest.raises(ServerBusyError):
                    client.healthz()
        finally:
            server.close()
        assert server.settled_hits(3) == 3  # initial try + 2 retries

    def test_non_retryable_errors_never_retry(self):
        bad = _http(
            "400 Bad Request",
            {"error": {"code": "bad_request", "message": "nope"}},
        )
        server = _ScriptedHTTP([bad, bad])
        try:
            with ServeClient(port=server.port, retries=5, backoff_s=0.005) as client:
                with pytest.raises(ServeError) as err:
                    client.healthz()
        finally:
            server.close()
        assert err.value.http_status == 400
        assert server.settled_hits(1) == 1

    def test_invalid_retry_configuration_rejected(self):
        with pytest.raises(ValueError):
            ServeClient(retries=-1)
        with pytest.raises(ValueError):
            ServeClient(retries=1, backoff_s=-0.1)
