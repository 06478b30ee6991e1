"""SolutionStore edge behavior: eviction boundaries, collisions, recovery.

``tests/test_serve.py`` covers the happy paths; this module pins down the
corners a content-addressed LRU can silently get wrong — off-by-one at the
capacity boundary, refresh-vs-insert at capacity, same-digest rewrites,
digest collisions between *different* payloads, the guarantee that an
evicted artifact is fully reconstructible by re-solving — and those of the
append-only log: recency and evictions across a reopen, torn writes,
compaction, and a second writer on the same log.
"""

from __future__ import annotations

import json
import re
import sys
import threading

import pytest

from repro.core.cache import solve_key, stable_digest
from repro.core.solver import solve
from repro.io import solution_to_dict
from repro.obs import registry
from repro.patterns import log_pattern
from repro.serve import ServeClient, SolutionStore, serve_in_thread


def _records(root):
    """The lines of the store's log, without their newlines."""
    return (root / "solutions.log").read_bytes().splitlines()


def _entry(n_max):
    """A (digest, solution) pair; distinct per ``n_max``."""
    solution = solve(log_pattern(), n_max=n_max, cache=False).solution
    digest = stable_digest(solve_key(log_pattern(), None, n_max, "latency", 0))
    return digest, solution


class TestEvictionBoundary:
    def test_exactly_at_capacity_nothing_evicted(self, tmp_path):
        store = SolutionStore(tmp_path, max_entries=3)
        digests = []
        for n_max in (5, 6, 7):
            digest, solution = _entry(n_max)
            digests.append(digest)
            store.put(digest, solution)
        assert len(store) == 3
        assert all(store.get(d) is not None for d in digests)

    def test_one_past_capacity_evicts_exactly_the_oldest(self, tmp_path):
        store = SolutionStore(tmp_path, max_entries=3)
        digests = []
        for n_max in (5, 6, 7, 8):
            digest, solution = _entry(n_max)
            digests.append(digest)
            store.put(digest, solution)
        assert len(store) == 3
        assert store.digests() == digests[1:]
        # The eviction is in the log: a reopened store agrees.
        assert _records(tmp_path)[-1] == (
            b'{"digest":"%s","format":"repro/serve-drop"}' % digests[0].encode()
        )
        assert SolutionStore(tmp_path, max_entries=3).digests() == digests[1:]

    def test_rewrite_at_capacity_is_refresh_not_insert(self, tmp_path):
        store = SolutionStore(tmp_path, max_entries=3)
        entries = [_entry(n_max) for n_max in (5, 6, 7)]
        for digest, solution in entries:
            store.put(digest, solution)
        # Re-putting an existing digest must not push anything out...
        store.put(entries[0][0], entries[0][1])
        assert len(store) == 3
        # ...but it must move that digest to most-recently-used.
        assert store.digests()[-1] == entries[0][0]

    def test_get_refreshes_lru_order(self, tmp_path):
        store = SolutionStore(tmp_path, max_entries=3)
        entries = [_entry(n_max) for n_max in (5, 6, 7)]
        for digest, solution in entries:
            store.put(digest, solution)
        assert store.get(entries[0][0]) is not None  # touch the oldest
        overflow_digest, overflow_solution = _entry(8)
        store.put(overflow_digest, overflow_solution)
        # The touched entry survives; the untouched runner-up is evicted.
        assert store.get(entries[0][0]) is not None
        assert store.get(entries[1][0]) is None

    def test_eviction_metrics_advance(self, tmp_path):
        counter = registry().counter("serve.store.evictions")
        before = counter.value
        store = SolutionStore(tmp_path, max_entries=1)
        for n_max in (5, 6, 7):
            store.put(*_entry(n_max))
        assert counter.value - before == 2

    def test_max_entries_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            SolutionStore(tmp_path, max_entries=0)


class TestDigestCollisions:
    def test_same_digest_rewrite_is_one_entry_last_write_wins(self, tmp_path):
        # A forged collision: two different solutions under one digest.
        # Content addressing makes this one file, so last write wins and
        # the store can never alias two payloads under one identity.
        store = SolutionStore(tmp_path, max_entries=8)
        digest, first = _entry(5)
        _, second = _entry(9)
        assert solution_to_dict(first) != solution_to_dict(second)
        store.put(digest, first)
        store.put(digest, second)
        assert len(store) == 1
        assert solution_to_dict(store.get(digest)) == solution_to_dict(second)

    def test_internal_digest_mismatch_is_dropped(self, tmp_path):
        # A record whose embedded digest disagrees with the key the index
        # holds it under is a collision/tamper signal: reject, drop, count
        # as a miss.
        store = SolutionStore(tmp_path)
        digest, solution = _entry(5)
        store.put(digest, solution)
        log = tmp_path / "solutions.log"
        log.write_bytes(log.read_bytes().replace(digest.encode(), b"0" * 64))
        misses = store.misses
        assert store.get(digest) is None
        assert store.misses == misses + 1
        assert digest not in store.digests()
        assert digest not in SolutionStore(tmp_path).digests()


class TestEvictedRecovery:
    def test_evicted_artifact_resolves_bit_identical(self, tmp_path):
        store = SolutionStore(tmp_path, max_entries=1)
        digest, solution = _entry(5)
        original = solution_to_dict(solution)
        store.put(digest, solution)
        original_record = _records(tmp_path)[0]
        store.put(*_entry(6))  # evicts the first artifact
        assert store.get(digest) is None
        # Re-solving the same spec reconstructs the identical solution,
        # and re-storing it reproduces the identical record bytes.
        resolved = solve(log_pattern(), n_max=5, cache=False).solution
        assert solution_to_dict(resolved) == original
        store2 = SolutionStore(tmp_path / "fresh", max_entries=1)
        store2.put(digest, resolved)
        assert _records(tmp_path / "fresh") == [original_record]
        assert solution_to_dict(store2.get(digest)) == original


def _solution_record(root, digest):
    """The last solution record for ``digest`` in the log."""
    head = b'{"digest":"%s","format":"repro/serve-solution",' % digest.encode()
    return [line for line in _records(root) if line.startswith(head)][-1]


class TestLog:
    def test_reopen_restores_live_records_in_lru_order(self, tmp_path):
        store = SolutionStore(tmp_path, max_entries=4)
        entries = {n_max: _entry(n_max) for n_max in (5, 6, 7, 8, 9)}
        digest = {n_max: entry[0] for n_max, entry in entries.items()}
        for n_max in (5, 6, 7, 8):
            store.put(*entries[n_max])
        assert store.get(digest[6]) is not None  # a store read refreshes 6
        store.put(*entries[5])  # a rewrite refreshes 5
        store.put(*entries[9])  # evicts 7, now the least recent
        expected = [digest[n] for n in (8, 6, 5, 9)]
        assert store.digests() == expected
        store.close()
        reopened = SolutionStore(tmp_path, max_entries=4)
        assert reopened.digests() == expected
        for n_max in (8, 6, 5, 9):
            assert reopened.get(digest[n_max]) == entries[n_max][1]
        assert reopened.get(digest[7]) is None

    def test_memory_touch_stays_in_memory(self, tmp_path):
        store = SolutionStore(tmp_path)
        first, second = _entry(5), _entry(6)
        store.put(*first)
        store.put(*second)
        before = _records(tmp_path)
        store.touch(first[0])
        assert store.digests() == [second[0], first[0]]
        assert _records(tmp_path) == before

    def test_torn_final_line_is_dropped_and_the_next_put_appends(self, tmp_path):
        store = SolutionStore(tmp_path)
        first, second, third = _entry(5), _entry(6), _entry(7)
        store.put(*first)
        store.put(*second)
        store.close()
        log = tmp_path / "solutions.log"
        whole = log.read_bytes()
        # A crash mid-write: part of a record, no newline.
        log.write_bytes(whole + whole[: len(whole) // 3])
        reopened = SolutionStore(tmp_path)
        assert log.read_bytes() == whole
        assert reopened.digests() == [first[0], second[0]]
        reopened.put(*third)
        reopened.close()
        again = SolutionStore(tmp_path)
        assert again.digests() == [first[0], second[0], third[0]]
        assert [again.get(d) for d, _ in (first, second, third)] == [
            first[1], second[1], third[1]
        ]

    def test_compaction_bounds_the_log_and_keeps_records_byte_identical(
        self, tmp_path
    ):
        max_entries = 3
        store = SolutionStore(tmp_path, max_entries=max_entries)
        written = {}
        compactions = 0
        lines = 0
        for n_max in range(2, 24):
            digest, solution = _entry(n_max)
            store.put(digest, solution)
            written[digest] = _solution_record(tmp_path, digest)
            if n_max % 3 == 0:
                assert store.get(digest) is not None  # a read record too
            now = len(_records(tmp_path))
            assert now <= 2 * max_entries + 1
            compactions += now < lines
            lines = now
        assert compactions >= 3
        live = store.digests()
        assert len(live) == max_entries
        for digest in live:
            assert _solution_record(tmp_path, digest) == written[digest]
        reopened = SolutionStore(tmp_path, max_entries=max_entries)
        assert reopened.digests() == live

    def test_compaction_writes_the_in_memory_order(self, tmp_path):
        store = SolutionStore(tmp_path, max_entries=3)
        a, b, c = _entry(5), _entry(6), _entry(7)
        for entry in (a, b, c):
            store.put(*entry)
        store.touch(a[0])  # in memory only: b, c, a
        for _ in range(4):  # the fourth read makes 7 lines > 2 * 3: compacts
            assert store.get(c[0]) is not None
        assert len(_records(tmp_path)) == 3
        reopened = SolutionStore(tmp_path, max_entries=3)
        assert reopened.digests() == [b[0], a[0], c[0]]

    def test_a_record_that_parses_but_cannot_load_is_a_miss(self, tmp_path):
        store = SolutionStore(tmp_path)
        digest, solution = _entry(5)
        store.put(digest, solution)
        log = tmp_path / "solutions.log"
        broken, count = re.subn(rb'"n_banks":\d+,', b'"n_banks":0,', log.read_bytes())
        assert count == 1
        log.write_bytes(broken)
        assert store.get(digest) is None  # not a ZeroDivisionError
        assert store.digests() == []

    def test_interleaved_writers_each_find_their_own_records(self, tmp_path):
        """Offsets come from each write's own end position: another store's
        appends in between must not shift where this one looks."""
        entries = [_entry(n_max) for n_max in range(5, 13)]
        stores = [SolutionStore(tmp_path) for _ in range(2)]
        for i, entry in enumerate(entries):
            stores[i % 2].put(*entry)
        for i, (digest, solution) in enumerate(entries):
            assert stores[i % 2].get(digest) == solution
        assert SolutionStore(tmp_path).digests() == [d for d, _ in entries]

    def test_a_second_writer_never_yields_a_wrong_solution(self, tmp_path):
        entries = [_entry(n_max) for n_max in range(5, 17)]
        expected = {digest: solution_to_dict(s) for digest, s in entries}
        stores = [SolutionStore(tmp_path, max_entries=4) for _ in range(2)]
        for i, (digest, solution) in enumerate(entries):
            stores[i % 2].put(digest, solution)  # both compact along the way
        stores.append(SolutionStore(tmp_path, max_entries=4))
        for store in stores:
            for digest in expected:
                got = store.get(digest)
                assert got is None or solution_to_dict(got) == expected[digest]

    def test_a_record_overwritten_by_another_key_is_refused(self, tmp_path):
        """Another writer truncates the log and appends its own record where
        this store's record was: same offset, same length, other digest."""
        (first, first_solution), (second, second_solution) = _entry(5), _entry(6)
        store = SolutionStore(tmp_path)
        store.put(first, first_solution)
        other_dir = tmp_path / "other"
        SolutionStore(other_dir).put(second, second_solution)
        foreign = (other_dir / "solutions.log").read_bytes()
        assert len(foreign) == len((tmp_path / "solutions.log").read_bytes())
        (tmp_path / "solutions.log").write_bytes(foreign)
        assert store.get(first) is None
        assert first not in store.digests()

    def test_concurrent_puts_index_their_own_records(self, tmp_path):
        """Threads share one descriptor: each put's offset must be its own."""
        store = SolutionStore(tmp_path, max_entries=6)
        entries = [_entry(n_max) for n_max in range(5, 21)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(
                    target=lambda chunk: [store.put(*e) for _ in range(5) for e in chunk],
                    args=(entries[k::4],),
                )
                for k in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        expected = dict(entries)
        live = store.digests()
        assert len(live) == 6
        for store_view in (store, SolutionStore(tmp_path, max_entries=6)):
            assert store_view.digests() == live
            for digest in live:
                assert store_view.get(digest) == expected[digest]

    def test_legacy_json_artifacts_are_ignored(self, tmp_path):
        digest, solution = _entry(5)
        legacy = {
            "format": "repro/serve-solution",
            "version": 1,
            "digest": digest,
            "solution": solution_to_dict(solution),
            "meta": {},
        }
        (tmp_path / f"{digest}.json").write_text(json.dumps(legacy, indent=2))
        store = SolutionStore(tmp_path)
        assert len(store) == 0
        assert store.get(digest) is None

    def test_a_closed_store_refuses_io(self, tmp_path):
        store = SolutionStore(tmp_path)
        digest, solution = _entry(5)
        store.put(digest, solution)
        store.close()
        assert store.digests() == [digest]
        with pytest.raises(ValueError, match="closed"):
            store.put(digest, solution)
        with pytest.raises(ValueError, match="closed"):
            store.get(digest)

    def test_bad_digest_is_refused(self, tmp_path):
        store = SolutionStore(tmp_path)
        _digest, solution = _entry(5)
        with pytest.raises(ValueError, match="hex"):
            store.put('x"}\n', solution)
        assert _records(tmp_path) == []


class TestServerLifecycle:
    def test_stop_closes_the_log(self, tmp_path):
        with serve_in_thread(store_dir=str(tmp_path / "store")) as srv:
            with ServeClient(port=srv.port) as client:
                client.solve(benchmark="se")
        with pytest.raises(ValueError, match="closed"):
            srv.server.store.put(*_entry(5))

    def test_stop_stores_the_batch_in_flight(self, tmp_path):
        store_dir = tmp_path / "store"
        srv = serve_in_thread(store_dir=str(store_dir), solve_delay_s=0.3, debug=True)
        outcome = []

        def request():
            try:
                with ServeClient(port=srv.port) as client:
                    outcome.append(client.solve(benchmark="median"))
            except Exception as exc:  # noqa: BLE001 - the stop may answer 503
                outcome.append(exc)

        thread = threading.Thread(target=request)
        thread.start()
        try:
            with ServeClient(port=srv.port) as client:
                for _ in range(500):
                    if client.debug_inflight()["inflight"]:
                        break
                    threading.Event().wait(0.005)
                else:
                    pytest.fail("the solve never went in flight")
        finally:
            srv.stop()
            thread.join(timeout=30)
        with SolutionStore(store_dir) as reopened:
            assert len(reopened) == 1
            assert reopened.get(reopened.digests()[0]).n_banks == 8
