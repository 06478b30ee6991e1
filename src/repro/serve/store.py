"""Content-addressed, append-only log of canonical partitioning solutions.

The in-memory solve cache (:mod:`repro.core.cache`) dies with the process;
a serving tier restarts — deploys, crashes — and re-solving the whole
working set after every restart is exactly the latency cliff a warm store
avoids.  The :class:`SolutionStore` persists each canonical
:class:`~repro.core.partition.PartitionSolution` under the
:func:`~repro.core.cache.stable_digest` of its solve key, as one line of
one append-only log, ``<root>/solutions.log``.  A record is the
``repro/serve-solution`` document in compact JSON with sorted keys, so it
begins with its digest::

    {"digest":"<sha256>","format":"repro/serve-solution","meta":{...},
     "solution":{<repro/partition-solution document>},"version":1}

Two short records carry the index's history: ``{"digest":"<sha256>",
"format":"repro/serve-read"}`` when a store read refreshes a key, and
``..."format":"repro/serve-drop"}`` when a key leaves the store (evicted,
or dropped as corrupt).

Properties the server relies on:

* **One write per put** — the log is opened ``O_APPEND``, and a put is one
  ``os.write`` of the record (plus the drop records of the keys it
  evicts).  The record's offset is the file position after that write
  minus its length, never a running counter.  An in-memory index maps
  each digest to its record's ``(offset, length)``, least recently used
  first; a lookup is one ``os.pread``.
* **Content-addressed** — the digest *is* the identity: every record under
  one digest holds the same solution, and a read checks the record's
  format, its embedded digest and :func:`~repro.io.solution_from_dict`.
  A record that fails is dropped and counts as a miss (self-healing); the
  server just re-solves.
* **Recoverable open** — opening scans the log once, reading only each
  record's digest and kind from its first bytes (no solution is decoded).
  The last record per digest wins.  A final line with no newline is a
  torn write and is truncated away.
* **LRU-bounded** — at most ``max_entries`` live records.  Puts and store
  reads refresh a key, and the read record carries that order across
  restarts.  The server answers repeats from its in-memory solve cache
  without reading the store and reports them through
  :meth:`SolutionStore.touch`, which moves the key in memory only.
* **Compacted** — once the log holds more than ``2 * max_entries`` lines,
  the live records are copied byte for byte, in LRU order, to a temp file
  that then replaces the log.
* **Shared directories** — a second store appending to the same log can
  cost re-solves (its compaction replaces the file the first one appends
  to) but never a wrong answer, because every read checks the digest.

Files of the earlier one-file-per-artifact layout (``<digest>.json``) are
ignored: each of those keys re-solves once.

Hits, misses, writes, and evictions are mirrored into the metrics registry
under ``serve.store.*`` counters; the server's ``/metrics`` handler sets
the occupancy gauges from :meth:`SolutionStore.stats` when it is polled.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import re
import tempfile
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..core.partition import PartitionSolution
from ..core.pattern import Pattern
from ..errors import ReproError
from ..io import SerializationError, solution_from_dict, solution_to_dict
from ..obs.metrics import registry as obs_registry

_FORMAT = "repro/serve-solution"
_VERSION = 1

#: The log's file name inside the store directory.
LOG_NAME = "solutions.log"

#: Default record cap; ~1 KiB each, so the default store stays small.
DEFAULT_MAX_ENTRIES = 4096

#: Compact JSON with sorted keys: ``digest`` is always the first key.  A
#: record is built fresh from :func:`~repro.io.solution_to_dict`, so it
#: cannot hold a reference cycle.
_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), check_circular=False
)

_DIGEST = re.compile(r"[0-9a-f]+")

#: A record's head: its digest, its kind, and the byte after the kind
#: (``,`` for a solution, ``}`` closes a read or drop record).
_HEAD = re.compile(
    rb'\{"digest":"([0-9a-f]+)","format":"repro/serve-(solution|read|drop)"([,}])'
)

_Location = Tuple[int, int]


def _head(digest: str, kind: str) -> bytes:
    """How a ``repro/serve-<kind>`` record for ``digest`` begins."""
    return b'{"digest":"%s","format":"repro/serve-%s"' % (
        digest.encode("ascii"),
        kind.encode("ascii"),
    )


def _marker(digest: str, kind: str) -> bytes:
    """The whole read or drop record for ``digest``."""
    return _head(digest, kind) + b"}\n"


def _read_all(fd: int) -> bytes:
    chunks: List[bytes] = []
    offset = 0
    while True:
        chunk = os.pread(fd, 1 << 20, offset)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)
        offset += len(chunk)


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


class SolutionStore:
    """An append-only log of solved partitioning decisions, keyed by digest."""

    def __init__(
        self,
        root: Union[str, Path],
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / LOG_NAME
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0
        fd = self._open()
        self._fd: Optional[int] = fd
        # digest -> (offset, length) of its live record, least recent first.
        self._index: "OrderedDict[str, _Location]" = OrderedDict()
        self._lines = 0
        try:
            self._scan(fd)
            with self._lock:
                self._maybe_compact()
        except BaseException:
            self.close()
            raise

    def _open(self) -> int:
        return os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o600)

    def _scan(self, fd: int) -> None:
        """Rebuild the index from the log; truncate a torn final line."""
        data = _read_all(fd)
        end = data.rfind(b"\n") + 1
        if end < len(data):
            os.ftruncate(fd, end)
        lines = data[:end].split(b"\n")[:-1]
        self._lines = len(lines)
        offset = 0
        for line in lines:
            at, offset = offset, offset + len(line) + 1
            head = _HEAD.match(line)
            if head is None:
                continue  # not a record: dropped at the next compaction
            raw, kind, after = head.groups()
            digest = raw.decode("ascii")
            if kind == b"solution":
                if after == b",":
                    self._index.pop(digest, None)
                    self._index[digest] = (at, offset - at)
            elif after == b"}" and head.end() == len(line) and digest in self._index:
                if kind == b"read":
                    self._index.move_to_end(digest)
                else:
                    del self._index[digest]

    def close(self) -> None:
        """Close the log; the in-memory view (``len``, ``stats``) stays readable."""
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def __enter__(self) -> "SolutionStore":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def digests(self) -> List[str]:
        """Stored digests, least-recently-used first."""
        with self._lock:
            return list(self._index)

    # -- lookup ------------------------------------------------------------

    def get(
        self, digest: str, pattern: Optional[Pattern] = None
    ) -> Optional[PartitionSolution]:
        """Load the solution stored under ``digest``, or ``None``.

        On a hit the key becomes the most recently used, in memory and in
        the log, and, when ``pattern`` is given, the caller's own pattern
        is re-attached — mirroring the in-memory cache's behaviour for
        translated requests.  Lookup latency (hit or miss) lands in the
        ``serve.store.get_ms`` log histogram.
        """
        started = time.perf_counter()
        try:
            with self._lock:
                fd = self._require_fd()
                where = self._index.get(digest)
                try:
                    record = b"" if where is None else os.pread(fd, where[1], where[0])
                except OSError:
                    record = b""  # unreadable: fails the checks below
            if where is None:
                self._miss()
                return None
            try:
                solution = self._validate(digest, record)
            except (ValueError, TypeError, ArithmeticError, ReproError):
                # What malformed bytes raise on the way to a solution: bad
                # JSON, missing fields, wrong types, a zero bank count.
                self._drop(digest, where)
                self._miss()
                return None
            with self._lock:
                if self._fd is not None and self._index.get(digest) == where:
                    self._append([_marker(digest, "read")])
                    self._index.move_to_end(digest)
                    self._maybe_compact()
                self.hits += 1
            obs_registry().counter("serve.store.hits").inc()
            if pattern is not None and solution.pattern != pattern:
                solution = dataclasses.replace(solution, pattern=pattern)
            return solution
        finally:
            obs_registry().log_histogram("serve.store.get_ms").observe(
                (time.perf_counter() - started) * 1000.0
            )

    def touch(self, digest: str) -> None:
        """Mark ``digest`` most recently used, without any file I/O.

        For hits answered from the in-memory solve cache, which never
        reach :meth:`get`: without this, a hot key's record would age to
        the least-recent end and be evicted by newer writes.  Unknown
        digests are ignored; the log learns the new order only when it is
        next compacted.
        """
        with self._lock:
            if digest in self._index:
                self._index.move_to_end(digest)

    def _validate(self, digest: str, record: bytes) -> PartitionSolution:
        payload = json.loads(record)
        if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
            raise SerializationError(f"not a {_FORMAT} record")
        if payload.get("digest") != digest:
            raise SerializationError("record digest does not match its key")
        solution = payload.get("solution")
        if not isinstance(solution, dict):
            raise SerializationError("record holds no solution document")
        return solution_from_dict(solution)

    def _miss(self) -> None:
        with self._lock:
            self.misses += 1
        obs_registry().counter("serve.store.misses").inc()

    def _drop(self, digest: str, where: _Location) -> None:
        """Forget a record that failed its checks, in memory and in the log."""
        with self._lock:
            if self._fd is not None and self._index.get(digest) == where:
                self._append([_marker(digest, "drop")])
                del self._index[digest]
                self._maybe_compact()

    # -- insertion ---------------------------------------------------------

    def put(
        self,
        digest: str,
        solution: PartitionSolution,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Append ``solution`` under ``digest``; evict LRU entries over cap."""
        if not _DIGEST.fullmatch(digest):
            raise ValueError(f"digest must be lowercase hex, got {digest!r}")
        record = (
            _ENCODER.encode(
                {
                    "digest": digest,
                    "format": _FORMAT,
                    "meta": meta or {},
                    "solution": solution_to_dict(solution),
                    "version": _VERSION,
                }
            )
            + "\n"
        ).encode("ascii")
        with self._lock:
            excess = len(self._index) + (digest not in self._index) - self.max_entries
            evicted = list(
                itertools.islice(
                    (key for key in self._index if key != digest), max(excess, 0)
                )
            )
            offset = self._append([record] + [_marker(key, "drop") for key in evicted])
            for key in evicted:
                del self._index[key]
            self._index.pop(digest, None)
            self._index[digest] = (offset, len(record))
            self.writes += 1
            self.evictions += len(evicted)
            self._maybe_compact()
        registry = obs_registry()
        registry.counter("serve.store.writes").inc()
        if evicted:
            registry.counter("serve.store.evictions").inc(len(evicted))

    # -- the log (every helper below runs with the lock held) ---------------

    def _require_fd(self) -> int:
        if self._fd is None:
            raise ValueError("I/O operation on a closed SolutionStore")
        return self._fd

    def _append(self, records: List[bytes]) -> int:
        """Append ``records`` in one write; returns the first one's offset.

        ``O_APPEND`` places the write at the end of the file, whoever else
        appends, and leaves this descriptor's position just past it.
        """
        fd = self._require_fd()
        data = b"".join(records)
        written = os.write(fd, data)
        if written != len(data):
            raise OSError(f"short write to {self.path}: {written} of {len(data)} bytes")
        self._lines += len(records)
        return os.lseek(fd, 0, os.SEEK_CUR) - len(data)

    def _maybe_compact(self) -> None:
        if self._lines > 2 * self.max_entries:
            self._compact()

    def _compact(self) -> None:
        """Rewrite the live records, in LRU order, and replace the log."""
        fd = self._require_fd()
        data = _read_all(fd)
        index: "OrderedDict[str, _Location]" = OrderedDict()
        kept: List[bytes] = []
        offset = 0
        for digest, (at, length) in self._index.items():
            record = data[at : at + length]
            # Bytes another appender disturbed are not this key's one line.
            if record.startswith(_head(digest, "solution") + b",") and (
                record.find(b"\n") == length - 1
            ):
                kept.append(record)
                index[digest] = (offset, length)
                offset += length
        tmp_fd, tmp_name = tempfile.mkstemp(
            dir=str(self.root), prefix=".solutions.", suffix=".tmp"
        )
        try:
            try:
                _write_all(tmp_fd, b"".join(kept))
            finally:
                os.close(tmp_fd)
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:  # pragma: no cover - already renamed or gone
                pass
            raise
        self._fd = self._open()
        os.close(fd)
        self._index = index
        self._lines = len(index)

    # -- reporting ---------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Health-endpoint view: occupancy, traffic tallies, location."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "root": str(self.root),
                "entries": len(self._index),
                "max_entries": self.max_entries,
                "bytes": sum(length for _offset, length in self._index.values()),
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "evictions": self.evictions,
                "hit_rate": (self.hits / lookups) if lookups else None,
            }
