"""Metrics registry: counters, gauges, and histograms with percentiles.

Where the tracer answers "where did the time go", the registry answers
"how much of everything happened": solver op counts, per-bank conflict
tallies, per-iteration cycle distributions, Table 1 numbers.  Three metric
kinds cover every consumer in the repo:

* :class:`Counter` — monotonically increasing totals (op counts, conflicts).
* :class:`Gauge` — last-value-wins observations (bank counts, improvements).
* :class:`Histogram` — full distributions with ``p50``/``p95``/``max``
  (cycles per iteration, solve times).

The registry *absorbs* the existing :class:`~repro.core.opcount.OpCounter`
protocol two ways: :meth:`MetricsRegistry.absorb_ops` merges a finished
counter's snapshot under a name prefix, and :meth:`MetricsRegistry.op_counter`
hands out a live :class:`TrackedOpCounter` that mirrors every charge into
registry counters while still satisfying every ``ops=`` parameter in the
solver APIs.

Unlike spans, registry operations are not gated on ``REPRO_OBS``: harnesses
that route their printed numbers through the registry (Table 1, the case
study) always populate it, so an ``--emit-metrics`` file carries the same
values the terminal shows.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Tuple

from ..core.opcount import OpCounter


class Counter:
    """A monotonically increasing tally."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counters only go up; got increment {n}")
        self.value += n


class Gauge:
    """A last-value-wins observation."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A value distribution summarized as count/sum/p50/p95/max.

    Exact, with memory bounded by the number of *distinct* values rather
    than observations: one count per value, so ``observe(v, n)`` is O(1)
    and a server's long-lived histograms stay small when values repeat.
    """

    __slots__ = ("_counts", "count", "sum")

    def __init__(self) -> None:
        self._counts: Dict[float, int] = {}
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float, n: int = 1) -> None:
        """Record ``value`` ``n`` times (``n`` collapses histogram merges)."""
        if n < 1:
            raise ValueError(f"observation multiplicity must be >= 1, got {n}")
        value = float(value)
        self._counts[value] = self._counts.get(value, 0) + n
        self.count += n
        self.sum += value * n

    @property
    def max(self) -> float:
        return max(self._counts) if self._counts else 0.0

    def pairs(self) -> List[Tuple[float, int]]:
        """``(value, count)`` for every distinct value, in ascending order."""
        return sorted(self._counts.items())

    def _ranked(self, pairs: List[Tuple[float, int]], p: float) -> float:
        """Nearest-rank percentile over ascending ``pairs``."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not pairs:
            return 0.0
        rank = max(1, -(-self.count * p // 100))  # ceil(n * p / 100)
        seen = 0
        for value, n in pairs:
            seen += n
            if seen >= rank:
                return value
        return pairs[-1][0]

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100]."""
        return self._ranked(self.pairs(), p)

    def summary(self) -> Dict[str, float]:
        """The exported shape: count, sum, mean, p50, p95, max."""
        count = self.count
        pairs = self.pairs()
        return {
            "count": count,
            "sum": self.sum,
            "mean": (self.sum / count) if count else 0.0,
            "p50": self._ranked(pairs, 50),
            "p95": self._ranked(pairs, 95),
            "max": pairs[-1][0] if pairs else 0.0,
        }


#: Default LogHistogram geometry: buckets at 0.001 * 2^i.  In milliseconds
#: that spans 1 µs to ~2 months with ~2x resolution, which is plenty for
#: latency data; values past the last bound land in an overflow bucket.
LOG_BUCKET_START = 1e-3
LOG_BUCKET_FACTOR = 2.0
LOG_BUCKET_COUNT = 48


class LogHistogram:
    """A log-bucketed distribution: O(1) observe, bounded memory.

    :class:`Histogram` keeps one count per distinct value, which is exact
    but grows with every new value — fine for small integer-valued data,
    wrong for a server timing an unbounded request stream, where almost
    every latency is new.  This primitive keeps a fixed array of
    geometrically spaced buckets plus exact ``count``/``sum``/``min``/
    ``max``, so every observation is an index increment and the memory
    footprint never changes.

    Quantiles come from the cumulative bucket counts: the reported value
    is the upper bound of the bucket containing the requested rank,
    clamped to the observed ``[min, max]`` — i.e. an over-estimate by at
    most one bucket ratio (2x by default), never an under-estimate.

    The bucket layout is exactly what the Prometheus *histogram* type
    wants (:meth:`buckets` yields cumulative ``le`` pairs), unlike the raw
    :class:`Histogram`, which exports as a summary.
    """

    __slots__ = ("_bounds", "_counts", "count", "sum", "min", "max")

    def __init__(
        self,
        start: float = LOG_BUCKET_START,
        factor: float = LOG_BUCKET_FACTOR,
        buckets: int = LOG_BUCKET_COUNT,
    ) -> None:
        if start <= 0 or factor <= 1 or buckets < 1:
            raise ValueError(
                f"need start > 0, factor > 1, buckets >= 1; "
                f"got ({start}, {factor}, {buckets})"
            )
        self._bounds: List[float] = [start * factor**i for i in range(buckets)]
        self._counts: List[int] = [0] * (buckets + 1)  # + overflow
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float, n: int = 1) -> None:
        if n < 1:
            raise ValueError(f"observation multiplicity must be >= 1, got {n}")
        value = float(value)
        self._counts[bisect_left(self._bounds, value)] += n
        self.count += n
        self.sum += value * n
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def percentile(self, p: float) -> float:
        """Bucket-resolution nearest-rank percentile, ``p`` in [0, 100]."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(self.count * p / 100.0))
        cumulative = 0
        for idx, bucket_count in enumerate(self._counts):
            cumulative += bucket_count
            if cumulative >= rank:
                bound = self._bounds[idx] if idx < len(self._bounds) else self.max
                return min(max(bound, self.min), self.max)
        return self.max  # pragma: no cover - counts always sum to count

    def buckets(self) -> List[Tuple[float, int]]:
        """Cumulative ``(le_bound, count)`` pairs, ending with ``(inf, count)``."""
        pairs: List[Tuple[float, int]] = []
        cumulative = 0
        for bound, bucket_count in zip(self._bounds, self._counts):
            cumulative += bucket_count
            pairs.append((bound, cumulative))
        pairs.append((math.inf, cumulative + self._counts[-1]))
        return pairs

    def summary(self) -> Dict[str, float]:
        """The exported shape: count/sum/mean/min/max plus tail quantiles."""
        count = self.count
        return {
            "count": count,
            "sum": self.sum,
            "mean": (self.sum / count) if count else 0.0,
            "min": self.min if count else 0.0,
            "max": self.max if count else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "p999": self.percentile(99.9),
        }

    # -- cross-process transport ------------------------------------------

    def to_dump(self) -> Dict[str, Any]:
        return {
            "bounds": [self._bounds[0], self._bounds[1] / self._bounds[0]]
            if len(self._bounds) > 1
            else [self._bounds[0], LOG_BUCKET_FACTOR],
            "counts": list(self._counts),
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    def merge_dump(self, dump: Dict[str, Any]) -> None:
        counts = dump["counts"]
        if len(counts) != len(self._counts):
            raise ValueError(
                f"cannot merge log histograms with different bucket layouts "
                f"({len(counts)} vs {len(self._counts)} buckets)"
            )
        added = 0
        for idx, n in enumerate(counts):
            self._counts[idx] += n
            added += n
        if not added:
            return
        self.count += added
        self.sum += dump["sum"]
        self.min = min(self.min, dump["min"])
        self.max = max(self.max, dump["max"])


class MetricsRegistry:
    """Thread-safe, name-keyed home for all three metric kinds."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._log_histograms: Dict[str, LogHistogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter()
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge()
            return metric

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            if name in self._log_histograms:
                raise ValueError(f"{name!r} is already a log histogram")
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram()
            return metric

    def log_histogram(self, name: str, **kwargs: Any) -> LogHistogram:
        """The :class:`LogHistogram` named ``name`` (created on first use).

        ``kwargs`` (``start``/``factor``/``buckets``) only apply on
        creation; later calls return the existing instance unchanged.
        """
        with self._lock:
            if name in self._histograms:
                raise ValueError(f"{name!r} is already a raw histogram")
            metric = self._log_histograms.get(name)
            if metric is None:
                metric = self._log_histograms[name] = LogHistogram(**kwargs)
            return metric

    def log_histograms(self) -> Dict[str, LogHistogram]:
        """Name-sorted snapshot of the log histograms (for exporters)."""
        with self._lock:
            return dict(sorted(self._log_histograms.items()))

    # -- OpCounter integration -------------------------------------------

    def absorb_ops(self, prefix: str, ops: OpCounter) -> None:
        """Merge a finished op counter under ``prefix`` (one counter per
        category plus ``<prefix>.total``)."""
        snapshot = ops.snapshot()
        for category, n in snapshot.items():
            self.counter(f"{prefix}.{category}").inc(n)
        self.counter(f"{prefix}.total").inc(sum(snapshot.values()))

    def op_counter(self, prefix: str) -> "TrackedOpCounter":
        """A live op counter mirroring every charge into this registry."""
        return TrackedOpCounter(self, prefix)

    # -- export -----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Flat JSON-friendly view of everything recorded so far.

        Raw and log histograms share the ``histograms`` section — both
        summarize to scalars, log histograms just carry the extra
        ``min``/``p99``/``p999`` quantile fields (and export bucket
        detail separately, see :mod:`repro.obs.export`).
        """
        with self._lock:
            histograms = {k: h.summary() for k, h in self._histograms.items()}
            histograms.update(
                {k: h.summary() for k, h in self._log_histograms.items()}
            )
            return {
                "counters": {k: c.value for k, c in sorted(self._counters.items())},
                "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
                "histograms": dict(sorted(histograms.items())),
            }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._log_histograms.clear()

    # -- cross-process transport ------------------------------------------

    def dump(self, worker_id: Optional[str] = None) -> Dict[str, Any]:
        """Lossless, picklable export for shipping across process borders.

        Unlike :meth:`snapshot`, histograms carry their ``(value, count)``
        pairs (and log histograms their bucket counts) so the receiver can
        :meth:`merge` them without degrading percentiles.  ``worker_id``
        stamps the dump with its origin; the merging side then also
        publishes a ``worker.<id>.*`` namespaced copy of every metric, so
        per-worker skew survives the aggregation.
        """
        with self._lock:
            return {
                "worker_id": worker_id,
                "counters": {k: c.value for k, c in self._counters.items()},
                "gauges": {k: g.value for k, g in self._gauges.items()},
                "histograms": {k: h.pairs() for k, h in self._histograms.items()},
                "log_histograms": {
                    k: h.to_dump() for k, h in self._log_histograms.items()
                },
            }

    def merge(self, dump: Dict[str, Any]) -> None:
        """Fold a :meth:`dump` from another process into this registry.

        Counters and histogram observations add; gauges are last-write-wins
        (the merge order is the caller's deterministic result order, so the
        outcome matches a serial run).  When the dump carries a
        ``worker_id``, every metric is *additionally* recorded under
        ``worker.<id>.<name>`` — the aggregate totals stay comparable to a
        serial run while the provenance stays inspectable.
        """
        worker = dump.get("worker_id")
        for name, value in dump.get("counters", {}).items():
            if value:
                self.counter(name).inc(value)
                if worker:
                    self.counter(f"worker.{worker}.{name}").inc(value)
        for name, value in dump.get("gauges", {}).items():
            self.gauge(name).set(value)
            if worker:
                self.gauge(f"worker.{worker}.{name}").set(value)
        for name, pairs in dump.get("histograms", {}).items():
            metric = self.histogram(name)
            for value, n in pairs:
                metric.observe(value, n)
            if worker:
                shadow = self.histogram(f"worker.{worker}.{name}")
                for value, n in pairs:
                    shadow.observe(value, n)
        for name, payload in dump.get("log_histograms", {}).items():
            self.log_histogram(name).merge_dump(payload)
            if worker:
                self.log_histogram(f"worker.{worker}.{name}").merge_dump(payload)


class TrackedOpCounter(OpCounter):
    """An :class:`OpCounter` whose charges also feed a metrics registry.

    Drop-in for any ``ops=`` parameter: algorithm code keeps calling
    ``ops.add()`` / ``ops.mod(n)`` and both the local snapshot *and* the
    registry's ``<prefix>.<category>`` counters advance.
    """

    def __init__(self, registry: MetricsRegistry, prefix: str) -> None:
        super().__init__()
        self._registry = registry
        self._prefix = prefix

    def charge(self, category: str, n: int = 1) -> None:
        super().charge(category, n)
        self._registry.counter(f"{self._prefix}.{category}").inc(n)
        self._registry.counter(f"{self._prefix}.total").inc(n)


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _REGISTRY
