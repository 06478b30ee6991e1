"""Exporters: JSON-lines span events, JSON/CSV metric snapshots.

Three formats, one schema:

* ``*.jsonl`` — one JSON object per line, each a finished span event
  (streamable; what a trace viewer or ``jq`` pipeline consumes).
* ``*.json``  — a single document with top-level keys ``schema``,
  ``counters``, ``gauges``, ``histograms``, ``spans`` (plus any harness
  extras, e.g. a ``conflicts`` table).  This is the ``--emit-metrics``
  artifact CI diffs between runs.
* ``*.csv``   — the flat ``kind,name,field,value`` projection of the same
  snapshot for spreadsheet users.
* ``*.prom``  — the Prometheus text exposition format
  (:func:`to_prometheus_text`), which is also what the ``repro-serve``
  ``/metrics`` endpoint returns so a stock Prometheus scraper can watch a
  running partitioning service.

Everything here is pure stdlib (``json``/``io``/``re``) so the exporters
work in the most minimal environment the package supports.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any, Dict, List, Optional, Sequence

from .conflicts import ConflictTable
from .metrics import MetricsRegistry, registry as _global_registry
from .tracer import SpanRecord, Tracer, tracer as _global_tracer

#: Version tag for the metrics-document layout.
SCHEMA = "repro.obs/v1"


def spans_to_jsonl(records: Sequence[SpanRecord]) -> str:
    """Render finished spans as a JSON-lines event stream."""
    return "\n".join(json.dumps(r.to_dict(), sort_keys=True) for r in records)


def write_spans_jsonl(path: str, trace: Tracer | None = None) -> None:
    """Write the tracer's finished spans to ``path`` as JSON lines."""
    records = (trace or _global_tracer()).records()
    with open(path, "w") as handle:
        text = spans_to_jsonl(records)
        handle.write(text + ("\n" if text else ""))


def metrics_document(
    metrics: MetricsRegistry | None = None,
    trace: Tracer | None = None,
    conflicts: ConflictTable | None = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the single-document snapshot shared by JSON export and CI.

    Histogram entries carry scalar summaries for both histogram kinds;
    log-bucketed histograms additionally include their cumulative
    ``buckets`` (``[le, count]`` pairs, the last ``le`` rendered as the
    string ``"+Inf"`` to stay valid JSON).
    """
    reg = metrics or _global_registry()
    snapshot = reg.snapshot()
    histograms = dict(snapshot["histograms"])
    for name, hist in reg.log_histograms().items():
        histograms[name] = dict(histograms.get(name, hist.summary()))
        histograms[name]["buckets"] = [
            ["+Inf" if math.isinf(bound) else bound, count]
            for bound, count in hist.buckets()
        ]
    document: Dict[str, Any] = {
        "schema": SCHEMA,
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "histograms": histograms,
        "spans": [r.to_dict() for r in (trace or _global_tracer()).records()],
    }
    if conflicts is not None:
        document["conflicts"] = conflicts.to_dict()
    if extra:
        document.update(extra)
    return document


def write_metrics_json(
    path: str,
    metrics: MetricsRegistry | None = None,
    trace: Tracer | None = None,
    conflicts: ConflictTable | None = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Write the snapshot document to ``path``; returns what was written."""
    document = metrics_document(metrics, trace, conflicts, extra)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document


def metrics_to_csv(metrics: MetricsRegistry | None = None) -> str:
    """Flatten a registry snapshot to ``kind,name,field,value`` rows."""
    snapshot = (metrics or _global_registry()).snapshot()
    rows: List[str] = ["kind,name,field,value"]
    for name, value in snapshot["counters"].items():
        rows.append(f"counter,{name},value,{value}")
    for name, value in snapshot["gauges"].items():
        rows.append(f"gauge,{name},value,{value}")
    for name, summary in snapshot["histograms"].items():
        for fld, value in summary.items():
            rows.append(f"histogram,{name},{fld},{value}")
    return "\n".join(rows)


def write_metrics_csv(path: str, metrics: MetricsRegistry | None = None) -> None:
    """Write the flat CSV projection of the registry to ``path``."""
    with open(path, "w") as handle:
        handle.write(metrics_to_csv(metrics) + "\n")


_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Map a dotted registry name onto the Prometheus grammar.

    ``solve.cache.hits`` → ``repro_solve_cache_hits``.  The ``repro_``
    prefix namespaces the whole registry and guarantees the first character
    is a letter even for exotic registry names.
    """
    return "repro_" + _PROM_INVALID.sub("_", name)


def _format_le(bound: float) -> str:
    """Prometheus ``le`` label for a bucket upper bound."""
    return "+Inf" if math.isinf(bound) else format(bound, ".12g")


def to_prometheus_text(metrics: MetricsRegistry | None = None) -> str:
    """Render a registry snapshot in the Prometheus text exposition format.

    Counters follow the ``_total`` naming convention.  Raw histograms
    export as summaries (``{quantile="0.5"|"0.95"}`` sample lines plus
    ``_sum`` / ``_count``) with the observed maximum as a companion
    ``_max`` gauge — they keep nearest-rank percentiles, not buckets, so a
    summary is the honest mapping.  Log-bucketed histograms export as true
    Prometheus histograms: cumulative ``_bucket{le="..."}`` series with
    monotone non-decreasing counts ending in ``le="+Inf"``, plus ``_sum``
    and ``_count``.
    """
    reg = metrics or _global_registry()
    snapshot = reg.snapshot()
    log_histograms = reg.log_histograms()
    lines: List[str] = []
    for name, value in snapshot["counters"].items():
        prom = _prom_name(name) + "_total"
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {value}")
    for name, value in snapshot["gauges"].items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {value}")
    for name, summary in snapshot["histograms"].items():
        if name in log_histograms:
            continue
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} summary")
        lines.append(f'{prom}{{quantile="0.5"}} {summary["p50"]}')
        lines.append(f'{prom}{{quantile="0.95"}} {summary["p95"]}')
        lines.append(f"{prom}_sum {summary['sum']}")
        lines.append(f"{prom}_count {summary['count']}")
        lines.append(f"# TYPE {prom}_max gauge")
        lines.append(f"{prom}_max {summary['max']}")
    for name, hist in log_histograms.items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        for bound, cumulative in hist.buckets():
            lines.append(f'{prom}_bucket{{le="{_format_le(bound)}"}} {cumulative}')
        lines.append(f"{prom}_sum {hist.sum if hist.count else 0.0}")
        lines.append(f"{prom}_count {hist.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_metrics_prometheus(path: str, metrics: MetricsRegistry | None = None) -> None:
    """Write the Prometheus text projection of the registry to ``path``."""
    with open(path, "w") as handle:
        handle.write(to_prometheus_text(metrics))


def metrics_path(value: str) -> str:
    """The ``--emit-metrics`` argument type: ``value`` if its directory exists.

    Checked when the command line is parsed, so a mistyped directory is a
    one-line usage error before the run, not a traceback after it.
    """
    import argparse
    import os

    directory = os.path.dirname(value) or os.curdir
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(f"directory {directory!r} does not exist")
    return value


def emit_metrics(
    path: Optional[str],
    conflicts: ConflictTable | None = None,
    extra: Optional[Dict[str, Any]] = None,
    announce: bool = True,
) -> Optional[str]:
    """The one ``--emit-metrics PATH`` implementation shared by every CLI.

    The suffix picks the format — ``.csv`` flat rows, ``.prom`` Prometheus
    text, anything else the JSON snapshot document (which is the only
    format that can carry ``conflicts``/``extra``).  ``None``/empty paths
    are a no-op so callers can pass the argparse value straight through.
    Returns the path written, or ``None``.
    """
    if not path:
        return None
    if path.endswith(".csv"):
        write_metrics_csv(path)
    elif path.endswith(".prom"):
        write_metrics_prometheus(path)
    else:
        write_metrics_json(path, conflicts=conflicts, extra=extra)
    if announce:
        print(f"metrics written to {path}")
    return path
