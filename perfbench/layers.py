"""Per-layer timing from the benchmark's own files.

A :class:`Probe` rebinds public functions at the sites that call them
(``repro.serve.server.parse_solve_spec``, ``repro.serve.coalesce.solve``,
...) with wrappers that time each call.  Wrappers keep a per-thread stack,
so every layer gets both its inclusive time and its *self* time (inclusive
minus the wrapped layers it called).  Self times never overlap, which is
what lets the layer budget add up to a request's round trip.

Nothing here changes what the wrapped function returns or raises.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .common import percentile

#: (module[:Class], attribute, layer) — one rebinding per call site.
Site = Tuple[str, str, str]

#: Call sites on the served request path (installed in the server process).
SERVER_SITES: Sequence[Site] = (
    ("repro.serve.server", "parse_solve_spec", "serve.protocol.parse"),
    ("repro.serve.server", "parse_simulate_spec", "serve.protocol.parse"),
    ("repro.serve.server", "solution_payload", "serve.protocol.payload"),
    ("repro.serve.server", "write_http_response", "serve.server.write"),
    ("repro.serve.protocol", "canonicalize", "core.cache.canonicalize"),
    ("repro.core.cache", "canonicalize", "core.cache.canonicalize"),
    ("repro.serve.coalesce:Coalescer", "submit_traced", "serve.coalesce.submit"),
    ("repro.serve.store:SolutionStore", "get", "serve.store.get"),
    ("repro.serve.store:SolutionStore", "put", "serve.store.put"),
    ("repro.serve.coalesce", "map_tasks", "sched.map_tasks"),
    ("repro.serve.coalesce", "solve", "core.solver.solve"),
    ("repro.core.solver", "minimize_nf", "core.partition.minimize_nf"),
    ("repro.core.solver", "same_size_sweep", "core.partition.same_size_sweep"),
    ("repro.core.partition", "derive_alpha", "core.transform.derive_alpha"),
    ("repro.core.solver", "BankMapping", "core.mapping.build"),
    ("repro.serve.protocol", "BankMapping", "core.mapping.build"),
    ("repro.serve.server", "BankMapping", "core.mapping.build"),
    ("repro.sim.memsim", "simulate_sweep", "sim.simulate_sweep"),
)

#: Call sites of the in-process Table 1 workload (the benchmark calls
#: ``repro.core.solver.solve`` and ``repro.baselines.ltb.ltb_partition``
#: through their modules, so rebinding the module attribute reaches it).
INPROCESS_SITES: Sequence[Site] = (
    ("repro.core.solver", "solve", "core.solver.solve"),
    ("repro.core.cache", "canonicalize", "core.cache.canonicalize"),
    ("repro.core.solver", "minimize_nf", "core.partition.minimize_nf"),
    ("repro.core.solver", "same_size_sweep", "core.partition.same_size_sweep"),
    ("repro.core.partition", "derive_alpha", "core.transform.derive_alpha"),
    ("repro.core.solver", "BankMapping", "core.mapping.build"),
    ("repro.baselines.ltb", "ltb_partition", "baselines.ltb.search"),
)

#: Layers whose per-call durations are kept, for percentiles.
SAMPLED_LAYERS = ("core.solver.solve",)

#: Cap on kept samples per layer (a long run must not grow without bound).
MAX_SAMPLES = 200_000


def _ltb_label(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> str:
    pattern = args[0] if args else kwargs["pattern"]
    return f"baselines.ltb.search.{pattern.name or '?'}"


#: Layers recorded under a per-call label as well as under their own name.
_LABELS: Dict[str, Callable[[Tuple[Any, ...], Dict[str, Any]], str]] = {
    "baselines.ltb.search": _ltb_label,
}


class Probe:
    """Call counts, inclusive and self time per layer, across threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed: List[Tuple[Any, str, Any]] = []
        self.reset()

    def reset(self) -> None:
        """Start a fresh window.

        Safe to call from a signal handler: it only rebinds ``stats``, so a
        record in flight lands in the discarded window instead of blocking.
        """
        self.stats: Dict[str, Dict[str, Any]] = {}

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, layer: str, total_ns: int, self_ns: int) -> None:
        stats = self.stats
        with self._lock:
            entry = stats.get(layer)
            if entry is None:
                entry = stats[layer] = {
                    "calls": 0, "total_ns": 0, "self_ns": 0, "samples_ns": [],
                }
            entry["calls"] += 1
            entry["total_ns"] += total_ns
            entry["self_ns"] += self_ns
            if layer in SAMPLED_LAYERS and len(entry["samples_ns"]) < MAX_SAMPLES:
                entry["samples_ns"].append(total_ns)

    def wrap(self, fn: Callable[..., Any], layer: str) -> Callable[..., Any]:
        """A timed stand-in for ``fn`` that records under ``layer``."""
        label = _LABELS.get(layer)

        @functools.wraps(fn, updated=())
        def timed(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            stack.append(0)
            started = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self._record(layer, elapsed, elapsed - children)
                if label is not None:
                    self._record(label(args, kwargs), elapsed, elapsed - children)

        return timed

    def install(self, sites: Sequence[Site]) -> None:
        """Rebind every site to a timed wrapper (undo with :meth:`uninstall`)."""
        for target, attr, layer in sites:
            module_name, _, class_name = target.partition(":")
            owner: Any = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr] if class_name else getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, layer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def dump(self) -> Dict[str, Dict[str, Any]]:
        """A JSON-ready copy of the current window."""
        with self._lock:
            return {
                layer: dict(entry, samples_ns=list(entry["samples_ns"]))
                for layer, entry in self.stats.items()
            }


# -- reading a dump ----------------------------------------------------------


def mean_us(dump: Dict[str, Dict[str, Any]], layer: str) -> float:
    """Mean inclusive µs per call of ``layer`` (0 when it was never called)."""
    entry = dump.get(layer)
    if not entry or not entry["calls"]:
        return 0.0
    return entry["total_ns"] / entry["calls"] / 1000.0


def calls(dump: Dict[str, Dict[str, Any]], layer: str) -> int:
    entry = dump.get(layer)
    return int(entry["calls"]) if entry else 0


def samples_us(dump: Dict[str, Dict[str, Any]], layer: str) -> List[float]:
    entry = dump.get(layer)
    return [ns / 1000.0 for ns in entry["samples_ns"]] if entry else []


def self_us(dump: Dict[str, Dict[str, Any]], layer: str) -> float:
    """Mean self µs per call: inclusive time minus the wrapped layers inside."""
    entry = dump.get(layer)
    if not entry or not entry["calls"]:
        return 0.0
    return entry["self_ns"] / entry["calls"] / 1000.0


#: Table 1 patterns, for the per-pattern LTB search times.
LTB_PATTERNS = ("log", "canny", "prewitt", "se", "sobel3d", "median", "gaussian")


def common_metrics(dump: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer times every workload reports (0 where a layer is idle)."""
    solves = samples_us(dump, "core.solver.solve")
    metrics = {
        "serve.protocol.parse_us": mean_us(dump, "serve.protocol.parse"),
        "serve.protocol.payload_us": mean_us(dump, "serve.protocol.payload"),
        "core.cache.canonicalize_us": mean_us(dump, "core.cache.canonicalize"),
        "serve.server.write_us": mean_us(dump, "serve.server.write"),
        "serve.coalesce.submit_us": mean_us(dump, "serve.coalesce.submit"),
        "serve.store.get_us": mean_us(dump, "serve.store.get"),
        "serve.store.put_us": mean_us(dump, "serve.store.put"),
        "sched.map_tasks_self_us": self_us(dump, "sched.map_tasks"),
        "core.solver.solve_p50_us": percentile(solves, 0.5) if solves else 0.0,
        "core.solver.solve_p99_us": percentile(solves, 0.99) if solves else 0.0,
        "core.transform.derive_alpha_us": mean_us(dump, "core.transform.derive_alpha"),
        "core.partition.minimize_nf_us": mean_us(dump, "core.partition.minimize_nf"),
        "core.partition.same_size_sweep_us": mean_us(dump, "core.partition.same_size_sweep"),
        "core.mapping.build_us": mean_us(dump, "core.mapping.build"),
        "sim.simulate_sweep_ms": mean_us(dump, "sim.simulate_sweep") / 1000.0,
    }
    for name in LTB_PATTERNS:
        metrics[f"baselines.ltb.search_ms.{name}"] = (
            mean_us(dump, f"baselines.ltb.search.{name}") / 1000.0
        )
    return metrics


#: Rows of the served-request budget, in request order.  Each row is the
#: *self* time of one layer, so the rows never count a microsecond twice.
BUDGET_LAYERS = (
    "serve.protocol.parse",
    "core.cache.canonicalize",
    "serve.coalesce.submit",
    "serve.store.get",
    "sched.map_tasks",
    "core.solver.solve",
    "core.partition.minimize_nf",
    "core.transform.derive_alpha",
    "core.partition.same_size_sweep",
    "serve.store.put",
    "sim.simulate_sweep",
    "core.mapping.build",
    "serve.protocol.payload",
    "serve.server.write",
)

UNACCOUNTED = "serve.server.unaccounted"


def budget(
    dump: Dict[str, Dict[str, Any]], requests: int, mean_round_trip_us: float
) -> List[Tuple[str, float]]:
    """Mean self µs per request in each layer, closed by the unaccounted rest.

    The last row is the client's mean round trip minus every wrapped
    layer's share: socket I/O, HTTP framing, the event loop, the executor
    hop and coalescer queue wait.  The rows sum to ``mean_round_trip_us``.
    """
    rows = [
        (layer, dump[layer]["self_ns"] / requests / 1000.0 if layer in dump else 0.0)
        for layer in BUDGET_LAYERS
    ]
    rows.append((UNACCOUNTED, mean_round_trip_us - sum(us for _, us in rows)))
    return rows


def format_budget(rows: List[Tuple[str, float]], round_trip_us: Optional[float]) -> str:
    lines = [f"  {'layer':<34} {'us/request':>12} {'share':>8}"]
    for layer, us in rows:
        share = f"{100.0 * us / round_trip_us:7.1f}%" if round_trip_us else ""
        lines.append(f"  {layer:<34} {us:12.1f} {share:>8}")
    lines.append(f"  {'= mean round trip':<34} {sum(us for _, us in rows):12.1f}")
    return "\n".join(lines)
