"""Shared plumbing: the checkout layout, a clean environment, statistics."""

from __future__ import annotations

import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Set, Tuple

#: The checkout the benchmark runs in (its parent directory).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Scratch space for stores, port files and probe dumps; removed after a run.
WORK = ROOT / ".perfbench-work"


#: A run's timed work is cut into this many segments, with a chunk of the
#: in-process reference block after each and a reading of the host's speed
#: between consecutive segments (see :func:`calibrated`).
SEGMENTS = 16

#: Set-ups (fresh interpreters or server spawns) timed per run;
#: ``setup_s`` is the median.
SETUPS = 5

#: Median time of each host kernel on the reference host (2-vCPU VM,
#: Python 3.11, NumPy 2.4), in ms.  Times are reported at this host speed.
HOST_KERNEL_MS = {"interp": 2.0, "numpy": 4.0}

#: Runs of each host kernel per reading of the host's speed.
HOST_READS = 5


class BenchmarkError(Exception):
    """The benchmark cannot run here (no source tree, server did not start)."""


def require_source() -> None:
    """Fail early, before any output, when the package source is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no package source at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def scrub_repro_env() -> List[str]:
    """Unset every ``REPRO_*`` variable so all layers run with defaults."""
    names = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in names:
        del os.environ[name]
    return names


def child_env() -> Dict[str, str]:
    """Environment for subprocesses: defaults only, package on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def interp_kernel() -> int:
    """Fixed interpreter work on small ints, tuples and dicts: the profile
    of the solver and of the server's request path."""
    table: Dict[Tuple[int, int], int] = {}
    acc = 0
    for i in range(1500):
        key = ((i * 7919) % 211, i % 7)
        table[key] = table.get(key, 0) + i
        acc += sum(divmod(i * 31, 17))
    return acc + len(sorted(table.items(), key=lambda kv: (kv[1] % 97, kv[0])))


def numpy_kernel() -> int:
    """Fixed small-array NumPy work: the profile of the LTB and simulator
    engines."""
    import numpy

    values = numpy.arange(4096, dtype=numpy.int64)
    return sum(int(numpy.unique((values * (k + 3)) % 251).size) for k in range(24))


HOST_KERNELS: Dict[str, Callable[[], int]] = {"interp": interp_kernel, "numpy": numpy_kernel}


def cpu_places() -> Dict[str, Set[int]]:
    """Where each side of a run executes.

    The benchmark process (``client``: the load generator and all
    in-process work) keeps the lowest-numbered CPU it may use; a server
    gets the others (on a 1-CPU host both share it).  The load generator
    then never takes the server's CPU, and each side's speed can be read
    where it runs: the two vCPUs of a shared host drift independently.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return {"client": {cpus[0]}, "server": set(cpus[1:]) or {cpus[0]}}


PLACES = cpu_places()


def pin_client() -> None:
    os.sched_setaffinity(0, PLACES["client"])


def pin_server() -> None:
    """``preexec_fn`` of a server process."""
    os.sched_setaffinity(0, PLACES["server"])


#: A reading of the host's speed, keyed ``"<place>.<kind>"`` (see
#: :func:`host_speed`).
Speed = Dict[str, float]


def host_speed() -> Speed:
    """The host's speed now, relative to the reference host, per CPU place
    and kernel.

    For each kernel, ``HOST_KERNEL_MS`` over the median time of
    :data:`HOST_READS` runs on the place's CPUs: 1.0 on the reference
    host, 0.7 while other tenants slow it down by 1/0.7.  A raw time
    multiplied by it is the time the same work takes at the reference
    speed.  Interpreter and NumPy speed drift apart on a shared host, so
    each timing follows the kernel of its own profile (:data:`SPEED_KIND`).
    The kernels call nothing in the package, so no change to the package
    moves them.
    """
    clock = time.perf_counter
    speed = {}
    for place, cpus in PLACES.items():
        os.sched_setaffinity(0, cpus)
        for kind, kernel in HOST_KERNELS.items():
            times = []
            for _ in range(HOST_READS):
                started = clock()
                kernel()
                times.append((clock() - started) * 1000.0)
            speed[f"{place}.{kind}"] = HOST_KERNEL_MS[kind] / median(times)
    pin_client()
    return speed


#: Timings that follow NumPy speed; every other timing follows the
#: interpreter's.
SPEED_KIND = {
    "table1_ltb_ms": "numpy",
    "simulate_p50_ms": "numpy",
    "simulate_p95_ms": "numpy",
}


def factor(speed: Speed, place: str, metric: str) -> float:
    """What a raw time of ``metric`` measured at ``place`` is multiplied by.

    ``place`` is ``"client"`` for in-process work and ``"both"`` for a
    round trip or a server spawn, which run on the client's CPU and the
    server's: those follow the mean of the two places' speeds.
    """
    kind = SPEED_KIND.get(metric, "interp")
    if place == "both":
        return (speed[f"client.{kind}"] + speed[f"server.{kind}"]) / 2.0
    return speed[f"{place}.{kind}"]


def calibrated(count: int, run_slot: Callable[[int], None]) -> List[Speed]:
    """Run ``run_slot(i)`` for each ``i < count``, reading the host's speed
    before the first slot and after each.

    Single-thread speed on a shared 2-vCPU host swings by up to 2x on a
    scale of seconds, whatever the code does.  The speed of slot ``i`` is
    the mean of the readings on either side of it; raw times measured in
    the slot are multiplied by it.
    """
    readings = [host_speed()]
    for i in range(count):
        run_slot(i)
        readings.append(host_speed())
    return [{key: (a[key] + b[key]) / 2.0 for key in a} for a, b in zip(readings, readings[1:])]


def timed_setups(start: Callable[[int], float], place: str) -> Tuple[float, List[float]]:
    """``setup_s``: the median of :data:`SETUPS` calls of ``start(i)`` (each
    returns seconds), each scaled by the speed of ``place`` around it.
    Also returns the raw times."""
    raw: List[float] = []
    speeds = calibrated(SETUPS, lambda i: raw.append(start(i)))
    return median([s * factor(speed, place, "setup_s") for s, speed in zip(raw, speeds)]), raw


def unit_speeds(count: int) -> List[Speed]:
    """Speeds that leave raw times as measured."""
    keys = [f"{place}.{kind}" for place in PLACES for kind in HOST_KERNELS]
    return [dict.fromkeys(keys, 1.0) for _ in range(count)]


def speed_summary(speeds: Sequence[Speed]) -> Dict[str, Dict[str, float]]:
    return {
        key: {
            "median": median([s[key] for s in speeds]),
            "min": min(s[key] for s in speeds),
            "max": max(s[key] for s in speeds),
        }
        for key in speeds[0]
    }


def windowed(samples: Sequence[float], q: float) -> float:
    """The median over consecutive windows of a run of each window's
    ``q``-th percentile.

    ``samples`` are in time order.  Windows are as many as the run
    allows with at least 10 samples beyond the percentile in each (1000
    samples for p99).  A burst of host stalls then spoils one window's
    tail, not the run's.
    """
    size = math.ceil(10 / (1 - q) - 1e-9)
    count = max(1, len(samples) // size)
    bounds = [len(samples) * i // count for i in range(count + 1)]
    return median([percentile(samples[lo:hi], q) for lo, hi in zip(bounds, bounds[1:])])


def p95(samples: Sequence[float]) -> float:
    return windowed(samples, 0.95)


def p99(samples: Sequence[float]) -> float:
    return windowed(samples, 0.99)


def provenance(scrubbed: Sequence[str]) -> Dict[str, Any]:
    """What makes a result from another host or engine set identifiable."""
    import numpy

    from repro import native
    from repro.baselines.ltb import resolve_ltb_engine
    from repro.core.mapping import BankMapping
    from repro.core.solver import solve
    from repro.patterns.library import log_pattern
    from repro.sim.memsim import resolve_engine

    mapping = BankMapping(solution=solve(log_pattern()).solution, shape=(64, 64))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "native_available": native.available(),
        "sim_engine_auto": resolve_engine(mapping, "auto"),
        "ltb_engine_auto": resolve_ltb_engine("auto"),
        "repro_env": "unset",
        "repro_env_scrubbed": list(scrubbed),
    }
