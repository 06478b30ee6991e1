"""The served workloads: a ``repro-serve`` process and a closed-loop client.

The server runs with its defaults apart from ``--port 0 --port-file
--store-dir``.  The client is one process with two keep-alive connections,
each sending its next request only after the previous reply arrived.
Replies are kept as bytes and checked after the timed window against an
in-process ``solve(..., cache=False)`` of the same spec.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import selectors
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from . import layers
from .common import (
    ROOT, SEGMENTS, BenchmarkError, Speed, calibrated, child_env, factor, median, p95, p99, pin_server,
    timed_setups, unit_speeds,
)
from .specs import ColdSpecs, Request, warm_keys, zipf_sequence

#: Closed-loop client connections.
CONNECTIONS = 2

#: Simulate replies whose report is re-simulated in-process and compared.
REPORTS_CHECKED = 8

#: Requests per second generated ahead of the window (above what a 2-core
#: host serves, so the client never generates inside it).
WARM_RATE = 4000
COLD_RATE = 500

_START_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 30.0


class Server:
    """One ``repro-serve`` process; the launcher wraps it when traced."""

    def __init__(self, work: Path, store: Path, traced: bool, tag: str) -> None:
        self.work = work
        self.store = store
        self.traced = traced
        self.port_file = work / f"{tag}.port"
        self.probe_out = work / f"{tag}.probe.json"
        self.ack = work / f"{tag}.ack"
        self.log = work / f"{tag}.log"
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def _command(self) -> List[str]:
        serve_args = [
            "--port", "0",
            "--port-file", str(self.port_file),
            "--store-dir", str(self.store),
        ]
        if not self.traced:
            return [sys.executable, "-m", "repro.serve.cli", *serve_args]
        return [
            sys.executable, "-m", "perfbench.launcher",
            "--probe-out", str(self.probe_out),
            "--ack", str(self.ack),
            "--", *serve_args,
        ]

    def start(self) -> float:
        """Spawn and wait for the first ``/healthz`` 200; returns seconds."""
        for path in (self.port_file, self.probe_out, self.ack):
            path.unlink(missing_ok=True)
        started = time.perf_counter()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                self._command(), cwd=ROOT, env=child_env(),
                stdout=subprocess.DEVNULL, stderr=log, preexec_fn=pin_server,
            )
        deadline = started + _START_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise BenchmarkError(
                    f"server exited with {self.proc.returncode}: "
                    + self.log.read_text(errors="replace")[-2000:]
                )
            if time.perf_counter() > deadline:
                raise BenchmarkError("server did not become healthy in time")
            if not self.port:
                try:
                    self.port = int(self.port_file.read_text())
                except (OSError, ValueError):
                    time.sleep(0.002)
                    continue
            try:
                status, _ = self.get("/healthz")
            except OSError:
                time.sleep(0.002)
                continue
            if status == 200:
                return time.perf_counter() - started

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def counters(self) -> Dict[str, float]:
        """The flat samples of ``/metrics`` (bucket and quantile lines skipped)."""
        status, body = self.get("/metrics")
        if status != 200:
            raise BenchmarkError(f"/metrics answered {status}")
        out: Dict[str, float] = {}
        for line in body.decode().splitlines():
            if line.startswith("#") or "{" in line:
                continue
            name, _, value = line.partition(" ")
            out[name] = float(value)
        return out

    def new_window(self) -> None:
        """Discard layer timings so far (traced runs only)."""
        if not self.traced:
            return
        self.ack.unlink(missing_ok=True)
        assert self.proc is not None
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + 10.0
        while not self.ack.exists():
            if time.perf_counter() > deadline:
                raise BenchmarkError("launcher did not acknowledge SIGUSR1")
            time.sleep(0.002)

    def stop(self) -> Optional[Dict[str, Any]]:
        """SIGTERM, wait, and return the launcher's layer dump if traced."""
        if self.proc is None:
            return None
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        self.port = 0
        if self.traced and self.probe_out.exists():
            return json.loads(self.probe_out.read_text())
        return None


def start_servers(
    work: Path, store_for: Callable[[int], Path], traced: bool
) -> Tuple[float, List[float], Server]:
    """Spawn :data:`~common.SETUPS` servers one after another; keep the last
    one running for traffic.  Returns ``setup_s``, the raw spawn times and
    the running server."""
    servers: List[Server] = []

    def start(i: int) -> float:
        if servers:
            servers[-1].stop()
        servers.append(Server(work, store_for(i), traced, tag=f"server{i}"))
        return servers[-1].start()

    try:
        setup_s, raw = timed_setups(start, "both")
    except BaseException:
        if servers:
            servers[-1].stop()
        raise
    return setup_s, raw, servers[-1]


# -- the closed loop ----------------------------------------------------------


@dataclass
class Reply:
    request: Request
    seconds: float
    status: int
    body: bytes
    done: float


class Connection:
    """A minimal keep-alive HTTP/1.1 client for pre-encoded requests.

    Leaner than ``http.client``, so on a 2-core host the client's own
    Python time stays small next to the server's.
    """

    def __init__(self, port: int) -> None:
        self.port = port
        self.sock: Optional[socket.socket] = None
        self.buffer = b""

    def connect(self) -> socket.socket:
        if self.sock is None:
            self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=60)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.buffer = b""
        return self.sock

    def send(self, request: Request) -> None:
        self.connect().sendall(request.wire)

    def feed(self) -> Optional[Tuple[int, bytes]]:
        """Read what has arrived; the reply once it is complete."""
        assert self.sock is not None
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("the server closed the connection")
        self.buffer += chunk
        end = self.buffer.find(b"\r\n\r\n")
        if end < 0:
            return None
        head = self.buffer[:end].decode("latin-1").split("\r\n")
        status = int(head[0].split(" ", 2)[1])
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        start = end + 4
        if len(self.buffer) < start + length:
            return None
        body = self.buffer[start:start + length]
        self.buffer = self.buffer[start + length:]
        return status, body

    def post(self, request: Request) -> Tuple[int, bytes]:
        self.send(request)
        while (reply := self.feed()) is None:
            pass
        return reply

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None


def closed_loop(
    port: int, requests: Iterator[Request], seconds: float
) -> Tuple[List[Reply], float]:
    """Drive :data:`CONNECTIONS` closed loops for ``seconds``.

    One thread multiplexes the connections, so the load generator has no
    lock or interpreter-lock hand-offs of its own inside a round trip.
    Returns the replies in completion order and the window length (first
    send to last reply).
    """
    clock = time.perf_counter
    selector = selectors.DefaultSelector()
    in_flight: Dict[Connection, Tuple[Request, float]] = {}
    replies: List[Reply] = []

    def launch(conn: Connection) -> None:
        fresh = conn.sock is None
        request = next(requests)
        in_flight[conn] = (request, clock())
        conn.send(request)
        if fresh:
            selector.register(conn.sock, selectors.EVENT_READ, conn)

    def drop(conn: Connection) -> None:
        selector.unregister(conn.sock)
        conn.close()

    started = clock()
    deadline = started + seconds
    try:
        for _ in range(CONNECTIONS):
            launch(Connection(port))
        while in_flight:
            events = selector.select(timeout=60)
            if not events:
                raise BenchmarkError("no reply from the server in 60 s")
            for key, _mask in events:
                conn = key.data
                try:
                    got = conn.feed()
                except (OSError, ValueError, IndexError):
                    got = (0, b"")
                if got is None:
                    continue
                request, sent = in_flight.pop(conn)
                done = clock()
                replies.append(Reply(request, done - sent, got[0], got[1], done))
                if got[0] == 0 or done >= deadline:
                    drop(conn)
                if done < deadline:
                    launch(conn)
    finally:
        for conn in in_flight:
            drop(conn)
        selector.close()
    return replies, (replies[-1].done if replies else clock()) - started


def touch(port: int, requests: List[Request]) -> int:
    """Send each request once, untimed; returns how many were not 200."""
    conn = Connection(port)
    try:
        return sum(conn.post(request)[0] != 200 for request in requests)
    finally:
        conn.close()


# -- correctness --------------------------------------------------------------


def expected_payload(request: Request) -> Dict[str, Any]:
    """What the server must answer, from an in-process cold solve."""
    from repro.core.solver import solve
    from repro.serve.protocol import parse_simulate_spec, parse_solve_spec, solution_payload

    if request.endpoint == "/simulate":
        spec = parse_simulate_spec(request.doc).solve
    else:
        spec = parse_solve_spec(request.doc)
    canonical, _op = spec.canonicalized()
    solution = solve(
        spec.pattern, shape=spec.shape, n_max=spec.n_max,
        objective=spec.objective, delta_max=spec.delta_max, cache=False,
    ).solution
    payload = solution_payload(solution, spec, canonical.canonical_digest())
    return json.loads(json.dumps(payload))


def simulate_inprocess(request: Request):
    """The work behind one ``/simulate``, without the transport."""
    from repro.core.mapping import BankMapping
    from repro.core.solver import solve
    from repro.serve.protocol import parse_simulate_spec
    from repro.sim.memsim import simulate_sweep

    sim = parse_simulate_spec(request.doc)
    spec = sim.solve
    solution = solve(
        spec.pattern, shape=spec.shape, n_max=spec.n_max,
        objective=spec.objective, delta_max=spec.delta_max, cache=False,
    ).solution
    mapping = BankMapping(solution=solution, shape=spec.shape)
    return simulate_sweep(
        mapping, step=sim.step, limit=sim.limit, ports_per_bank=sim.ports_per_bank,
        verify=sim.verify, engine=sim.engine,
    )


def check_replies(replies: List[Reply]) -> Tuple[int, List[str]]:
    """Count replies that failed or differ from the in-process answer.

    Identical requests must get byte-identical replies; each distinct
    request is compared once with :func:`expected_payload`.  Simulate
    reports must show the solution's own worst case (``δP + 1`` cycles),
    and the first few are re-simulated in-process and compared in full.
    """
    failed = 0
    problems: List[str] = []
    first: Dict[bytes, bytes] = {}
    reports_checked = 0

    def fail(message: str) -> None:
        nonlocal failed
        failed += 1
        if len(problems) < 20:
            problems.append(message)

    for reply in replies:
        request = reply.request
        if reply.status != 200:
            fail(f"{request.endpoint} answered {reply.status}: {reply.body[:200]!r}")
            continue
        seen = first.get(request.body)
        if seen is not None:
            if reply.body != seen:
                fail(f"{request.endpoint} reply differs from an earlier identical request")
            continue
        first[request.body] = reply.body
        served = json.loads(reply.body)
        report = served.pop("report", None)
        if served != expected_payload(request):
            fail(f"{request.endpoint} payload differs from in-process solve: {request.doc}")
            continue
        if request.endpoint != "/simulate":
            continue
        delta = served["solution"]["delta_ii"]
        if report is None or report["worst_cycles"] != delta + 1:
            fail(f"/simulate worst case is not delta_ii + 1: {request.doc}")
        elif reports_checked < REPORTS_CHECKED:
            reports_checked += 1
            if report != json.loads(json.dumps(simulate_inprocess(request).to_dict())):
                fail(f"/simulate report differs from in-process simulation: {request.doc}")
    return failed, problems


# -- workloads ----------------------------------------------------------------


def time_simulates(requests: List[Request]) -> List[float]:
    """In-process simulate latencies (ms), for workloads that serve none."""
    out = []
    for request in requests:
        started = time.perf_counter()
        simulate_inprocess(request)
        out.append((time.perf_counter() - started) * 1000.0)
    return out


def serve_layers(
    dump: Dict[str, Any],
    before: Dict[str, float],
    after: Dict[str, float],
    requests: int,
    mean_rt_us: float,
) -> Tuple[Dict[str, float], List[Tuple[str, float]]]:
    """Per-layer metrics and the request budget of one traced window."""
    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    attached = delta("repro_serve_coalesce_attached_total")
    scheduled = delta("repro_serve_coalesce_scheduled_total")
    hits = delta("repro_serve_store_hits_total")
    misses = delta("repro_serve_store_misses_total")
    batches = delta("repro_serve_batch_size_count")
    budget = layers.budget(dump, requests, mean_rt_us)
    metrics = layers.common_metrics(dump)
    metrics.update({
        "core.cache.canonicalize_per_req": layers.calls(dump, "core.cache.canonicalize") / requests,
        "serve.server.unaccounted_us": budget[-1][1],
        "serve.coalesce.attach_ratio": attached / (attached + scheduled) if attached + scheduled else 0.0,
        "serve.coalesce.batch_mean": delta("repro_serve_batch_size_sum") / batches if batches else 0.0,
        "serve.store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "core.solver.cold_solves": delta("repro_solve_cold_ms_count"),
        "baselines.ltb.vectors_tried": 0,
    })
    return metrics, budget


def _run_served(
    work: Path,
    store_for: Callable[[int], Path],
    traced: bool,
    seconds: float,
    warmup: List[Request],
    traffic: Iterator[Request],
    between: Callable[[int], None],
) -> Dict[str, Any]:
    setup_s, setups, server = start_servers(work, store_for, traced)
    segments: List[List[Reply]] = []
    segment_s: List[float] = []

    def segment(i: int) -> None:
        replies, window_s = closed_loop(server.port, traffic, seconds / SEGMENTS)
        segments.append(replies)
        segment_s.append(window_s)
        between(i)

    # The pre-generated requests are long-lived: keep them out of the
    # collector's way so client-side GC pauses do not land in round trips.
    gc.collect()
    gc.freeze()
    try:
        warm_bad = touch(server.port, warmup)
        before = server.counters()
        server.new_window()
        speeds = calibrated(SEGMENTS, segment)
        after = server.counters()
    finally:
        gc.unfreeze()
        dump = server.stop()
    return {
        "setup_s": setup_s,
        "setups": setups,
        "segments": segments,
        "segment_s": segment_s,
        "speeds": speeds,
        "warmup_failed": warm_bad,
        "dump": dump,
        "before": before,
        "after": after,
    }


def _latency_metrics(
    segments: List[List[Reply]], segment_s: List[float], speeds: List[Speed]
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Round-trip percentiles over every reply of the window, and replies
    per second of the window; each time scaled by its segment's host speed."""
    def round_trips(endpoint: str, metric: str) -> List[float]:
        return [
            r.seconds * 1000.0 * factor(speed, "both", metric)
            for segment, speed in zip(segments, speeds)
            for r in segment
            if r.request.endpoint == endpoint
        ]

    solve_ms = round_trips("/solve", "solve_p50_ms")
    sim_ms = round_trips("/simulate", "simulate_p50_ms")
    window_s = sum(s * factor(speed, "both", "rps") for s, speed in zip(segment_s, speeds))
    metrics = {
        "solve_p50_ms": median(solve_ms),
        "solve_p99_ms": p99(solve_ms),
        "rps": sum(len(segment) for segment in segments) / window_s,
    }
    counts = {"solve": len(solve_ms)}
    if sim_ms:
        metrics["simulate_p50_ms"] = median(sim_ms)
        metrics["simulate_p95_ms"] = p95(sim_ms)
        counts["simulate"] = len(sim_ms)
    return metrics, counts


def serve_warm(
    work: Path, seed: int, seconds: float, traced: bool, between: Callable[[int], None]
) -> Dict[str, Any]:
    """Repeated keys over a pre-populated store: every request is a hit."""
    keys = warm_keys(seed)
    store = work / "warm-store"
    populate = Server(work, store, traced=False, tag="populate")
    try:
        populate.start()
        if touch(populate.port, keys):
            raise BenchmarkError("populating the warm store failed")
    finally:
        populate.stop()

    sequence = zipf_sequence(len(keys), int(WARM_RATE * seconds), seed)
    traffic = (keys[index] for index in itertools.cycle(sequence))
    run = _run_served(work, lambda _i: store, traced, seconds, keys, traffic, between)
    return _finish_served(run, traced, extra={"keys": len(keys)})


def serve_cold(
    work: Path, seed: int, seconds: float, traced: bool, between: Callable[[int], None]
) -> Dict[str, Any]:
    """Distinct specs on an empty store: every solve is cold plus a write."""
    specs = iter(ColdSpecs(seed))
    warmup = list(itertools.islice(specs, 16))
    # Generated up front so the client does no spec work inside the window;
    # the lazy tail only serves a host faster than COLD_RATE.
    ready = list(itertools.islice(specs, int(COLD_RATE * seconds)))
    traffic = itertools.chain(ready, specs)
    run = _run_served(
        work, lambda i: work / f"cold-store{i}", traced, seconds, warmup, traffic, between
    )
    return _finish_served(run, traced, extra={})


def _raw_median(segment: List[Reply], endpoint: str) -> Optional[float]:
    times = [r.seconds * 1000.0 for r in segment if r.request.endpoint == endpoint]
    return median(times) if times else None


def _finish_served(run: Dict[str, Any], traced: bool, extra: Dict[str, Any]) -> Dict[str, Any]:
    replies = [r for segment in run["segments"] for r in segment]
    metrics, counts = _latency_metrics(run["segments"], run["segment_s"], run["speeds"])
    metrics["setup_s"] = run["setup_s"]
    raw, _ = _latency_metrics(run["segments"], run["segment_s"], unit_speeds(SEGMENTS))
    raw["setup_s"] = median(run["setups"])
    failed, problems = check_replies(replies)
    failed += run["warmup_failed"]
    result: Dict[str, Any] = {
        "e2e": metrics,
        "raw": raw,
        "speeds": run["speeds"],
        "slots": [
            {
                "seconds": seconds,
                "replies": len(segment),
                "solve_p50_ms": _raw_median(segment, "/solve"),
                "simulate_p50_ms": _raw_median(segment, "/simulate"),
            }
            for segment, seconds in zip(run["segments"], run["segment_s"])
        ],
        "samples": dict(counts, setup=len(run["setups"]), requests=len(replies)),
        "attempted": len(replies),
        "failed": failed,
        "problems": problems,
        "extra": dict(extra, window_s=sum(run["segment_s"])),
    }
    if traced:
        if run["dump"] is None:
            raise BenchmarkError("the traced server left no layer dump")
        mean_rt_us = sum(r.seconds for r in replies) / len(replies) * 1e6
        layer_metrics, budget = serve_layers(
            run["dump"], run["before"], run["after"], len(replies), mean_rt_us
        )
        result["layers"] = layer_metrics
        result["budget"] = budget
        result["mean_rt_us"] = mean_rt_us
    return result
