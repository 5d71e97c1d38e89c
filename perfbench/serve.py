"""The open-loop serving workload against ``python -m repro serve``.

The server runs its default pool (one fork worker per CPU) on an
ephemeral port over its own warm store.  One generator process sends
requests on a seeded Poisson schedule over at most ``nproc`` keep-alive
connections: a dispatcher thread releases each request at its due time
and connection threads send them as soon as a connection is free.  Every
request is timed from its due time, so a stall shows up in the latency of
every request it delayed.  The generator also records how late it
released each request; a rate step whose generator fell behind is
invalid, not slow.

A measured run has three phases: 50 rps (the bounded latency and CPU
figures), 250 rps (latency under load) and a stepped ramp from 200 rps
for ``max_rps``, the highest rate whose p99 stays within 100 ms with no
growing backlog.
"""

from __future__ import annotations

import json
import os
import queue
import random
import re
import socket
import subprocess
import sys
import threading
import time

from . import common
from .workloads import PROTOCOLS

BINARY = "application/x-repro-bin"
LOW_RPS = 50.0
HIGH_RPS = 250.0
#: Latency limit for the capacity ramp, on the p99 of each step.
LIMIT_S = 0.100
#: Generator lateness beyond which a step is invalid.
LAG_LIMIT_S = 0.010
#: The capacity ramp: first rate, growth per step (steps stay <= 10%
#: apart) and step length.
RAMP_START_RPS = 200.0
RAMP_STEP = 1.10
RAMP_STEP_S = 0.5
#: Calibration cadence during a phase, and the idle gap one needs.
CALIBRATE_EVERY_S = 0.25
CALIBRATE_GAP_S = 0.030
CONNECTIONS = min(os.cpu_count() or 1, 2)


class Kind:
    """One request kind: what is sent and the body it must come back with.

    ``copies`` is how many times the kind appears in each shuffled block
    of the mix, so every run sends the same proportions."""

    def __init__(self, label, method, path, body=b"", headers=None,
                 copies=1):
        self.label = label
        self.method = method
        self.path = path
        self.body = body
        self.headers = headers or {}
        self.copies = copies
        self.expected = b""
        head = [f"{method} {path} HTTP/1.1", "Host: localhost",
                f"Content-Length: {len(body)}"]
        head += [f"{name}: {value}" for name, value in self.headers.items()]
        self.wire = ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


def request_kinds() -> list[Kind]:
    """The mix, per block of 34: 32 /v1/process (4 protocols x JSON and
    schema:1b, 94%), one /v1/sweep with wire defaults and one strict-mode
    ICMP flagged report (3% each)."""
    from repro.api.binenc import to_bytes
    from repro.api.contracts import ProcessRequest

    kinds = []
    for protocol in PROTOCOLS:
        fields = {"protocol": protocol, "include_sentences": False}
        kinds.append(Kind(f"process-{protocol}-json", "POST", "/v1/process",
                          json.dumps(fields).encode(), copies=4))
        kinds.append(Kind(f"process-{protocol}-bin", "POST", "/v1/process",
                          to_bytes(ProcessRequest(**fields)),
                          {"Content-Type": BINARY, "Accept": BINARY},
                          copies=4))
    kinds.append(Kind("sweep-defaults", "POST", "/v1/sweep", b"{}"))
    kinds.append(Kind("session-icmp-strict", "GET",
                      "/v1/session/ICMP/flagged?mode=strict"))
    return kinds


def expected_bodies(kinds: list[Kind], store: str) -> None:
    """Fill each kind's expected body from the in-process ``run_endpoint``
    over a fresh registry on the same warm store, and check that the JSON
    and ``schema:1b`` answers decode to equal objects."""
    from repro.api import SageService
    from repro.api.binenc import from_bytes
    from repro.api.contracts import from_json
    from repro.rfc.registry import ProtocolRegistry
    from repro.server.pool import run_endpoint

    service = SageService(registry=ProtocolRegistry(cache_dir=store))
    for kind in kinds:
        if kind.path.startswith("/v1/session/"):
            status, _type, body = run_endpoint(
                service, "session",
                params={"protocol": "ICMP", "pending": False,
                        "mode": "strict"})
        else:
            status, _type, body = run_endpoint(
                service, kind.path.rsplit("/", 1)[1], kind.body,
                binary_in=kind.headers.get("Content-Type") == BINARY,
                binary_out=kind.headers.get("Accept") == BINARY)
        if status != 200:
            raise RuntimeError(f"{kind.label}: in-process status {status}")
        kind.expected = body
    by_label = {kind.label: kind for kind in kinds}
    for protocol in PROTOCOLS:
        as_json = from_json(by_label[f"process-{protocol}-json"]
                            .expected.decode("utf-8"))
        as_bin = from_bytes(by_label[f"process-{protocol}-bin"].expected)
        if as_json != as_bin:
            raise RuntimeError(f"{protocol}: JSON and schema:1b disagree")


class Server:
    """One ``repro serve`` process tree on an ephemeral port."""

    def __init__(self, store: str, trace_dir: str | None = None) -> None:
        if trace_dir is None:
            entry = ["-m", "repro"]
        else:
            entry = [str(common.BENCH_DIR / "traced_main.py"),
                     "--trace-dir", trace_dir]
        self.proc = subprocess.Popen(
            [sys.executable, *entry, "serve", "--port", "0",
             "--cache-dir", store],
            cwd=str(common.ROOT),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        line = self._first_line(timeout=60.0)
        match = re.search(r"http://([\d.]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def _first_line(self, timeout: float) -> str:
        result: list[bytes] = []
        reader = threading.Thread(
            target=lambda: result.append(self.proc.stdout.readline()),
            daemon=True)
        reader.start()
        reader.join(timeout)
        return result[0].decode("utf-8", "replace") if result else ""

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process plus its workers."""
        pids = [self.proc.pid, *common.child_pids(self.proc.pid)]
        return sum(common.vm_hwm_mb(pid) for pid in pids)

    def cpu_seconds(self) -> float:
        """CPU time used so far by the server and its workers, including
        the sweep fan-out processes the workers have reaped."""
        return (common.cpu_seconds(self.proc.pid, reaped_children=False)
                + sum(common.cpu_seconds(pid, reaped_children=True)
                      for pid in common.child_pids(self.proc.pid)))

    def stop(self) -> None:
        common.stop_process_tree(self.proc)
        self.proc.stdout.close()


class Record:
    __slots__ = ("kind", "due", "released", "sent", "done", "ok")

    def __init__(self, kind: Kind, due: float) -> None:
        self.kind = kind
        self.due = due
        self.released = self.sent = self.done = 0.0
        self.ok = False


class Connection:
    """A minimal HTTP/1.1 keep-alive client: pre-encoded requests out,
    ``Content-Length`` bodies in.  Far cheaper per request than
    ``http.client``, so the generator takes less CPU from the server."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.pending = b""

    def roundtrip(self, wire: bytes) -> tuple[int, bytes]:
        self.sock.sendall(wire)
        data = self.pending
        while b"\r\n\r\n" not in data:
            data += self._recv()
        head, _sep, data = data.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _colon, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(data) < length:
            data += self._recv()
        self.pending = data[length:]
        return status, data[:length]

    def _recv(self) -> bytes:
        chunk = self.sock.recv(262144)
        if not chunk:
            raise ConnectionError("server closed the connection")
        return chunk

    def close(self) -> None:
        self.sock.close()


def _exchange(conn: Connection, record: Record, host: str,
              port: int) -> Connection:
    """Send one request and check its answer; returns the connection to
    use next (a fresh one after a transport failure)."""
    record.sent = time.perf_counter()
    kind = record.kind
    try:
        status, body = conn.roundtrip(kind.wire)
        record.ok = status == 200 and body == kind.expected
    except (OSError, ValueError) as exc:
        print(f"serve_warm: {kind.label} failed: {exc}", file=sys.stderr)
        conn.close()
        conn = Connection(host, port)
    record.done = time.perf_counter()
    return conn


def _connection_loop(host, port, work: queue.Queue) -> None:
    conn = Connection(host, port)
    try:
        while True:
            record = work.get()
            if record is None:
                return
            conn = _exchange(conn, record, host, port)
    finally:
        conn.close()


def run_schedule(server: Server, schedule: list[tuple[float, Kind]],
                 max_backlog: int | None = None,
                 speeds: list | None = None) -> list[Record]:
    """Send ``(offset seconds, kind)`` requests on schedule; every record
    is complete when this returns.  With ``max_backlog``, release stops
    once that many released requests wait for a connection (the server
    is past capacity and the rest of the schedule would only queue).

    With ``speeds``, the dispatcher appends ``(time, speed factor)`` from a
    calibration loop about every CALIBRATE_EVERY_S, only while no request
    is in flight and the next one is not due for a while, so the loop
    never delays a request."""
    work: queue.Queue = queue.Queue()
    threads = [threading.Thread(target=_connection_loop,
                                args=(server.host, server.port, work))
               for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    start = time.perf_counter() + 0.01
    records = []
    oldest = 0
    calibrated = 0.0
    try:
        for offset, kind in schedule:
            if max_backlog is not None and work.qsize() > max_backlog:
                break
            due = start + offset
            while (speeds is not None
                   and time.perf_counter() - calibrated > CALIBRATE_EVERY_S):
                now = time.perf_counter()
                if due - now <= CALIBRATE_GAP_S:
                    break
                while oldest < len(records) and records[oldest].done:
                    oldest += 1
                if oldest == len(records):
                    speeds.append((now, common.speed_factor()))
                    calibrated = now
                else:
                    time.sleep(0.002)
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            record = Record(kind, due)
            record.released = time.perf_counter()
            records.append(record)
            work.put(record)
    finally:
        for _ in threads:
            work.put(None)
        for thread in threads:
            thread.join()
    return records


def kind_stream(rng: random.Random, kinds: list[Kind]):
    """Kinds from shuffled blocks that each hold every kind ``copies``
    times, so any run sends the mix in the same proportions."""
    while True:
        block = [kind for kind in kinds for _copy in range(kind.copies)]
        rng.shuffle(block)
        yield from block


def poisson_schedule(rng: random.Random, kinds: list[Kind], rate: float,
                     seconds: float, offset: float = 0.0):
    """Poisson arrivals at ``rate`` over ``seconds``, from the mix."""
    stream = kind_stream(rng, kinds)
    schedule = []
    at = rng.expovariate(rate)
    while at < seconds:
        schedule.append((offset + at, next(stream)))
        at += rng.expovariate(rate)
    return schedule


def latencies(records: list[Record]) -> list[float]:
    """Due-to-done latency; a failed request counts as missing any limit."""
    return [(r.done - r.due) if r.ok else float("inf") for r in records]


class ServeWarm:
    """The serving path on a warm store (see module docstring)."""

    name = "serve_warm"

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.server: Server | None = None
        self.trace_dir: str | None = None

    def setup(self) -> None:
        from repro.api import SageService
        from repro.api.contracts import SweepRequest
        from repro.rfc.registry import ProtocolRegistry

        self.store = common.fresh_dir("serve-store")
        service = SageService(registry=ProtocolRegistry(cache_dir=self.store))
        service.sweep(SweepRequest(parallel=False))
        service.session("ICMP", mode="strict").flagged()
        self.kinds = request_kinds()
        expected_bodies(self.kinds, self.store)
        self.boot()

    def boot(self, trace_dir: str | None = None) -> None:
        """Start a server and warm both workers with every request kind."""
        self.server = Server(self.store, trace_dir)
        # Pairs of identical requests due together keep both connections,
        # and so both workers, busy: each worker sees every kind.
        warmup = [(0.02 * i, kind)
                  for i, kind in enumerate(self.kinds * 3)
                  for _copy in range(CONNECTIONS)]
        records = run_schedule(self.server, warmup)
        if not all(record.ok for record in records):
            raise RuntimeError("serve_warm warm-up got a wrong answer")

    def phase(self, rate: float, seconds: float,
              speeds: list | None = None) -> list[Record]:
        return run_schedule(self.server, poisson_schedule(
            self.rng, self.kinds, rate, seconds), speeds=speeds)

    def ramp(self, seconds: float) -> tuple[float, list[dict]]:
        """Step the rate up from RAMP_START_RPS by RAMP_STEP until a step
        misses the limit, builds a backlog or finds the generator late."""
        steps = []
        best = 0.0
        rate = RAMP_START_RPS
        schedule = []
        offset = 0.0
        while offset + RAMP_STEP_S <= seconds:
            schedule.append((rate, offset, poisson_schedule(
                self.rng, self.kinds, rate, RAMP_STEP_S, offset)))
            offset += RAMP_STEP_S
            rate *= RAMP_STEP
        flat = [item for _rate, _offset, items in schedule for item in items]
        if not flat:
            return best, steps
        records = run_schedule(self.server, flat, max_backlog=50)
        start = records[0].due - flat[0][0]
        cursor = 0
        for rate, offset, items in schedule:
            step = records[cursor:cursor + len(items)]
            cursor += len(items)
            if len(step) < len(items):
                steps.append({"rps": rate, "requests": len(step),
                              "passed": False, "reason": "backlog"})
                break
            step_end = start + offset + RAMP_STEP_S
            p99 = common.quantile(latencies(step), 0.99)
            lag = max(r.released - r.due for r in step)
            backlog = sum(1 for r in step if r.sent > step_end)
            valid = lag <= LAG_LIMIT_S
            passed = (valid and p99 <= LIMIT_S
                      and backlog <= CONNECTIONS)
            steps.append({"rps": rate, "requests": len(step), "p99_ms":
                          p99 * 1000, "lag_ms": lag * 1000,
                          "backlog": backlog, "valid": valid,
                          "passed": passed})
            if not passed:
                break
            best = rate
        return best, steps

    def finish(self) -> bool:
        return True

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
