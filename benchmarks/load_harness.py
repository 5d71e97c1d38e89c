"""Load harness for the serving layer: replay concurrent mixed traffic
against a live ``python -m repro serve`` instance and gate the result.

What it does:

* fires ``--requests`` requests from ``--concurrency`` keep-alive client
  threads at a fixed deterministic traffic mix — single-protocol
  ``/v1/process`` (JSON and ``schema:1b`` binary), the 4-protocol
  ``/v1/sweep`` batch, and ``/v1/parse`` diagnostics — after a short
  warmup phase that is measured but not scored;
* records per-request wall latency and derives p50/p99, sustained
  sentences/s (every response says how many corpus sentences it covered),
  and error/timeout counts;
* checks one JSON/binary equivalence pair in-band: the same
  ``ProcessRequest`` sent under both envelopes must decode to equal
  ``ProcessResponse`` objects (``from_json(json) == from_bytes(bin)``);
* with ``--expect-warm``: reads ``GET /stats`` afterwards and requires
  the aggregate parse cache to show **zero misses** and at least one
  disk hit — the cross-process warm-start criterion, observed through
  the server;
* gates: p99 ≤ ``--p99-ceiling``, zero non-timeout errors, and sustained
  warm throughput ≥ ``--min-throughput-fraction`` (default ½) of the
  in-process ``api_sweep_warm_sentences_per_s`` recorded in
  ``BENCH_pipeline.json`` by ``pipeline_smoke.py`` — the serving layer
  may cost at most half the in-process throughput;
* merges its numbers into ``BENCH_pipeline.json`` under ``serve_*`` keys
  plus a bounded per-SHA ``serve_history`` array (suppress with
  ``--no-write``).

Run (against an already-running server)::

    PYTHONPATH=src python -m repro serve --port 8742 &
    PYTHONPATH=src python benchmarks/load_harness.py --url http://127.0.0.1:8742

``scripts/ci.sh serve-gate`` boots the server (twice, sharing one cache
directory, so the second boot proves disk warm-start), runs this
harness, and tears everything down.
"""

import argparse
import json
import pathlib
import subprocess
import sys
import threading
import time
import urllib.parse
from http.client import HTTPConnection

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_pipeline.json"

BINARY_CONTENT_TYPE = "application/x-repro-bin"

#: The replayed mix, cycled deterministically.  Weights are implicit in
#: repetition: mostly cheap single-protocol traffic, a steady drizzle of
#: batch sweeps and parse diagnostics.
TRAFFIC_MIX = (
    ("process-icmp", "POST", "/v1/process",
     {"protocol": "ICMP", "include_sentences": False}, "json"),
    ("process-bfd", "POST", "/v1/process",
     {"protocol": "BFD", "include_sentences": False}, "json"),
    ("process-icmp-bin", "POST", "/v1/process",
     {"protocol": "ICMP", "include_sentences": False}, "bin"),
    ("sweep", "POST", "/v1/sweep", {"include_sentences": False}, "json"),
    ("process-ntp", "POST", "/v1/process",
     {"protocol": "NTP", "include_sentences": False}, "json"),
    ("parse-icmp", "GET", "/v1/parse/ICMP", None, "json"),
    ("process-igmp", "POST", "/v1/process",
     {"protocol": "IGMP", "include_sentences": False}, "json"),
    ("process-bfd-bin", "POST", "/v1/process",
     {"protocol": "BFD", "include_sentences": False}, "bin"),
)


def _request_body(fields: dict | None, wire: str) -> tuple[bytes, dict]:
    """(body, headers) for one mix entry under the chosen envelope."""
    if fields is None:
        return b"", {}
    if wire == "bin":
        from repro.api.binenc import to_bytes
        from repro.api.contracts import ProcessRequest

        body = to_bytes(ProcessRequest(**fields))
        return body, {"Content-Type": BINARY_CONTENT_TYPE,
                      "Accept": BINARY_CONTENT_TYPE}
    return json.dumps(fields).encode("utf-8"), {}


def _sentences_in(label: str, wire: str, body: bytes) -> int:
    """How many corpus sentences this response covered (throughput unit)."""
    try:
        if wire == "bin":
            from repro.api.binenc import from_bytes

            response = from_bytes(body)
            return response.sentence_count
        payload = json.loads(body.decode("utf-8"))
        data = payload["data"]
        if payload.get("kind") == "sweep_response":
            return sum(item["sentence_count"]
                       for item in data["responses"].values())
        return data["sentence_count"]
    except Exception:
        return 0


class _Client(threading.Thread):
    """One keep-alive connection replaying its share of the schedule."""

    def __init__(self, host: str, port: int, schedule: list, cursor: dict,
                 lock: threading.Lock, records: list,
                 timeout: float) -> None:
        super().__init__(daemon=True)
        self.host, self.port, self.timeout = host, port, timeout
        self.schedule, self.cursor, self.lock = schedule, cursor, lock
        self.records = records

    def run(self) -> None:
        conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            while True:
                with self.lock:
                    index = self.cursor["next"]
                    if index >= len(self.schedule):
                        return
                    self.cursor["next"] = index + 1
                label, method, path, body, headers, wire = self.schedule[index]
                started = time.perf_counter()
                try:
                    conn.request(method, path, body=body or None,
                                 headers=headers)
                    response = conn.getresponse()
                    payload = response.read()
                    status = response.status
                except Exception:
                    # connection-level failure: reconnect, record a hard error
                    conn.close()
                    conn = HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
                    status, payload = 0, b""
                elapsed = time.perf_counter() - started
                sentences = (_sentences_in(label, wire, payload)
                             if status == 200 else 0)
                with self.lock:
                    self.records.append((index, label, status, elapsed,
                                         sentences))
        finally:
            conn.close()


def _quantile(sorted_values: list, fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                max(0, round(fraction * (len(sorted_values) - 1))))
    return sorted_values[index]


def _get(host: str, port: int, path: str, timeout: float) -> tuple[int, bytes]:
    conn = HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _check_envelope_equivalence(host: str, port: int,
                                timeout: float) -> bool:
    """The same request under both envelopes must decode to equal objects."""
    from repro.api.binenc import from_bytes, to_bytes
    from repro.api.contracts import ProcessRequest, from_json

    request = ProcessRequest(protocol="ICMP", include_sentences=True)
    conn = HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("POST", "/v1/process", body=to_json_body(request))
        json_response = conn.getresponse()
        json_body = json_response.read()
        if json_response.status != 200:
            return False
        conn.request("POST", "/v1/process", body=to_bytes(request),
                     headers={"Content-Type": BINARY_CONTENT_TYPE,
                              "Accept": BINARY_CONTENT_TYPE})
        bin_response = conn.getresponse()
        bin_body = bin_response.read()
        if bin_response.status != 200:
            return False
    finally:
        conn.close()
    return from_json(json_body.decode("utf-8")) == from_bytes(bin_body)


def to_json_body(request) -> bytes:
    from repro.api.contracts import to_json

    return to_json(request).encode("utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", required=True,
                        help="base URL of a running repro server")
    parser.add_argument("--requests", type=int, default=64,
                        help="measured requests to replay (default: 64)")
    parser.add_argument("--warmup", type=int, default=8,
                        help="unscored warmup requests (default: 8)")
    parser.add_argument("--concurrency", type=int, default=4,
                        help="concurrent client connections (default: 4)")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="per-request client timeout (default: 120s)")
    parser.add_argument("--p99-ceiling", type=float, default=10.0,
                        metavar="SECONDS",
                        help="fail if p99 latency exceeds this (default: 10)")
    parser.add_argument("--min-throughput-fraction", type=float, default=0.5,
                        help="fail if sustained sentences/s falls below this "
                             "fraction of the in-process warm sweep number "
                             "from BENCH_pipeline.json (default: 0.5)")
    parser.add_argument("--expect-warm", action="store_true",
                        help="require /stats to show zero parse misses and "
                             ">0 disk hits after the replay (warm-start gate)")
    parser.add_argument("--no-write", action="store_true",
                        help="do not update BENCH_pipeline.json")
    args = parser.parse_args()

    parsed = urllib.parse.urlparse(args.url)
    host, port = parsed.hostname, parsed.port or 80

    # Build the full deterministic schedule: warmup then measured.
    schedule = []
    for index in range(args.warmup + args.requests):
        label, method, path, fields, wire = TRAFFIC_MIX[index % len(TRAFFIC_MIX)]
        body, headers = _request_body(fields, wire)
        schedule.append((label, method, path, body, headers, wire))

    status_code, _body = _get(host, port, "/healthz", args.timeout)
    if status_code != 200:
        print(f"LOAD FAILURE: /healthz answered {status_code}",
              file=sys.stderr)
        return 1

    records: list = []
    cursor = {"next": 0}
    lock = threading.Lock()
    started = time.perf_counter()
    clients = [_Client(host, port, schedule, cursor, lock, records,
                       args.timeout)
               for _ in range(args.concurrency)]
    for client in clients:
        client.start()
    for client in clients:
        client.join()
    wall_s = time.perf_counter() - started

    measured = [r for r in records if r[0] >= args.warmup]
    latencies = sorted(r[3] for r in measured)
    ok = [r for r in measured if r[2] == 200]
    timeouts = [r for r in measured if r[2] == 504]
    hard_errors = [r for r in measured if r[2] not in (200, 504)]
    sentences_total = sum(r[4] for r in measured)
    # Sustained throughput over the measured phase: the warmup requests
    # interleave at the start, so scale wall time by the measured share.
    measured_wall_s = wall_s * (len(measured) / max(len(records), 1))
    sentences_per_s = sentences_total / measured_wall_s if measured_wall_s else 0.0

    envelopes_equal = _check_envelope_equivalence(host, port, args.timeout)

    numbers = {
        "serve_url": args.url,
        "serve_requests": len(measured),
        "serve_concurrency": args.concurrency,
        "serve_wall_s": measured_wall_s,
        "serve_p50_s": _quantile(latencies, 0.50),
        "serve_p99_s": _quantile(latencies, 0.99),
        "serve_sentences_per_s": sentences_per_s,
        "serve_ok": len(ok),
        "serve_timeouts": len(timeouts),
        "serve_hard_errors": len(hard_errors),
        "serve_envelopes_equal": envelopes_equal,
    }

    baseline = None
    bench = {}
    if BENCH_PATH.exists():
        try:
            bench = json.loads(BENCH_PATH.read_text())
            baseline = bench.get("api_sweep_warm_sentences_per_s")
        except (json.JSONDecodeError, OSError):
            bench = {}
    numbers["serve_throughput_baseline"] = baseline
    numbers["serve_throughput_fraction"] = (
        (sentences_per_s / baseline) if baseline else None
    )

    warm = None
    if args.expect_warm:
        status_code, body = _get(host, port, "/stats", args.timeout)
        if status_code == 200:
            aggregate = json.loads(body.decode("utf-8"))["data"]["service"]
            parse = aggregate["parse_cache"]
            warm = {"misses": parse.get("misses"),
                    "disk_hits": parse.get("disk_hits", 0)}
        numbers["serve_warm_stats"] = warm

    print(json.dumps(numbers, indent=2))

    failures = []
    if hard_errors:
        sample = hard_errors[0]
        failures.append(
            f"{len(hard_errors)} non-timeout request failures "
            f"(first: {sample[1]} answered {sample[2]})"
        )
    if timeouts:
        failures.append(f"{len(timeouts)} requests hit the server deadline "
                        "(504)")
    if numbers["serve_p99_s"] > args.p99_ceiling:
        failures.append(
            f"p99 latency {numbers['serve_p99_s']:.3f}s exceeds the "
            f"{args.p99_ceiling:.3f}s ceiling"
        )
    if not envelopes_equal:
        failures.append("JSON and binary envelope responses did not decode "
                        "to equal objects")
    if baseline:
        floor = baseline * args.min_throughput_fraction
        if sentences_per_s < floor:
            failures.append(
                f"sustained {sentences_per_s:.1f} sentences/s is below "
                f"{args.min_throughput_fraction:.0%} of the in-process warm "
                f"sweep baseline ({baseline:.1f}/s, floor {floor:.1f}/s)"
            )
    else:
        print("note: no api_sweep_warm_sentences_per_s baseline in "
              f"{BENCH_PATH.name}; throughput gate skipped", file=sys.stderr)
    if args.expect_warm:
        if warm is None:
            failures.append("--expect-warm: /stats was unreadable")
        elif warm["misses"] != 0:
            failures.append(
                f"--expect-warm: {warm['misses']} parse misses through the "
                "server (the shared cache directory did not warm-start it)"
            )
        elif not warm["disk_hits"]:
            failures.append("--expect-warm: zero disk hits — the server "
                            "never read the shared cache directory")

    if not args.no_write:
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
                capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            sha = "unknown"
        history = [entry for entry in bench.get("serve_history", [])
                   if entry.get("sha") != sha]
        history.append({
            "sha": sha,
            "serve_p50_s": numbers["serve_p50_s"],
            "serve_p99_s": numbers["serve_p99_s"],
            "serve_sentences_per_s": numbers["serve_sentences_per_s"],
            "serve_throughput_fraction": numbers["serve_throughput_fraction"],
        })
        bench.update(numbers)
        bench["serve_history"] = history[-50:]
        BENCH_PATH.write_text(json.dumps(bench, indent=2) + "\n")
        print(f"updated {BENCH_PATH}", file=sys.stderr)

    if failures:
        for failure in failures:
            print(f"LOAD FAILURE: {failure}", file=sys.stderr)
        return 1
    print(f"load gates passed: p50 {numbers['serve_p50_s']*1000:.0f}ms, "
          f"p99 {numbers['serve_p99_s']*1000:.0f}ms, "
          f"{sentences_per_s:.0f} sentences/s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
