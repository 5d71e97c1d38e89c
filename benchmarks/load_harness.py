"""Load harness for the serving layer: replay mixed traffic against a
live ``python -m repro serve`` instance and gate it against an in-process
reference measured in the same run.

What it does:

* builds one deterministic schedule — ``WARMUP`` unscored requests,
  then ``REQUESTS`` measured ones — from a fixed traffic mix:
  single-protocol ``/v1/process`` (JSON and ``schema:1b`` binary), the
  4-protocol ``/v1/sweep`` batch, and ``/v1/parse`` diagnostics;
* replays it ``TRIALS`` times over one keep-alive connection.  Every
  request goes to the server and then, at once, through
  :func:`repro.server.pool.run_endpoint` on a service in this process
  over the server's own cache directory (read from ``GET /stats``), so
  the HTTP and in-process phases alternate request by request and see
  the same host.  Both score sentences/s over the measured requests
  (every response says how many corpus sentences it covered);
* prints per-trial sentences/s of both phases, the median HTTP /
  in-process ratio with its range, latency percentiles over every
  measured HTTP request (up to the highest one with at least
  ``TAIL_SAMPLES`` samples beyond it), and the host's ``cpu_count``;
* checks one JSON/binary equivalence pair in-band: the same
  ``ProcessRequest`` sent under both envelopes must decode to equal
  ``ProcessResponse`` objects.

Gates: zero non-timeout errors, zero 504s, p99 ≤ ``--p99-ceiling`` and
envelope equivalence.  With ``--expect-warm`` also: ``GET /stats`` shows
zero parse and winnow misses and at least one disk hit over the parse,
winnow and run layers (the cross-process warm start, observed through
the server), and the median HTTP / in-process ratio is at least
``MIN_HTTP_OVER_INPROCESS``.

The ratio is the share of a request's wall time that the service itself
spends, so both a slower request path and a worker doing more per
request lower it.  Responses carry their sentences (``include_sentences``)
so that share is about half: summaries alone leave it near a fifth,
where a worker doing twice its work moves the ratio less than the noise
does.  Requests are sequential because concurrent ones let the server
overlap worker time with its own, and the ratio would stop tracking it;
alternating per request rather than per phase keeps the host's speed
swings out of it.  The in-process service is built once and warmed by
the warmup requests, like a server worker.

Run (against an already-running server)::

    PYTHONPATH=src python -m repro serve --port 8742 --cache-dir /tmp/c &
    PYTHONPATH=src python benchmarks/load_harness.py --url http://127.0.0.1:8742

``scripts/ci.sh serve-gate`` boots the server (twice, sharing one cache
directory, so the second boot proves disk warm-start), runs this
harness, and tears everything down.
"""

import argparse
import gc
import json
import os
import statistics
import sys
import time
import urllib.parse
from http.client import HTTPConnection

from repro.api.binenc import from_bytes, to_bytes
from repro.api.contracts import ProcessRequest, from_json, to_json
from repro.api.service import ServiceConfig
from repro.server.pool import BINARY_CONTENT_TYPE, run_endpoint

#: Replays of the schedule per run, and its unscored and measured
#: requests; the ratio floor below was sized on these.
TRIALS = 10
WARMUP = 8
REQUESTS = 96
#: ``--expect-warm`` fails when the median HTTP / in-process sentences/s
#: ratio falls below this.  On 2 CPUs ten consecutive gate runs read
#: medians of 0.56-0.64, and a planted second ``run_endpoint`` call per
#: request reads 0.40-0.41.
MIN_HTTP_OVER_INPROCESS = 0.50
#: The reported tail percentile must have at least this many samples
#: beyond it.
TAIL_SAMPLES = 10
PERCENTILES = (50, 90, 95, 98, 99, 99.5, 99.9)

#: The replayed mix, cycled deterministically: (label, endpoint, protocol,
#: wire).  Weights are implicit in repetition: mostly single-protocol
#: traffic, a steady drizzle of batch sweeps and parse diagnostics.
TRAFFIC_MIX = (
    ("process-icmp", "process", "ICMP", "json"),
    ("process-bfd", "process", "BFD", "json"),
    ("process-icmp-bin", "process", "ICMP", "bin"),
    ("sweep", "sweep", None, "json"),
    ("process-ntp", "process", "NTP", "json"),
    ("parse-icmp", "parse", "ICMP", "json"),
    ("process-igmp", "process", "IGMP", "json"),
    ("process-bfd-bin", "process", "BFD", "bin"),
)


def _schedule(count: int) -> list[tuple]:
    """``count`` requests as (label, endpoint, params, body, binary, method,
    path, headers): the in-process call and its HTTP spelling."""
    schedule = []
    for index in range(count):
        label, endpoint, protocol, wire = TRAFFIC_MIX[index % len(TRAFFIC_MIX)]
        if endpoint == "parse":
            schedule.append((label, endpoint, {"protocol": protocol}, b"",
                             False, "GET", f"/v1/parse/{protocol}", {}))
            continue
        fields = {"include_sentences": True}
        if protocol:
            fields["protocol"] = protocol
        binary = wire == "bin"
        if binary:
            body = to_bytes(ProcessRequest(**fields))
            headers = {"Content-Type": BINARY_CONTENT_TYPE,
                       "Accept": BINARY_CONTENT_TYPE}
        else:
            body, headers = json.dumps(fields).encode("utf-8"), {}
        schedule.append((label, endpoint, {}, body, binary, "POST",
                         f"/v1/{endpoint}", headers))
    return schedule


def _sentences_in(binary: bool, body: bytes) -> int:
    """How many corpus sentences a response covered (throughput unit)."""
    try:
        if binary:
            return from_bytes(body).sentence_count
        payload = json.loads(body.decode("utf-8"))
        data = payload["data"]
        if payload.get("kind") == "sweep_response":
            return sum(item["sentence_count"]
                       for item in data["responses"].values())
        return data["sentence_count"]
    except Exception:
        return 0


def _trial(host: str, port: int, timeout: float, service,
           schedule: list) -> tuple[list, float, float]:
    """One replay, each request over HTTP and then in process: the measured
    HTTP requests as (label, status, latency_s), and the HTTP and
    in-process sentences/s."""
    records, http_s, local_s, http_n, local_n = [], 0.0, 0.0, 0, 0
    conn = HTTPConnection(host, port, timeout=timeout)
    try:
        for index, (label, endpoint, params, body, binary, method, path,
                    headers) in enumerate(schedule):
            started = time.perf_counter()
            try:
                conn.request(method, path, body=body or None, headers=headers)
                response = conn.getresponse()
                payload, status = response.read(), response.status
            except Exception:
                # connection-level failure: reconnect, record a hard error
                conn.close()
                conn = HTTPConnection(host, port, timeout=timeout)
                status, payload = 0, b""
            middle = time.perf_counter()
            local_status, _type, local_payload = run_endpoint(
                service, endpoint, body, binary_in=binary, binary_out=binary,
                params=params)
            ended = time.perf_counter()
            if index < WARMUP:
                continue
            records.append((label, status, middle - started))
            http_s += middle - started
            local_s += ended - middle
            http_n += _sentences_in(binary, payload) if status == 200 else 0
            local_n += (_sentences_in(binary, local_payload)
                        if local_status == 200 else 0)
    finally:
        conn.close()
    return records, http_n / http_s, local_n / local_s


def _nearest_rank(ordered: list, pct: float) -> float:
    return ordered[min(len(ordered) - 1, round(pct / 100 * (len(ordered) - 1)))]


def _percentiles(ordered: list) -> dict:
    """The median and every percentile with at least ``TAIL_SAMPLES``
    samples beyond it."""
    return {f"p{pct:g}": _nearest_rank(ordered, pct) for pct in PERCENTILES
            if len(ordered) * (100 - pct) / 100 >= TAIL_SAMPLES or pct == 50}


def _get_json(host: str, port: int, path: str, timeout: float) -> dict | None:
    conn = HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
    finally:
        conn.close()
    return json.loads(body.decode("utf-8")) if response.status == 200 else None


def _envelopes_equal(host: str, port: int, timeout: float) -> bool:
    """The same request under both envelopes must decode to equal objects."""
    request = ProcessRequest(protocol="ICMP", include_sentences=True)
    conn = HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("POST", "/v1/process",
                     body=to_json(request).encode("utf-8"))
        json_response = conn.getresponse()
        json_body = json_response.read()
        conn.request("POST", "/v1/process", body=to_bytes(request),
                     headers={"Content-Type": BINARY_CONTENT_TYPE,
                              "Accept": BINARY_CONTENT_TYPE})
        bin_response = conn.getresponse()
        bin_body = bin_response.read()
    finally:
        conn.close()
    if json_response.status != 200 or bin_response.status != 200:
        return False
    return from_json(json_body.decode("utf-8")) == from_bytes(bin_body)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", required=True,
                        help="base URL of a running repro server")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="per-request client timeout (default: 120s)")
    parser.add_argument("--p99-ceiling", type=float, default=10.0,
                        metavar="SECONDS",
                        help="fail if p99 latency exceeds this (default: 10)")
    parser.add_argument("--expect-warm", action="store_true",
                        help="require /stats to show zero parse and winnow "
                             "misses and >0 disk hits over the parse, winnow "
                             "and run layers, and gate the HTTP / in-process "
                             "throughput ratio")
    args = parser.parse_args()

    parsed = urllib.parse.urlparse(args.url)
    host, port = parsed.hostname, parsed.port or 80
    stats = _get_json(host, port, "/stats", args.timeout)
    if stats is None:
        print("LOAD FAILURE: /stats did not answer", file=sys.stderr)
        return 1
    cache_dir = stats["data"]["pool"]["cache_dir"]
    service = ServiceConfig(cache_dir=cache_dir).build_service()
    schedule = _schedule(WARMUP + REQUESTS)

    trials, records = [], []
    for _ in range(TRIALS):
        gc.collect()  # the last trial's garbage, off the clocks
        measured, http, local = _trial(host, port, args.timeout, service,
                                       schedule)
        records += measured
        trials.append({"http_sentences_per_s": http,
                       "inprocess_sentences_per_s": local,
                       "ratio": http / local})
    ratios = [trial["ratio"] for trial in trials]
    timeouts = [r for r in records if r[1] == 504]
    hard_errors = [r for r in records if r[1] not in (200, 504)]
    ordered = sorted(r[2] for r in records)
    latencies, p99 = _percentiles(ordered), _nearest_rank(ordered, 99)
    numbers = {
        "url": args.url, "cache_dir": cache_dir,
        "cpu_count": os.cpu_count() or 1,
        "trials": trials, "requests": len(records),
        "ratio_median": statistics.median(ratios),
        "ratio_range": [min(ratios), max(ratios)],
        "latency_s": latencies, "p99_s": p99,
        "timeouts": len(timeouts), "hard_errors": len(hard_errors),
        "envelopes_equal": _envelopes_equal(host, port, args.timeout),
    }

    warm = None
    if args.expect_warm:
        stats = _get_json(host, port, "/stats", args.timeout)
        if stats is not None:
            aggregate = stats["data"]["service"]
            warm = {
                "misses": sum(aggregate[layer].get("misses", 0)
                              for layer in ("parse_cache", "winnow_cache")),
                "disk_hits": sum(aggregate[layer].get("disk_hits", 0)
                                 for layer in ("parse_cache", "winnow_cache",
                                               "run_cache")),
            }
        numbers["warm_stats"] = warm

    print(json.dumps(numbers, indent=2))
    for index, trial in enumerate(trials, 1):
        print(f"trial {index}: http {trial['http_sentences_per_s']:.0f} vs "
              f"in-process {trial['inprocess_sentences_per_s']:.0f} "
              f"sentences/s (ratio {trial['ratio']:.2f})", file=sys.stderr)
    tail = list(latencies)[-1]
    print(f"median ratio {numbers['ratio_median']:.2f} (range "
          f"{min(ratios):.2f}-{max(ratios):.2f}) over {TRIALS} trials, "
          f"{len(records)} requests; {tail} {latencies[tail] * 1000:.1f} ms; "
          f"cpu_count {numbers['cpu_count']}", file=sys.stderr)

    failures = []
    if hard_errors:
        sample = hard_errors[0]
        failures.append(
            f"{len(hard_errors)} non-timeout request failures "
            f"(first: {sample[0]} answered {sample[1]})"
        )
    if timeouts:
        failures.append(f"{len(timeouts)} requests hit the server deadline "
                        "(504)")
    if p99 > args.p99_ceiling:
        failures.append(f"p99 latency {p99:.3f}s exceeds the "
                        f"{args.p99_ceiling:.3f}s ceiling")
    if not numbers["envelopes_equal"]:
        failures.append("JSON and binary envelope responses did not decode "
                        "to equal objects")
    if args.expect_warm:
        if numbers["ratio_median"] < MIN_HTTP_OVER_INPROCESS:
            failures.append(
                "median HTTP / in-process throughput ratio "
                f"{numbers['ratio_median']:.2f} is below "
                f"{MIN_HTTP_OVER_INPROCESS:g}"
            )
        if warm is None:
            failures.append("--expect-warm: /stats was unreadable")
        elif warm["misses"] != 0:
            failures.append(
                f"--expect-warm: {warm['misses']} parse/winnow misses "
                "through the server (the shared cache directory did not "
                "warm-start it)"
            )
        elif not warm["disk_hits"]:
            failures.append("--expect-warm: zero disk hits — the server "
                            "never read the shared cache directory")

    if failures:
        for failure in failures:
            print(f"LOAD FAILURE: {failure}", file=sys.stderr)
        return 1
    print("load gates passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
