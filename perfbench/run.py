"""Benchmark of record for the repro pipeline.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is one of ``cold_compile``, ``warm_boot``, ``serve_warm``,
``fuzz_campaign`` or ``all`` (every workload in turn, in one process).
The workloads drive the program only through its public entry points:
``SageEngine``, ``python -m repro``, the HTTP server and ``run_fuzz``.

With ``--trace 0`` a run prints its end-to-end metrics: ``setup_s`` (median
of three set-ups, two of them in fresh processes), ``peak_rss_mb``,
``p50_ms`` (the mean over operation kinds of each kind's median latency;
for ``serve_warm`` the eight ``/v1/process`` kinds at 50 rps) and
``cpu_ms`` (CPU time per operation; for ``serve_warm`` the server's and
its workers' CPU per request).  The three times are scaled to a reference
CPU speed with a calibration loop run next to each measurement (see
``common.speed_factor``); the raw figures, the tail percentiles,
throughputs and ``max_rps`` are printed as text lines.

With ``--trace 1`` it measures half the time untraced and half with every
layer wrapped (see ``perfbench/tracer.py``) and prints the per-layer
metrics, per operation, plus the tracing overhead.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any wrong output makes ``correct`` false and
the exit code 1.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

WORKLOADS = ("cold_compile", "warm_boot", "serve_warm", "fuzz_campaign")
#: Set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3


def make_workload(name: str, seed: int):
    from perfbench import serve, workloads

    return {
        "cold_compile": workloads.ColdCompile,
        "warm_boot": workloads.WarmBoot,
        "serve_warm": serve.ServeWarm,
        "fuzz_campaign": workloads.FuzzCampaign,
    }[name](seed)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# -- set-up ----------------------------------------------------------------------

def timed_setup(workload) -> float:
    """Run the workload's set-up; its time at the reference speed."""
    before = common.speed_factor()
    started = time.perf_counter()
    workload.setup()
    elapsed = time.perf_counter() - started
    return elapsed * (before + common.speed_factor()) / 2


def setup_seconds(name: str, seed: int) -> list[float]:
    """Set-up time of ``SETUP_SAMPLES - 1`` fresh processes, each doing the
    workload's whole set-up (imports included) and then tearing down."""
    samples = []
    for index in range(SETUP_SAMPLES - 1):
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(seed + 7919 * (index + 1)),
                "--setup-only"]
        done = subprocess.run(argv, cwd=str(common.ROOT),
                              capture_output=True, timeout=120)
        if done.returncode != 0:
            sys.stderr.write(done.stderr.decode("utf-8", "replace"))
            raise RuntimeError(f"{name}: set-up probe failed")
        samples.append(float(done.stdout.decode().split()[-1]))
    return samples


# -- closed-loop measurement -------------------------------------------------------

def closed_loop(workload, seconds: float) -> dict:
    """Run ops back to back until ``seconds`` have passed.  Each op is
    bracketed by calibration loops; ``speeds`` holds the mean factor."""
    results, speeds, failed = [], [], 0
    deadline = time.perf_counter() + seconds
    index = 0
    after = common.speed_factor()
    while True:
        before = after
        try:
            result = workload.op(index)
        except Exception as exc:  # an op that raises is a failed op
            print(f"{workload.name}: op {index} raised {exc!r}",
                  file=sys.stderr)
            result = None
        after = common.speed_factor()
        speed = (before + after) / 2
        if result is not None and result.ok:
            results.append(result)
            speeds.append(speed)
        else:
            failed += 1
        index += 1
        if time.perf_counter() >= deadline:
            break
    return {"results": results, "speeds": speeds, "attempted": index,
            "failed": failed}


def nearest(speeds: list[tuple[float, float]], at: float) -> float:
    """The speed factor of the calibration closest in time to ``at``."""
    if not speeds:
        return float("nan")
    index = bisect.bisect_left(speeds, (at,))
    around = speeds[max(index - 1, 0):index + 1]
    return min(around, key=lambda item: abs(item[0] - at))[1]


def kind_median_mean(samples: list[tuple[str, float]]) -> float:
    """The mean over operation kinds of each kind's median.

    A mix's overall median falls wherever the kinds' latency clusters
    meet, so it jumps with the mix; this stays put while every kind is
    sampled."""
    by_kind: dict[str, list[float]] = {}
    for kind, value in samples:
        by_kind.setdefault(kind, []).append(value)
    if not by_kind:
        return float("nan")
    return sum(common.median(v) for v in by_kind.values()) / len(by_kind)


def loop_p50(loop: dict) -> float:
    """A closed loop's ``p50_ms`` in seconds, at the reference speed."""
    return kind_median_mean([(r.kind, r.seconds * factor) for r, factor
                             in zip(loop["results"], loop["speeds"])])


def serve_p50(records: list, speeds: list) -> float:
    """Mean of the ``/v1/process`` kinds' median latencies, in seconds at
    the reference speed (each request scaled by the nearest calibration)."""
    return kind_median_mean([
        (r.kind.label, (r.done - r.due) * nearest(speeds, r.due))
        for r in records if r.ok and r.kind.path == "/v1/process"])


def closed_loop_metrics(workload, loop: dict) -> tuple[dict, list[str]]:
    from perfbench.workloads import FUZZ_EPISODES

    results = loop["results"]
    n = len(results)
    p50 = kind_median_mean([(r.kind, r.seconds) for r in results])
    p90 = common.quantile([r.seconds for r in results] or [0.0], 0.90)
    p50_ref = loop_p50(loop)
    cpu_ref = kind_median_mean([(r.kind, r.cpu * factor) for r, factor
                                in zip(results, loop["speeds"])])
    # Median over blocks (one full pass over the workload's mix) of units
    # per second; a block is one op when every op does the same work.
    size = workload.block
    rate = common.median([
        sum(r.units for r in block) / sum(r.seconds for r in block)
        for block in (results[i:i + size]
                      for i in range(0, n - size + 1, size))] or [0.0])
    labels = {
        "cold_compile": [f"sentences_per_s {rate:.2f} 1/s "
                         f"(134 sentences / median of {n} ops)",
                         f"compile_p50_s {p50:.4f} s (n={n})",
                         f"compile_p90_s {p90:.4f} s (n={n})"],
        "warm_boot": [f"cli_p50_ms {p50 * 1000:.2f} ms (mean of the "
                      f"{workload.block} commands' medians, n={n})",
                      f"cli_p90_ms {p90 * 1000:.2f} ms (n={n})",
                      f"cli_sentences_per_s {rate:.1f} 1/s (median of "
                      f"{n // size} blocks of {size} commands)"],
        "fuzz_campaign": [f"episodes_per_s {rate:.1f} 1/s (median of {n} "
                          f"campaigns of {FUZZ_EPISODES} episodes)",
                          f"campaign_p90_ms {p90 * 1000:.2f} ms (n={n})"],
    }[workload.name]
    labels += [f"p50_ms {p50_ref * 1000:.2f} ms at reference speed (median "
               f"speed factor {common.median(loop['speeds'] or [0.0]):.3f})",
               f"cpu_ms {cpu_ref * 1000:.2f} ms at reference speed"]
    return {"p50_ms": p50_ref * 1000, "cpu_ms": cpu_ref * 1000}, labels


# -- serve measurement ---------------------------------------------------------------

def serve_metrics(workload, seconds: float) -> tuple[dict, list[str], int, int]:
    from perfbench import serve

    speeds: list = []
    cpu_before = workload.server.cpu_seconds()
    low = workload.phase(serve.LOW_RPS, 0.7 * seconds, speeds)
    cpu = (workload.server.cpu_seconds() - cpu_before) / max(len(low), 1)
    factors = [factor for _at, factor in speeds] or [float("nan")]
    cpu_ref = cpu * sum(factors) / len(factors)
    high = workload.phase(serve.HIGH_RPS, 0.2 * seconds)
    max_rps, steps = workload.ramp(0.1 * seconds)
    records = low + high
    attempted = len(records) + sum(step["requests"] for step in steps)
    failed = sum(1 for record in records if not record.ok)
    lat_low = serve.latencies(low)
    lat_high = serve.latencies(high)
    lag = max(record.released - record.due for record in records)
    process = [r for r in low if r.ok and r.kind.path == "/v1/process"]
    process_p50 = kind_median_mean([(r.kind.label, r.done - r.due)
                                    for r in process])
    process_ref = serve_p50(low, speeds)
    sweeps = [r.done - r.due for r in low
              if r.ok and r.kind.path == "/v1/sweep"]
    labels = [
        f"p50_ms.low {common.median(lat_low) * 1000:.3f} ms (n={len(low)} "
        f"at {serve.LOW_RPS:g} rps)",
        f"p99_ms.low {common.quantile(lat_low, 0.99) * 1000:.3f} ms "
        f"(n={len(low)})",
        f"process_p50_ms.low {process_p50 * 1000:.3f} ms (mean of the 8 "
        f"/v1/process kinds' medians, n={len(process)})",
        f"sweep_p50_ms.low {common.median(sweeps or [0.0]) * 1000:.3f} ms "
        f"(n={len(sweeps)})",
        f"p50_ms.high {common.median(lat_high) * 1000:.3f} ms "
        f"(n={len(high)} at {serve.HIGH_RPS:g} rps)",
        f"p99_ms.high {common.quantile(lat_high, 0.99) * 1000:.3f} ms "
        f"(n={len(high)})",
        f"max_rps {max_rps:.1f} 1/s (p99 <= {serve.LIMIT_S * 1000:g} ms; "
        f"steps: " + ", ".join(
            f"{step['rps']:.0f}{'' if step['passed'] else ' FAIL'}"
            for step in steps) + ")",
        f"generator_lag_ms {lag * 1000:.3f} ms (max over fixed-rate phases)",
        f"server_cpu_ms {cpu * 1000:.3f} ms per request (server and "
        f"workers, at {serve.LOW_RPS:g} rps)",
        f"p50_ms {process_ref * 1000:.3f} ms at reference speed (median "
        f"speed factor {common.median(factors):.3f}, {len(speeds)} "
        "calibrations)",
        f"cpu_ms {cpu_ref * 1000:.3f} ms at reference speed",
    ]
    metrics = {"p50_ms": process_ref * 1000, "cpu_ms": cpu_ref * 1000}
    return metrics, labels, attempted, failed


# -- traced runs -------------------------------------------------------------------

def import_seconds() -> float:
    """Median over three runs of ``python -X importtime -m repro --help``:
    the summed self time of every module the CLI imports."""
    samples = []
    for _ in range(3):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro", "--help"],
            cwd=str(common.ROOT), capture_output=True, timeout=60)
        total_us = 0
        for line in done.stderr.decode("utf-8", "replace").splitlines():
            if line.startswith("import time:"):
                field = line.split(":", 1)[1].split("|")[0].strip()
                if field.isdigit():
                    total_us += int(field)
        samples.append(total_us / 1e6)
    return common.median(samples)


def traced_run(workload, seconds: float) -> tuple[dict, int, int, bool]:
    """Half the time untraced, half traced; per-layer metrics per op."""
    from perfbench import serve, tracer

    trace_dir = common.fresh_dir("spans")
    extra = {}
    if workload.name == "serve_warm":
        untraced_speeds: list = []
        untraced = workload.phase(serve.LOW_RPS, seconds / 2,
                                  untraced_speeds)
        workload.teardown()
        workload.boot(trace_dir=trace_dir)
        window_start = time.perf_counter()
        traced_speeds: list = []
        traced = workload.phase(serve.LOW_RPS, seconds / 2, traced_speeds)
        window = (window_start, time.perf_counter())
        workload.teardown()
        records = untraced + traced
        attempted = len(records)
        failed = sum(1 for record in records if not record.ok)
        ops = max(len(traced), 1)
        overhead = (serve_p50(traced, traced_speeds)
                    - serve_p50(untraced, untraced_speeds))
        agg = tracer.aggregate(tracer.load_dumps(trace_dir), window)
        service = agg["totals"].get("server.run_endpoint", [0, 0.0])[1] / ops
        extra["server.transport_s"] = _metric(
            sum(r.done - r.sent for r in traced) / ops - service, "s")
        extra["server.queue_s"] = _metric(
            sum(r.sent - r.due for r in traced) / ops, "s")
        extra["server.gen_lag_ms"] = _metric(
            common.quantile([r.released - r.due for r in traced], 0.99)
            * 1000, "ms")
    else:
        first = closed_loop(workload, seconds / 2)
        workload.trace_on(trace_dir)
        try:
            second = closed_loop(workload, seconds / 2)
        finally:
            workload.trace_off()
        attempted = first["attempted"] + second["attempted"]
        failed = first["failed"] + second["failed"]
        ops = max(second["attempted"], 1)
        overhead = loop_p50(second) - loop_p50(first)
        agg = tracer.aggregate(tracer.load_dumps(trace_dir))
        for name in ("server.transport_s", "server.queue_s"):
            extra[name] = _metric(0.0, "s")
        extra["server.gen_lag_ms"] = _metric(0.0, "ms")
    metrics = layer_metrics(agg, ops)
    metrics.update(extra)
    metrics["rfc.substrate_s"] = _metric(
        agg["totals"].get("rfc.substrate", [0, 0.0])[1] / ops, "s")
    metrics["setup.import_s"] = _metric(import_seconds(), "s")
    metrics["trace.overhead_ms"] = _metric(overhead * 1000, "ms")
    warm_ok = True
    if workload.name in ("warm_boot", "serve_warm"):
        for key in ("core.parse_stage", "core.winnow_stage"):
            if (agg["totals"].get(key, [0])[0]
                    and metrics[key + ".hit_ratio"]["value"] != 1.0):
                print(f"{workload.name}: {key} missed the warm cache",
                      file=sys.stderr)
                warm_ok = False
    if agg["dropped"]:
        print(f"{workload.name}: {agg['dropped']} spans over the cap were "
              "not stored", file=sys.stderr)
    return metrics, attempted, failed, warm_ok


def layer_metrics(agg: dict, ops: int) -> dict:
    """Per-op layer metrics from aggregated spans and counter deltas."""
    totals = agg["totals"]
    parsing = agg["counters"].get("parsing", {})
    winnow = agg["counters"].get("disambiguation", {})

    def field(name: str, index: int) -> float:
        return totals.get(name, [0, 0.0, 0.0, 0])[index]

    def ratio(hits: float, total: float) -> float:
        return hits / total if total else 0.0

    out = {}

    def per_op(key: str, value: float, unit: str) -> None:
        out[key] = _metric(value / ops, unit)

    def calls_and_self(key: str, span: str) -> None:
        per_op(key + ".calls", field(span, 0), "count")
        per_op(key + ".self_s", field(span, 2), "s")

    calls_and_self("nlp.chunk", "nlp.chunk")
    calls_and_self("parsing.parse", "parsing.parse")
    per_op("parsing.agenda_pops", parsing.get("agenda_pops", 0), "count")
    out["parsing.span_reuse_rate"] = _metric(ratio(
        parsing.get("span_memo_hits", 0),
        parsing.get("span_memo_hits", 0) + parsing.get("span_memo_misses", 0)
    ), "ratio")
    per_op("parsing.budget_drops", parsing.get("budget_drops", 0), "count")
    calls_and_self("disambiguation.winnow", "disambiguation.winnow")
    out["disambiguation.survival_ratio"] = _metric(ratio(
        winnow.get("forms_survived", 0), winnow.get("forms_in", 0)), "ratio")
    for memo in ("type", "canon"):
        hits = winnow.get(f"{memo}_memo_hits", 0)
        out[f"disambiguation.{memo}_memo_hit_rate"] = _metric(ratio(
            hits, hits + winnow.get(f"{memo}_memo_misses", 0)), "ratio")
    per_op("core.parse_stage.self_s", field("core.parse_stage", 2), "s")
    out["core.parse_stage.hit_ratio"] = _metric(ratio(
        field("core.parse_stage", 3), field("core.parse_stage", 0)), "ratio")
    per_op("core.winnow_stage.self_s", field("core.winnow_stage", 2), "s")
    per_op("core.winnow_key.self_s", field("core.winnow_key", 2), "s")
    stage_calls = field("core.winnow_stage", 0)
    out["core.winnow_stage.hit_ratio"] = _metric(ratio(
        stage_calls - agg["winnow_stage_misses"], stage_calls), "ratio")
    per_op("core.process_corpora.self_s", field("core.process_corpora", 2),
           "s")
    per_op("codegen.context.self_s", field("codegen.context", 2), "s")
    calls_and_self("codegen.generate", "codegen.generate")
    per_op("codegen.assemble.self_s", field("codegen.assemble", 2), "s")
    per_op("codegen.emit_c.self_s", field("codegen.emit_c", 2), "s")
    per_op("cache.store.reads", field("cache.store.get", 0), "count")
    per_op("cache.store.read_s", field("cache.store.get", 1), "s")
    per_op("cache.store.writes", field("cache.store.put", 0), "count")
    per_op("cache.store.write_s", field("cache.store.put", 1), "s")
    per_op("cache.store.bytes_written", field("cache.store.put", 3), "B")
    per_op("cache.codec_s", field("cache.persistent", 2), "s")
    per_op("api.from_run.self_s", field("api.from_run", 2), "s")
    per_op("api.encode.self_s", field("api.encode", 2), "s")
    per_op("api.response_bytes", field("api.encode", 3), "B")
    per_op("server.service_s", field("server.run_endpoint", 1), "s")
    per_op("fuzz.generate.self_s", field("fuzz.generate", 2), "s")
    for backend in ("reference", "python", "interp"):
        per_op(f"fuzz.replay.{backend}.self_s",
               field(f"fuzz.replay.{backend}", 2), "s")
    per_op("fuzz.oracles.self_s", field("fuzz.oracles", 2), "s")
    per_op("fuzz.compare.self_s", field("fuzz.compare", 2), "s")
    per_op("runtime.make_peer.self_s", field("runtime.make_peer", 2), "s")
    out["runtime.compiled_hit_ratio"] = _metric(ratio(
        field("runtime.compiled_get", 3), field("runtime.compiled_get", 0)),
        "ratio")
    return out


# -- one workload ------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and tear down one workload; returns the result."""
    setups = [] if trace else setup_seconds(name, seed)
    workload = make_workload(name, seed)
    try:
        setups.append(timed_setup(workload))
        if trace:
            metrics, attempted, failed, warm_ok = traced_run(workload,
                                                             seconds)
            correct = failed == 0 and warm_ok and workload_finish(workload)
            labels = [f"{key} {value['value']:.6g} {value['unit']}"
                      for key, value in metrics.items()]
        elif name == "serve_warm":
            metrics, labels, attempted, failed = serve_metrics(workload,
                                                               seconds)
            metrics["peak_rss_mb"] = workload.server.peak_rss_mb()
            correct = failed == 0
        else:
            loop = closed_loop(workload, seconds)
            metrics, labels = closed_loop_metrics(workload, loop)
            metrics["peak_rss_mb"] = workload.peak_rss_mb()
            attempted, failed = loop["attempted"], loop["failed"]
            correct = failed == 0 and workload_finish(workload)
    finally:
        workload.teardown()
    if not trace:
        metrics["setup_s"] = common.median(setups)
        labels = ([f"setup_s {metrics['setup_s']:.4f} s at reference speed "
                   f"(median of {len(setups)} set-ups)",
                   f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB",
                   f"fail_ratio {failed / max(attempted, 1):.4f} "
                   f"({failed}/{attempted})"] + labels)
        units = {"setup_s": "s", "peak_rss_mb": "MB", "p50_ms": "ms",
                 "cpu_ms": "ms"}
        metrics = {key: _metric(value, units[key])
                   for key, value in metrics.items()}
    for label in labels:
        print(f"{name}: {label}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def workload_finish(workload) -> bool:
    ok = workload.finish()
    if not ok:
        print(f"{workload.name}: end-of-run check failed", file=sys.stderr)
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (common.SRC / "repro" / "__init__.py").is_file():
        return _fail(f"no repro package under {common.SRC}; run from a "
                     "checkout of the repository")
    if not common.GOLDEN_ICMP_C.is_file():
        return _fail(f"missing reference output {common.GOLDEN_ICMP_C}")
    common.prepare_environment()

    try:
        if args.setup_only:
            workload = make_workload(args.workload, args.seed)
            try:
                print(f"{timed_setup(workload):.6f}")
            finally:
                workload.teardown()
            return 0
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {name: run_workload(name, args.seed, args.seconds,
                                      bool(args.trace))
                   for name in names}
    finally:
        common.clean_work()
    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": value
                        for name, r in results.items()
                        for key, value in r["metrics"].items()},
        }
    for value in result["metrics"].values():
        if not math.isfinite(value["value"]):
            # Only a run with failed ops gets here; keep the line valid JSON.
            value["value"] = 0.0
            result["correct"] = False
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
