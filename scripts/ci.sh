#!/usr/bin/env bash
# Tier-1 verification + the CLI smoke + the pipeline perf smoke, exactly as
# CI runs them.
#
#   ./scripts/ci.sh          # tests + CLI smoke + cache smoke + smoke benchmark + serve gate + fuzz gate
#   ./scripts/ci.sh tests    # tier-1 tests only
#   ./scripts/ci.sh bench    # CLI smoke + parser parity + cache smoke + smoke benchmark
#   ./scripts/ci.sh parity   # parser-backend parity suite only
#   ./scripts/ci.sh cache    # persistent cache cross-process smoke only
#   ./scripts/ci.sh serve-gate  # HTTP serving layer load gate only
#   ./scripts/ci.sh fuzz-gate   # differential fuzzer cross-backend gate only
#
# The CLI smoke drives the `python -m repro` service entry point (a full
# four-protocol sweep emitting the JSON wire contract, checked to cover all
# four protocols in process) — a packaging check that the api layer is
# importable and executable outside pytest.
#
# The smoke benchmark writes BENCH_pipeline.json and exits non-zero when a
# headline speedup regresses (parser-backend parity and the indexed
# backend's >=5x cold-parse speedup floor with >30% span-memo reuse,
# cached-vs-cold load/construction, the
# warm-cache sweep re-run — which must add zero parse AND winnow cache
# misses, clear the 4600 sentences/s floor, and reproduce byte-identical
# winnow traces with networkx never imported — the codegen
# compiled-program cache: a cached compile must stay >10x cheaper than a
# cold one, or the service layer: the serialized run must round-trip equal
# and the warm sweep endpoint must beat the cold engine sweep) — see
# benchmarks/pipeline_smoke.py for the exact gates.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

if [ "${1:-all}" = "parity" ]; then
  echo "== parser-backend parity suite =="
  python -m pytest tests/test_parsing.py -q
  exit 0
fi

# Persistent cache cross-process smoke: warm the store from one process,
# then sweep again from a *second* process — the second run must answer
# every parse AND every winnow from disk (zero misses in both layers: the
# warm boot re-runs no CKY chart and no §4.2 check).
cache_smoke() {
  echo "== cache smoke: python -m repro cache warm twice, separate processes =="
  local store
  store="$(mktemp -d "${TMPDIR:-/tmp}/repro-cache-ci.XXXXXX")"
  trap 'rm -rf "$store"' RETURN
  python -m repro cache warm --cache-dir "$store" --json > /dev/null
  python -m repro cache warm --cache-dir "$store" --json \
    | python -c '
import json, sys
data = json.load(sys.stdin)["data"]
for layer in ("parse", "winnow"):
    stats = data[layer]
    misses = stats["misses"]
    disk_hits = stats.get("disk_hits", 0)
    if misses:
        sys.exit(f"CACHE FAILURE: second-process sweep recomputed {misses} "
                 f"{layer} entries (disk hits: {disk_hits})")
    print(f"ok ({layer}: 0 misses, {disk_hits} disk hits)")
'
}

if [ "${1:-all}" = "cache" ]; then
  cache_smoke
  exit 0
fi

# Serving-layer load gate: boot `python -m repro serve` twice over one
# shared cache directory.  Boot #1 runs the harness cold (gates latency
# and error rate only — its traffic populates the store); boot #2 runs it
# with --expect-warm, which additionally requires zero parse misses
# through the server (disk warm-start) and sustained throughput >= 1/2 of
# the in-process api_sweep_warm_sentences_per_s baseline recorded in
# BENCH_pipeline.json.  Boot #2's numbers land under serve_* keys there.
serve_gate() {
  echo "== serve gate: load harness against python -m repro serve =="
  local store log pid=""
  store="$(mktemp -d "${TMPDIR:-/tmp}/repro-serve-ci.XXXXXX")"
  log="$store/serve.log"
  # shellcheck disable=SC2064
  trap "[ -n \"\$pid\" ] && kill \"\$pid\" 2>/dev/null; rm -rf '$store'" RETURN

  local port
  # Sets $pid and $port (no subshell: the trap needs the real pid).
  boot_server() {
    python -m repro serve --port 0 --cache-dir "$store/cache" > "$log" 2>&1 &
    pid=$!
    local i
    for i in $(seq 1 100); do
      grep -q "serving on" "$log" 2>/dev/null && break
      if ! kill -0 "$pid" 2>/dev/null; then
        echo "SERVE FAILURE: server died during boot:" >&2
        cat "$log" >&2
        return 1
      fi
      sleep 0.2
    done
    port="$(sed -n 's/.*:\([0-9]*\) .*/\1/p' "$log" | head -1)"
    [ -n "$port" ] || { echo "SERVE FAILURE: could not read port" >&2; return 1; }
  }

  boot_server || return 1
  echo "-- boot 1 (cold store, port $port): latency + error gates"
  python benchmarks/load_harness.py --url "http://127.0.0.1:$port" \
    --requests 24 --warmup 4 --concurrency 3 \
    --min-throughput-fraction 0 --no-write
  kill "$pid" 2>/dev/null && wait "$pid" 2>/dev/null || true
  pid=""

  boot_server || return 1
  echo "-- boot 2 (warm store, port $port): throughput + warm-start gates"
  python benchmarks/load_harness.py --url "http://127.0.0.1:$port" \
    --requests 24 --warmup 4 --concurrency 3 --expect-warm
  kill "$pid" 2>/dev/null && wait "$pid" 2>/dev/null || true
  pid=""
}

if [ "${1:-all}" = "serve-gate" ]; then
  serve_gate
  exit 0
fi

# Differential fuzz gate: a fixed-seed campaign replays generated episodes
# against every executable backend (reference, exec-Python, interpreter)
# and must come back with zero divergences, zero oracle violations, a full
# green interop matrix (every backend pair × all four protocols × every
# scenario family), a stable emitted-C fingerprint lock, and — run twice —
# a byte-identical trace digest.  The report lands in FUZZ_matrix.json
# (uploaded as a CI artifact) and its headline numbers merge into
# BENCH_pipeline.json under fuzz_* keys.  The CLI itself exits non-zero on
# any divergence/violation; the python check below enforces coverage and
# reproducibility on top.
fuzz_gate() {
  echo "== fuzz gate: python -m repro fuzz, fixed seed, all backends =="
  local rerun
  rerun="$(mktemp "${TMPDIR:-/tmp}/repro-fuzz-rerun.XXXXXX")"
  # shellcheck disable=SC2064
  trap "rm -f '$rerun'" RETURN
  python -m repro fuzz --seed 0 --episodes 200 --json \
    --record-bench BENCH_pipeline.json > FUZZ_matrix.json
  python -m repro fuzz --seed 0 --episodes 200 --json > "$rerun"
  python - "$rerun" <<'EOF'
import json, sys

first = json.load(open("FUZZ_matrix.json"))["data"]
second = json.load(open(sys.argv[1]))["data"]
if first["traces_sha1"] != second["traces_sha1"]:
    sys.exit("FUZZ FAILURE: seed 0 is not reproducible — trace digests "
             f"differ ({first['traces_sha1']} vs {second['traces_sha1']})")
matrix = first["matrix"]
if not first["clean"] or not matrix["all_green"]:
    sys.exit(f"FUZZ FAILURE: matrix not green: {matrix}")
if len(matrix["pairs"]) < 2:
    sys.exit(f"FUZZ FAILURE: need >=2 backend pairs, got {matrix['pairs']}")
protocols = {p for pair in matrix["cells"].values() for p in pair}
if len(protocols) != 4:
    sys.exit(f"FUZZ FAILURE: expected 4 fuzzed protocols, got {protocols}")
for pair, per_protocol in matrix["cells"].items():
    for protocol, families in per_protocol.items():
        if len(families) < 3:
            sys.exit(f"FUZZ FAILURE: {pair}/{protocol} covered only "
                     f"{sorted(families)} — need >=3 scenario families")
unstable = [p for p, e in first["c_fingerprints"].items() if not e["stable"]]
if unstable:
    sys.exit(f"FUZZ FAILURE: unstable C renders for {unstable}")
print(f"ok ({first['episodes']} episodes x {len(matrix['pairs'])} pairs, "
      f"{len(protocols)} protocols, matrix green, digest "
      f"{first['traces_sha1'][:12]} reproducible)")
EOF
}

if [ "${1:-all}" = "fuzz-gate" ]; then
  fuzz_gate
  exit 0
fi

if [ "${1:-all}" != "bench" ]; then
  echo "== tier-1: pytest =="
  python -m pytest -x -q
fi

if [ "${1:-all}" != "tests" ]; then
  if [ "${1:-all}" = "bench" ]; then
    # The full run already executed these inside tier-1; the bench-only
    # path still must not skip the backend-parity contract.
    echo "== parser-backend parity suite =="
    python -m pytest tests/test_parsing.py -q
  fi

  echo "== cli smoke: python -m repro sweep --all --json =="
  python -m repro sweep --all --json | python -c '
import json, sys
data = json.load(sys.stdin)["data"]
protocols = sorted(data["responses"])
if protocols != ["BFD", "ICMP", "IGMP", "NTP"]:
    sys.exit(f"CLI FAILURE: sweep covered {protocols}")
workers = data["parallel_workers"]
if workers != 0:
    sys.exit(f"CLI FAILURE: sweep reported {workers} parallel workers")
print("ok (4 protocols, in process)")
'


  echo "== cli smoke: python -m repro parse ICMP --compare (backend parity) =="
  python -m repro parse ICMP --compare > /dev/null
  echo "ok"

  echo "== cli smoke: python -m repro winnow ICMP --profile =="
  python -m repro winnow ICMP --profile > /dev/null
  echo "ok"

  cache_smoke

  echo "== benchmarks: pipeline smoke (writes BENCH_pipeline.json, gates perf) =="
  python benchmarks/pipeline_smoke.py
fi

if [ "${1:-all}" = "all" ]; then
  serve_gate
  fuzz_gate
fi
