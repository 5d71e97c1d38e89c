#!/usr/bin/env bash
# Tier-1 verification + the CLI smoke + the pipeline perf smoke, exactly as
# CI runs them.
#
#   ./scripts/ci.sh          # tests + CLI smoke + cache smoke + examples + smoke benchmark + serve gate + fuzz gate + paper checks
#   ./scripts/ci.sh tests    # tier-1 tests only
#   ./scripts/ci.sh bench    # CLI smoke + parser parity + cache smoke + examples + smoke benchmark
#   ./scripts/ci.sh examples # every examples/*.py end to end only
#   ./scripts/ci.sh parity   # parser parity + sid-engine property suites only
#   ./scripts/ci.sh cache    # persistent cache cross-process smoke only
#   ./scripts/ci.sh serve-gate  # HTTP serving layer load gate only (three boots)
#   ./scripts/ci.sh fuzz-gate   # header codec + checksum suites, then the fuzzer cross-backend gate only
#   ./scripts/ci.sh paper       # paper-table checks (benchmarks/bench_*.py) only
#   ./scripts/ci.sh entered     # function-entry map over all of the above (report only)
#
# The CLI smoke drives the `python -m repro` service entry point (a full
# four-protocol sweep emitting the JSON wire contract, checked to cover all
# four protocols in process) — a packaging check that the api layer is
# importable and executable outside pytest.
#
# The smoke benchmark is the only writer of BENCH_pipeline.json (a report
# of that run; no gate reads it back) and exits non-zero when a headline
# speedup regresses (parser parity and the indexed
# parser's >=5x cold-parse speedup floor with >30% span-memo reuse,
# cached-vs-cold load/construction, the
# warm-cache sweep re-run — which must add zero parse AND winnow cache
# misses, deliver >=5x the cold sweep's sentences/s in the same run, and
# reproduce byte-identical winnow traces with networkx never imported —
# the run-memo re-run, which
# must make zero parse/winnow cache lookups and beat the warm re-run >10x,
# the codegen
# compiled-program cache: a cached compile must stay >10x cheaper than a
# cold one, or the service layer: the serialized run must round-trip equal
# and the warm sweep endpoint must beat the cold engine sweep) — see
# benchmarks/pipeline_smoke.py for the exact gates.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Teardown runs on every exit path.  Under `set -e` a failing step exits
# the script at once and a function's RETURN trap never fires, so the
# gates record what they leave behind here — the server they booted and
# their temp paths — and one EXIT trap stops and removes it.
server_pid=""
temp_paths=()
stop_server() {
  if [ -n "$server_pid" ]; then
    kill "$server_pid" 2>/dev/null && wait "$server_pid" 2>/dev/null || true
    server_pid=""
  fi
}
teardown() {
  stop_server
  rm -rf ${temp_paths[@]+"${temp_paths[@]}"}
}
trap teardown EXIT

# Paper-table checks: every figure and table benchmarks/bench_*.py
# regenerates (Figs 5-6, Tables 2-11, the end-to-end interop run and the
# fuzz matrix), asserted against the paper's numbers.  Timing rounds are
# off: this step checks the tables, it does not time them.
paper_checks() {
  echo "== paper-table checks: benchmarks/bench_*.py =="
  python -m pytest -q benchmarks/bench_*.py --benchmark-disable
}

if [ "${1:-all}" = "paper" ]; then
  paper_checks
  exit 0
fi

# Function-entry map (report only, not part of `all`): runs tier-1 and every
# other step under scripts/entered.py, which records each src/repro function
# entered in any process (CLI subprocesses, the server and its forked
# workers), then lists the functions none of them entered.  The recorder
# roughly doubles wall time, so a timing gate may fail under it: that step
# is reported and the map keeps what it ran.  The steps rewrite
# BENCH_pipeline.json and FUZZ_matrix.json as they always do.
entered_map() {
  echo "== entered: function-entry map over tier-1 and every ci.sh step =="
  local data step
  data="$(mktemp -d "${TMPDIR:-/tmp}/repro-entered.XXXXXX")"
  temp_paths+=("$data")
  for step in tests bench serve-gate fuzz-gate paper; do
    python scripts/entered.py run "$data" -- ./scripts/ci.sh "$step" \
      || echo "(entered: step $step exited non-zero under the recorder)"
  done
  python scripts/entered.py report "$data"
}

if [ "${1:-all}" = "entered" ]; then
  entered_map
  exit 0
fi

if [ "${1:-all}" = "parity" ]; then
  echo "== parser parity suite =="
  python -m pytest tests/test_parsing.py tests/test_sid_engine.py -q
  exit 0
fi

# Persistent cache cross-process smoke: warm the store from one process,
# then sweep again from a *second* process — the second run must recompute
# nothing (zero parse AND winnow misses: the warm boot re-runs no CKY
# chart and no §4.2 check) and must answer every protocol with one
# run-layer disk hit (the whole run read back, not rebuilt per sentence).
# Warm `process ICMP`, `sweep --all` and `process ICMP --artifact c`
# (each with --json) must then print exactly what the in-process service
# answers over the same store.
cache_smoke() {
  echo "== cache smoke: python -m repro cache warm twice, warm process/sweep answers, then parse --compare, separate processes =="
  local store
  store="$(mktemp -d "${TMPDIR:-/tmp}/repro-cache-ci.XXXXXX")"
  temp_paths+=("$store")
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
protocols = len(data["protocols"])
run_disk_hits = data["run"].get("disk_hits", 0)
if run_disk_hits != protocols:
    sys.exit(f"CACHE FAILURE: second-process sweep read {run_disk_hits} "
             f"run entries from disk for {protocols} protocols")
print(f"ok (run: {run_disk_hits} disk hits, one per protocol)")
'
  # A warm CLI answer is the in-process service's answer, byte for byte.
  # The sweep reads every run entry; `--artifact c` is the one answer that
  # builds a stored run's deferred IR and checks its fingerprint.
  local answer
  for answer in "process ICMP" "sweep --all" "process ICMP --artifact c"; do
    # shellcheck disable=SC2086  # $answer is the argv, split on purpose
    python -m repro $answer --cache-dir "$store" --json \
      | python -c '
import sys
from repro.api import SageService
from repro.api.contracts import ProcessRequest, SweepRequest, to_json
from repro.rfc.registry import ProtocolRegistry
store, command = sys.argv[1:]
service = SageService(registry=ProtocolRegistry(cache_dir=store))
requests = {
    "process ICMP": lambda: service.process(ProcessRequest(protocol="ICMP")),
    "sweep --all": lambda: service.sweep(SweepRequest()),
    "process ICMP --artifact c": lambda: service.process(
        ProcessRequest(protocol="ICMP", artifacts=("c",))),
}
expected = to_json(requests[command]()) + "\n"
if sys.stdin.buffer.read() != expected.encode("utf-8"):
    sys.exit(f"CACHE FAILURE: warm `{command} --json` differs from the "
             "in-process SageService answer")
print(f"ok (warm {command}: byte-identical to in-process)")
' "$store" "$answer"
  done
  # The parser comparison times real parses even on a warm store, and
  # each report comes from the parser it is named for: the chart oracle
  # and the pipeline's parser.
  python -m repro parse ICMP --compare --cache-dir "$store" --json \
    | python -c '
import json, sys
data = json.load(sys.stdin)["data"]
if not data["parity"]:
    sys.exit("CACHE FAILURE: parse --compare found an LF-set mismatch")
backends = data["backends"]
names = {name: report["parser_backend"] for name, report in backends.items()}
if names != {"reference": "reference", "indexed": "indexed"}:
    sys.exit(f"CACHE FAILURE: parse --compare ran {names}")
for name, report in backends.items():
    cached = report["parsed_from_cache"]
    if cached:
        sys.exit(f"CACHE FAILURE: parse --compare served {name} {cached} "
                 "parses from the store")
print(f"ok (compare: parity, {len(backends)} parsers parsed cold)")
'
}

if [ "${1:-all}" = "cache" ]; then
  cache_smoke
  exit 0
fi

# Examples: each examples/*.py runs end to end and must exit 0.  They
# drive the public engine, stage and service API, so an API change that
# breaks one fails here (about 3 s for all four).
run_examples() {
  echo "== examples: python examples/*.py =="
  local example
  for example in examples/*.py; do
    python "$example" > /dev/null
    echo "ok ($example)"
  done
}

if [ "${1:-all}" = "examples" ]; then
  run_examples
  exit 0
fi

# Serving-layer load gate: boot `python -m repro serve` three times over
# one shared cache directory.  The harness sends every request over HTTP and
# then runs it in process on the server's store, so its throughput
# reference is measured in the same run.  Boot #1 runs it cold (gates
# latency and error rate only — its traffic populates the store); boot #2
# runs it with --expect-warm, which additionally requires zero parse and winnow
# misses through the server, disk hits in the parse, winnow or run layer
# (disk warm-start), and a median HTTP / in-process throughput ratio of
# at least load_harness.MIN_HTTP_OVER_INPROCESS.  Boot #3 runs the inline
# pool (`--workers 1`) over the warm store with the latency, error and
# envelope gates; the ratio floor was sized on process mode.
serve_gate() {
  echo "== serve gate: load harness against python -m repro serve =="
  local store log
  store="$(mktemp -d "${TMPDIR:-/tmp}/repro-serve-ci.XXXXXX")"
  temp_paths+=("$store")
  log="$store/serve.log"

  local port
  # Sets $server_pid and $port (no subshell: teardown needs the real pid);
  # its arguments go to `repro serve`.
  boot_server() {
    python -m repro serve --port 0 --cache-dir "$store/cache" "$@" \
      > "$log" 2>&1 &
    server_pid=$!
    local i
    for i in $(seq 1 100); do
      grep -q "serving on" "$log" 2>/dev/null && break
      if ! kill -0 "$server_pid" 2>/dev/null; then
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
  python benchmarks/load_harness.py --url "http://127.0.0.1:$port"
  stop_server

  boot_server || return 1
  echo "-- boot 2 (warm store, port $port): throughput + warm-start gates"
  python benchmarks/load_harness.py --url "http://127.0.0.1:$port" \
    --expect-warm
  stop_server

  # Inline mode (one service behind the event loop's executor thread).
  # The throughput floor was sized on process mode, so no --expect-warm.
  boot_server --workers 1 || return 1
  echo "-- boot 3 (warm store, --workers 1, port $port): inline-mode gates"
  python benchmarks/load_harness.py --url "http://127.0.0.1:$port"
  stop_server
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
# a byte-identical trace digest that also equals the one pinned in
# tests/golden/fuzz_digest.json (which tier-1 checks too), so a change
# that alters any trace fails here even when it is self-consistent.  The
# report lands in FUZZ_matrix.json (uploaded as a CI artifact).  The CLI
# itself exits non-zero on any divergence/violation; the python check
# below enforces coverage and reproducibility on top.
fuzz_gate() {
  # The generated header codecs and the closed-form checksum build every
  # packet the campaign replays: check them against their references first.
  echo "== header codec + checksum suites =="
  python -m pytest tests/test_packet.py tests/test_checksum.py -q
  echo "== fuzz gate: python -m repro fuzz, fixed seed, all backends =="
  local rerun
  rerun="$(mktemp "${TMPDIR:-/tmp}/repro-fuzz-rerun.XXXXXX")"
  temp_paths+=("$rerun")
  python -m repro fuzz --seed 0 --episodes 200 --json > FUZZ_matrix.json
  python -m repro fuzz --seed 0 --episodes 200 --json > "$rerun"
  python - "$rerun" <<'EOF'
import json, sys

first = json.load(open("FUZZ_matrix.json"))["data"]
second = json.load(open(sys.argv[1]))["data"]
pin = json.load(open("tests/golden/fuzz_digest.json"))
if first["traces_sha1"] != second["traces_sha1"]:
    sys.exit("FUZZ FAILURE: seed 0 is not reproducible — trace digests "
             f"differ ({first['traces_sha1']} vs {second['traces_sha1']})")
if (first["seed"], first["episodes"]) != (pin["seed"], pin["episodes"]):
    sys.exit(f"FUZZ FAILURE: ran seed {first['seed']} x {first['episodes']} "
             f"episodes, but the pin covers {pin['seed']} x {pin['episodes']}")
if first["traces_sha1"] != pin["traces_sha1"]:
    sys.exit("FUZZ FAILURE: seed-0 trace digest changed — pinned in "
             f"tests/golden/fuzz_digest.json {pin['traces_sha1']}, this run "
             f"{first['traces_sha1']}")
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
      f"{first['traces_sha1'][:12]} reproducible and pinned)")
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
    # path still must not skip the parser-parity contract.
    echo "== parser parity suite =="
    python -m pytest tests/test_parsing.py tests/test_sid_engine.py -q
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


  echo "== cli smoke: python -m repro parse ICMP --compare (parser parity) =="
  python -m repro parse ICMP --compare --json | python -c '
import json, sys
backends = json.load(sys.stdin)["data"]["backends"]
names = {name: report["parser_backend"] for name, report in backends.items()}
if names != {"reference": "reference", "indexed": "indexed"}:
    sys.exit(f"CLI FAILURE: parse --compare ran {names}")
print("ok (parity: the reference chart and the indexed parser)")
'

  echo "== cli smoke: python -m repro winnow ICMP --profile =="
  python -m repro winnow ICMP --profile > /dev/null
  echo "ok"

  cache_smoke
  run_examples

  echo "== benchmarks: pipeline smoke (writes BENCH_pipeline.json, gates perf) =="
  python benchmarks/pipeline_smoke.py
fi

if [ "${1:-all}" = "all" ]; then
  serve_gate
  fuzz_gate
  paper_checks
fi
