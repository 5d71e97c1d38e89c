"""Pipeline smoke benchmark: the perf numbers successive PRs diff against.

Measures, with wall-clock timers:

* cold vs cached corpus load (fresh :class:`ProtocolRegistry` parsing RFC
  792 vs the memoized dict hit);
* cold vs cached ``Sage()`` construction (lexicon/parser/chunker build vs
  registry reuse);
* the parser backends head-to-head: every registered backend
  (``reference`` CKY and the category-indexed ``indexed`` forest parser)
  cold-parses all four corpora through an uncached ParseStage — measured
  *before* anything else CCG-parses, so the indexed backend's
  process-global memos are genuinely cold — with a per-sentence LF
  signature-set parity check between them; the sweep runs twice
  (round two re-cooled via ``reset_parser_state``) and each backend
  scores its best round, so a one-off burst of machine noise inside one
  backend's timers cannot flip the ratio gate;
* one full ICMP strict run from a cold parse cache, then a revised run —
  the revised number shows the cross-mode win of the shared parse cache
  (both modes parse the same sentences once);
* the staged-engine sweep: all four registered protocols through
  ``SageEngine.process_corpora`` — once from a cold parse cache, then a
  warm-cache re-run that must skip re-parsing entirely — with
  sentences/sec throughput and parse-cache hit/miss counters for each.
  ("Cold" throughout the sweep section means *parse- and winnow-cache*
  cold; the indexed backend's process-global structural memos were warmed
  by the head-to-head above, which is the production steady state).  The
  winnow layer rides the same sweeps: the §4.2 check-memo and
  winnow-result-cache counters for the cold sweep land under
  ``winnow_profile``, and the warm re-run must add zero winnow-cache
  misses while reproducing byte-identical winnow traces (per-stage LF
  counts plus ordered survivor signatures);
* codegen + execution over the ICMP IR program: C and Python emission,
  compile-cold (every call re-execs the rendering), compile-cached (the
  registry's compiled-program cache answers on the content SHA-1), a
  direct-interpreter compile, and one generated echo-reply execution per
  executable backend;
* the service layer: SageRun serialization to the schema-versioned JSON
  contract and back (with a round-trip equality check), the ``schema:1b``
  binary envelope head-to-head against the JSON contract (size and
  round-trip time, interleaved best-of-N so machine noise lands on both
  sides), and the batch sweep endpoint against the warm cache — the
  production configuration of a repeated ``SageService.sweep`` call;
* the cross-process warm start: ``warm_start_probe.py`` runs the
  4-protocol sweep twice in *separate* Python processes sharing one
  persistent cache-store directory — the first populates it cold, the
  second must answer every parse from disk.

Writes ``BENCH_pipeline.json`` at the repository root so successive PRs can
diff the numbers — including a bounded ``history`` array (one entry per
git SHA, newest last) tracking the parser speedup across runs — and exits
non-zero when a headline speedup regresses (CI runs this via
``scripts/ci.sh``):

* cached corpus load and Sage construction must stay >10x cheaper than
  cold;
* the parser backends must agree sentence-for-sentence on every corpus
  (LF signature sets — the parity gate), and the optimized backend must
  deliver ≥5x the reference backend's cold-parse throughput on the
  4-protocol sweep (timed GC-quiesced, best of two cold rounds; the
  agenda/span-memo/deferred-
  construction counters for the sweep are recorded under
  ``parse_profile``, and the span-signature memo must answer >30% of
  combined spans — the cross-sentence reuse sanity floor);
* the warm-cache sweep re-run must stay >1.5x faster than the cold
  sweep (the cached-vs-cold speedup gate — the multiple is
  modest because a "cold" sweep already reuses chart cells through the
  span-signature memo), must add zero parse-cache misses and zero
  winnow-cache misses, must clear a ≥4600 sentences/s throughput floor
  (~3x the pre-winnow-cache warm re-run), and must produce winnow traces
  byte-identical to the cold sweep's;
* ``networkx`` must never be imported: the canonical-signature rewrite
  keeps the VF2 isomorphism oracle off the production winnow path;
* a cached compile of the ICMP program must stay >10x cheaper than a cold
  compile (the compiled-program-cache regression gate);
* the serialized ICMP run must deserialize back equal to the original
  (wire-contract correctness), JSON decode must not cost more than JSON
  encode (the decode-hot-path gate), and the warm batch sweep endpoint
  must stay faster than the cold engine sweep (bounded
  service overhead);
* the ``schema:1b`` binary envelope must be ≥3x smaller and ≥2x faster
  to round-trip than the JSON contract for the ICMP run, and must decode
  to an object equal to the JSON-decoded one;
* the cross-process warm start must complete the sweep ≥5x faster than
  its cold-store run, with zero parse-cache misses, zero winnow-cache
  misses, and byte-identical statuses / LF signatures / winnow traces /
  golden ICMP C.

Run:  PYTHONPATH=src python benchmarks/pipeline_smoke.py
"""

import hashlib
import json
import os
import pathlib
import sys
import time

from repro.core import Sage, SageEngine
from repro.framework.addressing import ip_to_int
from repro.framework.icmp import make_echo
from repro.framework.ip import PROTO_ICMP, make_ip_packet
from repro.nlp.terms import load_default_dictionary
from repro.rfc.registry import ProtocolRegistry, default_registry
from repro.runtime import ExecutionContext, compile_unit, load_functions

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def timed(fn, repeat: int = 1):
    start = time.perf_counter()
    result = None
    for _ in range(repeat):
        result = fn()
    return (time.perf_counter() - start) / repeat, result


def winnow_trace_digest(runs: dict) -> str:
    """SHA-1 over every sentence's winnow trace, in corpus order.

    Covers the per-stage LF counts *and* the ordered survivor signatures:
    two sweeps whose digests match produced byte-identical winnow traces,
    which is the exactness contract the winnow-result cache must honour
    (a cache that changes which forms survive, or in what order, is a
    correctness bug no speedup excuses).
    """
    from repro.ccg.semantics import signature

    digest = hashlib.sha1()
    for name in sorted(runs):
        for result in runs[name].results:
            digest.update(result.spec.text.encode())
            trace = result.trace
            if trace is not None:
                for stage, count in trace.counts.items():
                    digest.update(f"{stage}={count};".encode())
                for form in trace.survivors:
                    digest.update(signature(form).encode())
                    digest.update(b"\x01")
            digest.update(b"\x00")
    return digest.hexdigest()


def main() -> int:
    numbers = {}

    fresh = ProtocolRegistry()
    numbers["corpus_load_cold_s"], _ = timed(lambda: fresh.load_corpus("ICMP"))
    numbers["corpus_load_cached_s"], _ = timed(
        lambda: fresh.load_corpus("ICMP"), repeat=100
    )

    registry = default_registry()
    registry.clear()
    # Truly cold: registry caches are instance-level, but the default
    # dictionary is process-wide — force the re-read so the cold number
    # includes it.
    load_default_dictionary(refresh=True)
    numbers["sage_construct_cold_s"], _ = timed(Sage)
    numbers["sage_construct_cached_s"], _ = timed(Sage, repeat=10)

    # -- parser backends head-to-head, truly cold ---------------------------
    # This must run before anything CCG-parses: the indexed backend's
    # process-global structural memos warm as a side effect of any parse,
    # and the gate is about *cold* throughput.
    from repro.ccg.semantics import signature as lf_signature
    from repro.parsing import parser_backend_names

    all_specs = [
        spec
        for name in registry.protocols()
        for spec in registry.load_corpus(name).sentences
    ]
    # Chunk once, outside the timers: the NP chunker is identical for
    # every backend, and the gate measures the *parser*, not the token
    # pipeline in front of it.  The backends parse each sentence
    # back-to-back (interleaved, not one full sweep after the other) so
    # machine noise — CPU frequency drift, noisy neighbours — lands on
    # both sides of the ratio equally; each backend still sees every
    # sentence exactly once, cold.
    chunker = registry.chunker()
    token_streams = [chunker.chunk_text(spec.text) for spec in all_specs]
    backends = list(parser_backend_names())
    numbers["parse_backends"] = backends
    parsers = {backend: registry.parser(backend=backend)
               for backend in backends}
    backend_sigs = {backend: [] for backend in backends}
    # GC hygiene: both backends grow process-global memo graphs during
    # the sweep, and a generational collection walking those graphs lands
    # in whichever backend's timer happens to be open — pure measurement
    # noise that can swing the ratio by tens of percent run to run.
    # Collect once up front, hold GC for the timed region, re-enable
    # after.  (The indexed backend already brackets each parse this way
    # internally; this extends the same discipline to the reference side
    # of the ratio.)
    import gc

    from repro.parsing.profile import PROFILE, profile_delta

    # Best of two cold rounds: interleaving spreads *slow* drift across
    # both sides of the ratio, but a single burst of machine noise (a
    # noisy neighbour waking up for half a second) still lands entirely
    # inside one backend's timers and can swing the ratio past the gate.
    # Run the whole interleaved sweep twice — round two re-cooled via
    # reset_parser_state(), so each round pays full chart construction
    # and term production — and score each backend by its *minimum*
    # round: the minimum is the run the noise missed, which is the
    # number the cold gate is actually about.
    from repro.parsing import reset_parser_state

    rounds_by_backend = {backend: [] for backend in backends}
    profile_before = PROFILE.counts()
    for round_index in range(2):
        if round_index:
            # The profile delta covers exactly round one — the truly
            # process-cold sweep (round two is cold-by-reset, which the
            # counters would otherwise double).
            numbers["parse_profile"] = profile_delta(profile_before,
                                                     PROFILE.counts())
            reset_parser_state()
        elapsed_by_backend = {backend: 0.0 for backend in backends}
        gc.collect()
        gc.disable()
        try:
            for tokens in token_streams:
                for backend in backends:
                    parse = parsers[backend].parse
                    start = time.perf_counter()
                    result = parse(tokens)
                    elapsed_by_backend[backend] += time.perf_counter() - start
                    if round_index == 0:
                        backend_sigs[backend].append(
                            tuple(sorted(lf_signature(form)
                                         for form in result.logical_forms))
                        )
        finally:
            gc.enable()
        for backend in backends:
            rounds_by_backend[backend].append(elapsed_by_backend[backend])
    # The hot-path counter delta above covers the first sweep (the
    # reference backend touches none of these counters, so the delta is
    # the indexed backend's cold-sweep behavior: agenda pops, span
    # reuse, memo hit rates, deferred/forced term construction, budget
    # drops).
    for backend in backends:
        numbers[f"parse_cold_{backend}_s"] = min(rounds_by_backend[backend])
        numbers[f"parse_cold_{backend}_rounds_s"] = rounds_by_backend[backend]
        numbers[f"parse_cold_{backend}_sentences_per_s"] = (
            len(all_specs) / numbers[f"parse_cold_{backend}_s"]
        )
    numbers["parse_backend_parity"] = (
        len({tuple(sigs) for sigs in backend_sigs.values()}) == 1
    )
    numbers["parse_backend_speedup"] = (
        numbers["parse_cold_reference_s"] / numbers["parse_cold_indexed_s"]
    )

    corpus = registry.load_corpus("ICMP")
    cache = registry.parse_cache()
    cache.clear()
    numbers["icmp_strict_run_s"], strict = timed(
        lambda: Sage(mode="strict").process_corpus(corpus)
    )
    # The revised run reuses the strict run's parses through the shared
    # cache; before the cache both modes re-parsed everything.
    numbers["icmp_revised_run_s"], revised = timed(
        lambda: Sage(mode="revised").process_corpus(corpus)
    )

    numbers["icmp_sentences"] = len(corpus.sentences)
    numbers["strict_statuses"] = strict.by_status()
    numbers["revised_statuses"] = revised.by_status()

    # -- the staged-engine sweep: all registered protocols, one call --------
    engine = SageEngine(mode="revised", protocol_registry=registry)
    winnow_cache = registry.winnow_cache()
    total_sentences = sum(
        len(c.sentences) for c in registry.corpora()
    )
    numbers["sweep_protocols"] = registry.protocols()
    numbers["sweep_sentences"] = total_sentences
    numbers["cpu_count"] = os.cpu_count() or 1

    from repro.disambiguation.profile import PROFILE as WINNOW_PROFILE
    from repro.disambiguation.profile import (
        profile_delta as winnow_profile_delta,
    )

    cache.clear()
    winnow_cache.clear()
    winnow_profile_before = WINNOW_PROFILE.counts()
    numbers["sweep_sequential_cold_s"], cold_runs = timed(
        engine.process_corpora
    )
    numbers["sweep_sequential_cold_sentences_per_s"] = (
        total_sentences / numbers["sweep_sequential_cold_s"]
    )
    # The check-memo / traversal-cache / stage-cache counters for exactly
    # the cold sweep: this is the window where the canonical-
    # signature and type memos do their cross-sentence work.
    numbers["winnow_profile"] = winnow_profile_delta(
        winnow_profile_before, WINNOW_PROFILE.counts()
    )

    misses_before_rerun = cache.stats()["misses"]
    winnow_misses_before_rerun = winnow_cache.stats()["misses"]
    numbers["sweep_warm_rerun_s"], warm_runs = timed(engine.process_corpora)
    numbers["sweep_warm_rerun_sentences_per_s"] = (
        total_sentences / numbers["sweep_warm_rerun_s"]
    )
    numbers["sweep_warm_rerun_new_misses"] = (
        cache.stats()["misses"] - misses_before_rerun
    )
    numbers["sweep_warm_rerun_new_winnow_misses"] = (
        winnow_cache.stats()["misses"] - winnow_misses_before_rerun
    )
    # The winnow-result cache must be *exact*: the warm re-run's traces —
    # per-stage counts and ordered survivors — must be byte-identical to
    # what the cold sweep computed from scratch.
    numbers["winnow_traces_identical"] = (
        winnow_trace_digest(cold_runs) == winnow_trace_digest(warm_runs)
    )
    numbers["parse_cache"] = cache.stats()
    numbers["winnow_cache"] = winnow_cache.stats()

    # -- codegen + execution over the ICMP IR program -----------------------
    unit = revised.code_unit
    numbers["codegen_emit_c_s"], _ = timed(unit.render_c, repeat=20)
    numbers["codegen_emit_python_s"], python_source = timed(
        unit.render_python, repeat=20
    )
    compiled_cache = registry.compiled_cache()
    compiled_cache.clear()
    # Cold: every call re-execs the rendering (no cache).
    numbers["codegen_compile_cold_s"], _ = timed(
        lambda: compile_unit(unit, cache=None), repeat=20
    )
    # Cached: the first call warms the registry's compiled-program cache,
    # repeats are a dictionary hit on the IR SHA-1.
    compile_unit(unit, cache=compiled_cache)
    numbers["codegen_compile_cached_s"], functions = timed(
        lambda: compile_unit(unit, cache=compiled_cache), repeat=200
    )
    numbers["codegen_interp_compile_s"], interp_functions = timed(
        lambda: compile_unit(unit, backend="interp", cache=None), repeat=20
    )

    echo = make_echo(0x1234, 1, b"bench-payload")
    request = make_ip_packet(
        ip_to_int("10.0.1.100"), ip_to_int("10.0.1.1"), PROTO_ICMP, echo.pack()
    )

    def run_builder(table):
        context = ExecutionContext(
            request_ip=request, responder_address=ip_to_int("10.0.1.1")
        )
        return table["icmp_echo_reply_receiver"](context).finish()

    numbers["codegen_exec_run_s"], _ = timed(
        lambda: run_builder(functions), repeat=200
    )
    numbers["codegen_interpret_s"], _ = timed(
        lambda: run_builder(interp_functions), repeat=200
    )
    # Source-keyed compile path (GeneratedImplementation.from_source);
    # warmed first so the timing measures pure cache hits.
    load_functions(python_source, cache=compiled_cache)
    numbers["codegen_load_functions_cached_s"], _ = timed(
        lambda: load_functions(python_source, cache=compiled_cache), repeat=200
    )
    numbers["compiled_cache"] = compiled_cache.stats()

    # -- the service layer: contracts + batch endpoint ----------------------
    from repro.api import (
        SageService,
        SweepRequest,
        from_bytes,
        from_json,
        to_bytes,
        to_json,
    )

    # The four wire operations (JSON encode/decode, schema:1b
    # encode/decode) are timed interleaved, best-of-N: the gates below
    # are *ratios* between them, and taking each operation's minimum
    # from alternating rounds cancels CPU-frequency drift that would
    # otherwise land on one side of a ratio only.
    run_json = to_json(revised, registry=registry)
    run_bin = to_bytes(revised, registry=registry)
    wire_times = {"json_enc": [], "json_dec": [], "bin_enc": [], "bin_dec": []}
    for _ in range(10):
        for key, fn in (
            ("json_enc", lambda: to_json(revised, registry=registry)),
            ("json_dec", lambda: from_json(run_json, registry=registry)),
            ("bin_enc", lambda: to_bytes(revised, registry=registry)),
            ("bin_dec", lambda: from_bytes(run_bin, registry=registry)),
        ):
            start = time.perf_counter()
            result = fn()
            wire_times[key].append(time.perf_counter() - start)
            if key == "json_dec":
                run_back = result
            elif key == "bin_dec":
                run_back_bin = result
    numbers["api_serialize_run_s"] = min(wire_times["json_enc"])
    numbers["api_deserialize_run_s"] = min(wire_times["json_dec"])
    # The pre-lazy encode path for comparison: build the full envelope
    # dict eagerly (per-Sem-node dict construction), then dump it.
    # ``to_json`` now defers Sem rendering into a json.dumps default
    # hook; this pair of numbers records what that bought.
    from repro.api.contracts import to_envelope

    numbers["api_serialize_eager_run_s"], _ = timed(
        lambda: json.dumps(to_envelope(revised, registry=registry)), repeat=5
    )
    numbers["api_serialize_lazy_speedup"] = (
        numbers["api_serialize_eager_run_s"] / numbers["api_serialize_run_s"]
    )
    numbers["api_run_json_bytes"] = len(run_json)
    numbers["api_roundtrip_equal"] = run_back == revised
    numbers["api_bin_encode_run_s"] = min(wire_times["bin_enc"])
    numbers["api_bin_decode_run_s"] = min(wire_times["bin_dec"])
    numbers["api_run_bin_bytes"] = len(run_bin)
    numbers["api_bin_size_ratio"] = len(run_json) / len(run_bin)
    numbers["api_bin_roundtrip_speedup"] = (
        (numbers["api_serialize_run_s"] + numbers["api_deserialize_run_s"])
        / (numbers["api_bin_encode_run_s"] + numbers["api_bin_decode_run_s"])
    )
    numbers["api_bin_equals_json_decode"] = run_back_bin == run_back

    service = SageService(registry=registry)
    sweep_request = SweepRequest()
    service.sweep(sweep_request)  # warm the service path once
    numbers["api_sweep_warm_s"], _ = timed(lambda: service.sweep(sweep_request))
    numbers["api_sweep_warm_sentences_per_s"] = (
        total_sentences / numbers["api_sweep_warm_s"]
    )

    # -- cross-process warm start over the persistent cache store -----------
    # Two *separate* Python processes share one store directory: the
    # first populates it cold, the second must answer every parse from
    # disk.  Nothing in-process survives between them — the speedup is
    # entirely the persistent store's.
    import subprocess
    import tempfile

    probe = REPO_ROOT / "benchmarks" / "warm_start_probe.py"
    with tempfile.TemporaryDirectory(prefix="repro-cache-") as cache_dir:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env.pop("REPRO_CACHE_DIR", None)
        cold_probe, warm_probe = (
            json.loads(subprocess.run(
                [sys.executable, str(probe), "--cache-dir", cache_dir],
                check=True, capture_output=True, text=True, env=env,
            ).stdout)
            for _ in range(2)
        )
    numbers["xproc_cold_sweep_s"] = cold_probe["sweep_s"]
    numbers["xproc_warm_sweep_s"] = warm_probe["sweep_s"]
    numbers["xproc_warm_speedup"] = (
        cold_probe["sweep_s"] / warm_probe["sweep_s"]
    )
    numbers["xproc_warm_parse_misses"] = warm_probe["parse"]["misses"]
    numbers["xproc_warm_disk_hits"] = warm_probe["parse"].get("disk_hits", 0)
    numbers["xproc_warm_winnow_misses"] = warm_probe["winnow"]["misses"]
    numbers["xproc_warm_winnow_disk_hits"] = (
        warm_probe["winnow"].get("disk_hits", 0)
    )
    numbers["xproc_outputs_identical"] = (
        cold_probe["statuses"] == warm_probe["statuses"]
        and cold_probe["lf_sha1"] == warm_probe["lf_sha1"]
        and cold_probe["trace_sha1"] == warm_probe["trace_sha1"]
        and cold_probe["icmp_c_sha1"] == warm_probe["icmp_c_sha1"]
    )

    # The VF2 oracle's backing library must never load in this process:
    # the canonical-signature rewrite exists so the full parse → winnow →
    # generate → serialize pipeline runs without graph isomorphism, and
    # an import anywhere above means something fell back onto it.
    numbers["networkx_imported"] = "networkx" in sys.modules

    # -- speedup history ----------------------------------------------------
    # Append this run's headline parser numbers to the `history` array
    # (keyed by git SHA, newest last, bounded) carried over from the
    # previous BENCH_pipeline.json — successive PRs see the trend, not
    # just the latest point.
    import subprocess

    out = REPO_ROOT / "BENCH_pipeline.json"
    history = []
    carried = {}
    if out.exists():
        try:
            previous = json.loads(out.read_text())
            history = previous.get("history", [])
            # The serving-layer numbers (`serve_*`, written by
            # benchmarks/load_harness.py against a live server) and the
            # fuzz-gate numbers (`fuzz_*`, written by `python -m repro
            # fuzz --record-bench`) ride in the same file; a smoke
            # re-run must not erase them.
            carried = {key: value for key, value in previous.items()
                       if key.startswith(("serve_", "fuzz_"))}
        except (json.JSONDecodeError, OSError):
            history = []
    numbers.update(carried)
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    history = [entry for entry in history if entry.get("sha") != sha]
    history.append({
        "sha": sha,
        "parse_backend_speedup": numbers["parse_backend_speedup"],
        "parse_cold_indexed_s": numbers["parse_cold_indexed_s"],
        "parse_cold_reference_s": numbers["parse_cold_reference_s"],
        "span_reuse_rate": numbers["parse_profile"]["span_reuse_rate"],
        "sweep_warm_rerun_sentences_per_s":
            numbers["sweep_warm_rerun_sentences_per_s"],
        "winnow_type_memo_hit_rate":
            numbers["winnow_profile"]["type_memo_hit_rate"],
        "winnow_canon_memo_hit_rate":
            numbers["winnow_profile"]["canon_memo_hit_rate"],
        "api_serialize_run_s": numbers["api_serialize_run_s"],
    })
    numbers["history"] = history[-50:]

    out.write_text(json.dumps(numbers, indent=2) + "\n")
    print(json.dumps(numbers, indent=2))

    # The regression gates (see module docstring).
    failures = []
    if not numbers["parse_backend_parity"]:
        failures.append("parser backends disagree on some sentence's "
                        "LF signature set (parity gate)")
    if not numbers["parse_backend_speedup"] >= 5.0:
        failures.append(
            "indexed parser backend is not >=5x the reference backend's "
            f"cold-parse throughput (got {numbers['parse_backend_speedup']:.2f}x)"
        )
    if not numbers["parse_profile"]["span_reuse_rate"] > 0.30:
        failures.append(
            "span-signature memo reuse fell to "
            f"{numbers['parse_profile']['span_reuse_rate']:.1%} of combined "
            "spans on the cold sweep (sanity floor 30%: formulaic RFC "
            "phrasing must keep reusing spans, or the cross-sentence memo "
            "stopped paying for itself)"
        )
    if not numbers["corpus_load_cached_s"] < numbers["corpus_load_cold_s"] / 10:
        failures.append("cached corpus load is not >10x cheaper than cold")
    if not numbers["sage_construct_cached_s"] < numbers["sage_construct_cold_s"] / 10:
        failures.append("cached Sage construction is not >10x cheaper than cold")
    # The warm-rerun multiple shrank by design when the indexed backend's
    # span memo landed: a parse-cache-cold sweep now reuses whole chart
    # cells across sentences (the memos were warmed by the head-to-head
    # above — the production steady state), so skipping the parse
    # entirely buys ~2x, not the ~4x it bought when every cold parse
    # re-combined every span.  The floor guards the cache still paying
    # for itself; the zero-miss gate below guards its correctness.
    if not numbers["sweep_warm_rerun_s"] < numbers["sweep_sequential_cold_s"] / 1.5:
        failures.append("warm-cache sweep re-run is not >1.5x faster than cold")
    if numbers["sweep_warm_rerun_new_misses"] != 0:
        failures.append("warm-cache sweep re-run re-parsed sentences")
    if numbers["sweep_warm_rerun_new_winnow_misses"] != 0:
        failures.append(
            "warm-cache sweep re-run re-winnowed sentences "
            f"({numbers['sweep_warm_rerun_new_winnow_misses']} winnow-cache "
            "misses)"
        )
    if not numbers["sweep_warm_rerun_sentences_per_s"] >= 4600:
        failures.append(
            "warm-cache sweep re-run throughput fell below the 4600 "
            "sentences/s floor (got "
            f"{numbers['sweep_warm_rerun_sentences_per_s']:.0f}/s): the "
            "winnow-result cache stopped carrying the warm path"
        )
    if not numbers["winnow_traces_identical"]:
        failures.append(
            "warm-cache sweep re-run produced different winnow traces than "
            "the cold sweep (the winnow-result cache must be exact: same "
            "per-stage counts, same survivors, same order)"
        )
    if not numbers["codegen_compile_cached_s"] < numbers["codegen_compile_cold_s"] / 10:
        failures.append("cached program compile is not >10x cheaper than cold")
    if not numbers["api_roundtrip_equal"]:
        failures.append("serialized SageRun did not deserialize back equal")
    if not numbers["api_deserialize_run_s"] <= numbers["api_serialize_run_s"]:
        failures.append(
            "JSON decode is slower than JSON encode for the ICMP run "
            f"(decode {numbers['api_deserialize_run_s']:.4f}s vs "
            f"encode {numbers['api_serialize_run_s']:.4f}s)"
        )
    if not numbers["api_bin_equals_json_decode"]:
        failures.append("schema:1b decode of the ICMP run does not equal "
                        "the JSON-decoded object")
    if not numbers["api_bin_size_ratio"] >= 3.0:
        failures.append(
            "schema:1b envelope is not >=3x smaller than the JSON contract "
            f"(got {numbers['api_bin_size_ratio']:.2f}x)"
        )
    if not numbers["api_bin_roundtrip_speedup"] >= 2.0:
        failures.append(
            "schema:1b round-trip is not >=2x faster than the JSON contract "
            f"(got {numbers['api_bin_roundtrip_speedup']:.2f}x)"
        )
    if not numbers["api_sweep_warm_s"] < numbers["sweep_sequential_cold_s"]:
        failures.append("warm service sweep endpoint is not faster than the "
                        "cold engine sweep")
    if not numbers["xproc_warm_speedup"] >= 5.0:
        failures.append(
            "cross-process warm sweep is not >=5x faster than its cold-store "
            f"run (got {numbers['xproc_warm_speedup']:.2f}x)"
        )
    if numbers["xproc_warm_parse_misses"] != 0:
        failures.append(
            "cross-process warm sweep re-parsed sentences "
            f"({numbers['xproc_warm_parse_misses']} parse-cache misses)"
        )
    if numbers["xproc_warm_winnow_misses"] != 0:
        failures.append(
            "cross-process warm sweep re-winnowed sentences "
            f"({numbers['xproc_warm_winnow_misses']} winnow-cache misses)"
        )
    if not numbers["xproc_outputs_identical"]:
        failures.append("cross-process warm sweep outputs differ from cold "
                        "(statuses / LF signatures / winnow traces / "
                        "generated ICMP C)")
    if numbers["networkx_imported"]:
        failures.append(
            "networkx was imported during the benchmark: the VF2 oracle "
            "leaked onto the production winnow path (canonical signatures "
            "must carry associativity detection alone)"
        )
    if failures:
        for failure in failures:
            print(f"SMOKE FAILURE: {failure}", file=sys.stderr)
        return 1
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
