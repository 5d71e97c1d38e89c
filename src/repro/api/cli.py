"""The ``python -m repro`` command line, a thin shell over the service.

Four subcommands mirror the :class:`~repro.api.service.SageService`
endpoints::

    python -m repro process ICMP --json --artifact c
    python -m repro sweep --all --json
    python -m repro resolve ICMP --journal decisions.json --list
    python -m repro resolve ICMP --journal decisions.json \
        --sentence 12 --rewrite "The revised sentence." --category ambiguous
    python -m repro emit ICMP --backend c --output icmp.c
    python -m repro fuzz --seed 0 --episodes 200 --json
    python -m repro cache warm --cache-dir ~/.cache/repro --json
    python -m repro cache stats --cache-dir ~/.cache/repro
    python -m repro serve --port 8742 --cache-dir ~/.cache/repro

Everything ``--json`` prints is a schema-versioned contract payload
(:mod:`repro.api.contracts`), so shell pipelines and test harnesses consume
the same wire format a network transport would carry.  Structured
:class:`~repro.api.errors.ApiError` failures print as error payloads and
exit with the error's ``exit_code`` — aligned with the error codes across
every subcommand: 2 bad request, 3 not found, 4 undecodable payload,
5 deadline exceeded, 6 corrupted cache store.  Unexpected exceptions
propagate (a traceback is a bug).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from .errors import ApiError, RequestError

if TYPE_CHECKING:
    from .service import SageService


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="SAGE pipeline service: process RFC corpora, resolve "
                    "ambiguities, emit generated code.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--mode", choices=("strict", "revised"),
                       default="revised", help="pipeline mode (default: revised)")
        p.add_argument("--json", action="store_true",
                       help="print the schema-versioned contract payload")
        p.add_argument("--journal", metavar="PATH",
                       help="decision journal to replay (and append to)")
        p.add_argument("--no-bundled-rewrites", action="store_true",
                       help="ignore the bundled rewrites.json (journal-only "
                            "operation, for replay verification)")
        p.add_argument("--cache-dir", metavar="PATH", default=None,
                       help="persistent cache directory shared across "
                            "processes (default: $REPRO_CACHE_DIR; unset = "
                            "in-memory caches only)")

    p_process = sub.add_parser("process", help="run one protocol")
    p_process.add_argument("protocol")
    p_process.add_argument("--artifact", action="append", default=[],
                           metavar="BACKEND",
                           help="render an artifact (repeatable: c, python)")
    p_process.add_argument("--no-sentences", action="store_true",
                           help="omit per-sentence reports from the response")
    common(p_process)

    p_sweep = sub.add_parser("sweep", help="run many protocols in one batch")
    p_sweep.add_argument("protocols", nargs="*", metavar="PROTOCOL",
                         help="protocols to run (default with --all: every "
                              "registered one)")
    p_sweep.add_argument("--all", action="store_true",
                         help="run every registered protocol")
    common(p_sweep)

    p_parse = sub.add_parser(
        "parse", help="parsing-subsystem diagnostics: batch-parse one "
                      "corpus (no winnow, no codegen)"
    )
    p_parse.add_argument("protocol")
    p_parse.add_argument("--compare", action="store_true",
                         help="also run the reference chart parser, check "
                              "LF-set parity, and report relative speed")
    p_parse.add_argument("--sentences", action="store_true",
                         help="print the per-sentence diagnostic lines")
    p_parse.add_argument("--profile", action="store_true",
                         help="print the parser hot-path counters for this "
                              "batch (agenda pops, memo hit rates, deferred "
                              "items, budget drops)")
    common(p_parse)

    p_winnow = sub.add_parser(
        "winnow", help="winnow-subsystem diagnostics: parse + run the §4.2 "
                       "check suite over one corpus (no codegen)"
    )
    p_winnow.add_argument("protocol")
    p_winnow.add_argument("--sentences", action="store_true",
                          help="print the per-sentence stage-count lines")
    p_winnow.add_argument("--profile", action="store_true",
                          help="print the winnow hot-path counters for this "
                               "batch (canonical-sid and check-memo hit "
                               "rates, stage-cache hits)")
    common(p_winnow)

    p_resolve = sub.add_parser(
        "resolve", help="inspect flagged sentences and journal decisions"
    )
    p_resolve.add_argument("protocol")
    p_resolve.add_argument("--list", action="store_true",
                           help="list flagged sentences (the default action)")
    p_resolve.add_argument("--pending", action="store_true",
                           help="list only still-unresolved flagged sentences")
    p_resolve.add_argument("--sentence", metavar="INDEX|TEXT",
                           help="the sentence to resolve (corpus index or "
                                "unique text fragment)")
    p_resolve.add_argument("--rewrite", metavar="TEXT",
                           help="record a rewrite resolution")
    p_resolve.add_argument("--category",
                           choices=("ambiguous", "unparsed", "imprecise"),
                           default="",
                           help="rewrite category (default: derived from the "
                                "sentence's status)")
    p_resolve.add_argument("--annotate", action="store_true",
                           help="record a non-actionable annotation")
    p_resolve.add_argument("--select-lf", metavar="SIGNATURE|INDEX",
                           help="force one surviving logical form")
    p_resolve.add_argument("--note", default="", help="free-form provenance")
    p_resolve.add_argument("--replay", action="store_true",
                           help="re-run after resolving and print the "
                                "resulting status counts")
    common(p_resolve)

    p_emit = sub.add_parser("emit", help="emit a generated-code artifact")
    p_emit.add_argument("protocol")
    p_emit.add_argument("--backend", default="c",
                        help="codegen backend (default: c)")
    p_emit.add_argument("--output", metavar="PATH",
                        help="write the rendered source here instead of stdout")
    common(p_emit)

    p_fuzz = sub.add_parser(
        "fuzz", help="differential scenario fuzzing across executable "
                     "backends (see repro.fuzz)"
    )
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="campaign seed; the same seed reproduces "
                             "byte-identical episode traces (default: 0)")
    p_fuzz.add_argument("--episodes", type=int, default=50,
                        help="episodes to generate (default: 50)")
    p_fuzz.add_argument("--protocol", action="append", default=[],
                        metavar="NAME",
                        help="restrict to one protocol (repeatable; "
                             "default: every fuzzed protocol)")
    p_fuzz.add_argument("--family", action="append", default=[],
                        metavar="NAME",
                        help="restrict to one scenario family (repeatable)")
    p_fuzz.add_argument("--replay", metavar="CASE_FILE",
                        help="replay one saved case file instead of "
                             "generating episodes")
    p_fuzz.add_argument("--case-dir", metavar="DIR", default="fuzz-cases",
                        help="where shrunk divergence cases are written "
                             "(default: fuzz-cases)")
    common(p_fuzz)

    p_cache = sub.add_parser(
        "cache", help="persistent cache maintenance (stats, clear, warm)"
    )
    p_cache.add_argument("action", choices=("stats", "clear", "warm"),
                         help="stats: report the store's footprint and "
                              "counters; clear: drop every persisted entry; "
                              "warm: sweep every registered protocol "
                              "through the store and report hit/miss counts")
    common(p_cache)

    p_serve = sub.add_parser(
        "serve", help="run the HTTP front end (see repro.server)"
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8742,
                         help="bind port; 0 picks an ephemeral port "
                              "(default: 8742)")
    p_serve.add_argument("--workers", type=int, default=None,
                         help="worker processes (default: cpu count when >1, "
                              "otherwise inline single-worker execution)")
    p_serve.add_argument("--deadline", type=float, default=60.0,
                         metavar="SECONDS",
                         help="default per-request deadline; requests past "
                              "it answer 504 (override per request with "
                              "X-Repro-Deadline)")
    common(p_serve)
    return parser


def _print_payload(kind: str, data, out) -> None:
    """One schema-versioned ``--json`` payload."""
    print(json.dumps({"schema": 1, "kind": kind, "data": data}), file=out)


def _print_profile(profile: dict, out) -> None:
    print("  profile:", file=out)
    for key in sorted(profile):
        value = profile[key]
        rendered = f"{value:.3f}" if isinstance(value, float) else value
        print(f"    {key:<28} {rendered}", file=out)


def _print_response(response, out) -> None:
    print(f"{response.protocol} ({response.mode} mode): "
          f"{response.sentence_count} sentences", file=out)
    for status, count in sorted(response.status_counts.items()):
        print(f"  {status:<16} {count}", file=out)
    for report in response.flagged():
        print(f"  [{report.status}] #{report.index} {report.text[:70]}",
              file=out)
    for artifact in response.artifacts:
        print(f"  artifact: {artifact.backend} "
              f"({len(artifact.source.splitlines())} lines, "
              f"sha1 {artifact.fingerprint[:12]})", file=out)


def _cmd_process(service: SageService, args, out) -> int:
    from .contracts import ProcessRequest, to_json

    response = service.process(ProcessRequest(
        protocol=args.protocol, mode=args.mode,
        include_sentences=not args.no_sentences,
        artifacts=tuple(args.artifact),
    ))
    if args.json:
        print(to_json(response), file=out)
    else:
        _print_response(response, out)
    return 0


def _cmd_sweep(service: SageService, args, out) -> int:
    from .contracts import SweepRequest, to_json

    if not args.protocols and not args.all:
        raise RequestError("sweep needs protocol names or --all")
    response = service.sweep(SweepRequest(
        protocols=tuple(args.protocols), mode=args.mode,
    ))
    if args.json:
        print(to_json(response), file=out)
        return 0
    print(f"swept {len(response.protocols)} protocols", file=out)
    for name in response.protocols:
        sub = response.responses[name]
        flagged = sub.flagged_count
        print(f"  {name:<6} {sub.sentence_count:>3} sentences, "
              f"{flagged} flagged", file=out)
    return 0


def _cmd_resolve(service: SageService, args, out) -> int:
    from .contracts import to_json

    session = service.session(args.protocol, mode=args.mode)
    resolving = bool(args.rewrite or args.annotate or args.select_lf)
    if resolving:
        if not args.sentence:
            raise RequestError("--rewrite/--annotate/--select-lf need "
                               "--sentence")
        if not args.journal:
            # Without a journal path the decision would die with the
            # process while claiming success — refuse instead.
            raise RequestError("recording a resolution needs --journal PATH "
                               "(the decision must outlive this process)")
        selector: int | str = args.sentence
        if selector.lstrip("-").isdigit():
            selector = int(selector)
        select_lf = args.select_lf
        if select_lf is not None and select_lf.isdigit():
            select_lf = int(select_lf)
        resolution = session.resolve(
            selector, rewrite=args.rewrite, category=args.category,
            annotate=args.annotate, select_lf=select_lf, note=args.note,
        )
        if args.json:
            print(to_json(resolution), file=out)
        else:
            print(f"journaled {resolution.kind} for: "
                  f"{resolution.original[:70]}", file=out)
        if args.replay:
            response = session.response(include_sentences=False)
            if args.json:
                print(to_json(response), file=out)
            else:
                _print_response(response, out)
        return 0
    reports = session.pending() if args.pending else session.flagged()
    if args.json:
        _print_payload("sentence_report_list",
                       {"protocol": session.protocol,
                        "reports": [report.to_dict() for report in reports]},
                       out)
        return 0
    label = "pending" if args.pending else "flagged"
    print(f"{session.protocol}: {len(reports)} {label} sentences", file=out)
    for report in reports:
        print(f"\n[{report.status}] #{report.index} "
              f"{report.message} / {report.field or 'description'}", file=out)
        print(f"  {report.text}", file=out)
        if report.reason:
            print(f"  reason: {report.reason}", file=out)
        for position, survivor in enumerate(report.survivors):
            print(f"  LF {position}: {survivor['signature'][:90]}", file=out)
    return 0


def _cmd_parse(service: SageService, args, out) -> int:
    """Parsing diagnostics: the pipeline's parser, or its parity/speed
    comparison with the reference chart parser."""
    if args.compare:
        from ..ccg.chart import CCGChartParser
        from ..core.stages import ParseStage
        from ..rfc.registry import ProtocolRegistry
        from .service import SageService, parse_report

        # Time real parses of every sentence, repeats included: uncached
        # parse stages over a fresh registry that opens no store, whatever
        # --cache-dir or $REPRO_CACHE_DIR name.
        registry = ProtocolRegistry()
        corpus = SageService(registry)._load_corpus(args.protocol)
        reports = {}
        for parser in (CCGChartParser(registry.lexicon()), registry.parser()):
            stage = ParseStage(parser, registry.chunker())
            reports[parser.name] = parse_report(stage, corpus)
        parity = len({tuple(s["lf_set_sha1"] for s in report["sentences"])
                      for report in reports.values()}) == 1
        if args.json:
            _print_payload("parse_comparison", {
                "protocol": args.protocol, "parity": parity,
                "backends": {name: {k: v for k, v in rep.items()
                                    if k != "sentences"}
                             for name, rep in reports.items()},
            }, out)
        else:
            print(f"{args.protocol}: parser comparison "
                  f"({'parity OK' if parity else 'PARITY MISMATCH'})",
                  file=out)
            for name, report in reports.items():
                print(f"  {name:<10} {report['sentences_per_s']:8.1f} "
                      f"sentences/s  ({report['sentence_count']} sentences, "
                      f"{report['unparsed']} unparsed, "
                      f"{report['pruned_sentences']} pruned)", file=out)
        return 0 if parity else 1
    report = service.parse_diagnostics(args.protocol)
    if args.json:
        _print_payload("parse_diagnostics", report, out)
        return 0
    print(f"{report['protocol']} via {report['parser_backend']}: "
          f"{report['sentence_count']} sentences in "
          f"{report['elapsed_s']:.3f}s "
          f"({report['sentences_per_s']:.1f}/s, "
          f"{report['parsed_from_cache']} cached)", file=out)
    print(f"  unparsed: {report['unparsed']}  "
          f"pruned: {report['pruned_sentences']}", file=out)
    if args.sentences:
        for sentence in report["sentences"]:
            flags = []
            if sentence["subject_supplied"]:
                flags.append("subject-supplied")
            if sentence["pruned"]:
                flags.append(f"pruned(-{sentence['dropped_items']})")
            if sentence["unknown_words"]:
                flags.append("unknown: " + ",".join(sentence["unknown_words"]))
            suffix = f"  [{'; '.join(flags)}]" if flags else ""
            print(f"  #{sentence['index']:>3} LFs={sentence['lf_count']:<3}"
                  f" {sentence['text'][:60]}{suffix}", file=out)
    if args.profile:
        _print_profile(report["profile"], out)
    return 0


def _cmd_winnow(service: SageService, args, out) -> int:
    """Winnow diagnostics: the §4.2 check suite in isolation."""
    report = service.winnow_diagnostics(args.protocol)
    if args.json:
        _print_payload("winnow_diagnostics", report, out)
        return 0
    print(f"{report['protocol']}: winnowed {report['sentence_count']} "
          f"sentences in {report['elapsed_s']:.3f}s "
          f"({report['sentences_per_s']:.1f}/s)", file=out)
    print(f"  still ambiguous: {report['ambiguous_after_winnowing']}",
          file=out)
    cache_stats = report.get("winnow_cache")
    if cache_stats:
        line = (f"  winnow cache: {cache_stats.get('size', 0)} entries, "
                f"{cache_stats.get('hits', 0)} hits, "
                f"{cache_stats.get('misses', 0)} misses")
        if "disk_hits" in cache_stats:
            line += f" ({cache_stats['disk_hits']} from disk)"
        print(line, file=out)
    if args.sentences:
        for sentence in report["sentences"]:
            counts = sentence["counts"]
            stages = " > ".join(str(counts[stage]) for stage in counts)
            flag = "  [ambiguous]" if sentence["ambiguous"] else ""
            print(f"  #{sentence['index']:>3} {stages:<24} "
                  f"{sentence['text'][:56]}{flag}", file=out)
    if args.profile:
        _print_profile(report["profile"], out)
    return 0


def _cmd_emit(service: SageService, args, out) -> int:
    from .contracts import to_json

    artifact = service.artifact(args.protocol, backend=args.backend,
                                mode=args.mode)
    if args.json:
        text = to_json(artifact)
    else:
        text = artifact.source
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {args.output} "
              f"(sha1 {artifact.fingerprint[:12]})", file=out)
    else:
        print(text, file=out)
    return 0


def _cmd_fuzz(service: SageService, args, out) -> int:
    """Differential fuzzing: a seeded campaign, or one saved case replayed."""
    from ..fuzz import DifferentialRunner, Episode, load_case, save_case, shrink

    def runner_for(protocol: str) -> DifferentialRunner:
        from .contracts import code_unit_of

        runs = service.engine(args.mode).process_corpora([protocol])
        return DifferentialRunner(
            {name: code_unit_of(run) for name, run in runs.items()})

    if args.replay:
        try:
            episode = load_case(args.replay)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            raise RequestError(
                f"cannot replay {args.replay}: {exc}") from exc
        runner = runner_for(episode.protocol)
        divergences, violations, _traces = runner.run_episode(episode)
        failed = bool(divergences or violations)
        if args.json:
            _print_payload("fuzz_replay", {
                "episode": episode.to_dict(),
                "divergences": [d.to_dict() for d in divergences],
                "violations": [v.to_dict() for v in violations],
                "clean": not failed,
            }, out)
        else:
            print(f"replayed {episode.key}: "
                  f"{len(divergences)} divergences, "
                  f"{len(violations)} violations", file=out)
            for divergence in divergences:
                print(f"  {divergence.backend_a}|{divergence.backend_b} "
                      f"at {divergence.path}: {divergence.left!r} != "
                      f"{divergence.right!r}", file=out)
            for violation in violations:
                print(f"  [{violation.backend}] {violation.message}",
                      file=out)
        return 1 if failed else 0

    report = service.fuzz(seed=args.seed, episodes=args.episodes,
                          protocols=tuple(args.protocol),
                          families=tuple(args.family), mode=args.mode)
    # A divergence must leave a replayable artifact behind: shrink the
    # first one and write the case file before reporting.
    cases = []
    if report["divergences"]:
        first = report["divergences"][0]
        episode = Episode.from_dict(first["episode"])
        runner = runner_for(episode.protocol)
        try:
            smallest = shrink(episode, runner.diverges)
        except ValueError:
            smallest = episode  # no longer reproduces; save it unshrunk
        path = save_case(smallest, args.case_dir,
                         note=f"diverges at {first['path']} "
                              f"({first['pair']})")
        cases.append(str(path))
    report["cases"] = cases

    if args.json:
        _print_payload("fuzz_report", report, out)
        return 0 if report["clean"] else 1
    print(f"fuzz seed {report['seed']}: {report['episodes']} episodes "
          f"across {', '.join(report['backends'])} — "
          f"{len(report['divergences'])} divergences, "
          f"{len(report['violations'])} violations "
          f"[{'clean' if report['clean'] else 'NOT CLEAN'}]", file=out)
    for pair, protocols in sorted(report["matrix"].get("cells", {}).items()):
        for protocol, families in sorted(protocols.items()):
            for family, cell in sorted(families.items()):
                verdict = "ok" if cell["pass"] else "DIVERGED"
                print(f"  {pair:<17} {protocol:<5} {family:<18} "
                      f"{cell['episodes']:>3} episodes  {verdict}", file=out)
    for protocol, entry in sorted(report["c_fingerprints"].items()):
        lock = "stable" if entry["stable"] else "UNSTABLE"
        print(f"  c lock: {protocol:<5} {entry['sha1'][:12]} {lock}",
              file=out)
    print(f"  traces sha1 {report['traces_sha1']}", file=out)
    for divergence in report["divergences"][:5]:
        print(f"  divergence {divergence['episode']['protocol']}/"
              f"{divergence['episode']['family']} "
              f"({divergence['pair']}) at {divergence['path']}", file=out)
    for violation in report["violations"][:5]:
        print(f"  violation [{violation['backend']}] {violation['message']}",
              file=out)
    for case in cases:
        print(f"  case saved: {case} "
              f"(replay: python -m repro fuzz --replay {case})", file=out)
    return 0 if report["clean"] else 1


def _cmd_cache(service: SageService, args, out) -> int:
    """Persistent-cache maintenance over the service's registry store."""
    from ..counters import hit_rate
    from .contracts import SweepRequest

    registry = service.registry
    store = registry.cache_store()
    if store is None:
        raise RequestError(
            "no persistent cache configured: pass --cache-dir PATH or set "
            "the REPRO_CACHE_DIR environment variable"
        )

    if args.action == "clear":
        removed = store.clear()
        for cache in (registry.run_cache(), registry.parse_cache(),
                      registry.winnow_cache(), registry.compiled_cache()):
            cache.clear()
        if args.json:
            _print_payload("cache_clear",
                           {"root": store.root, "removed": removed}, out)
        else:
            print(f"cleared {removed} entries from {store.root}", file=out)
        return 0

    if args.action == "warm":
        response = service.sweep(SweepRequest(mode=args.mode))

        def _layer(cache) -> dict:
            stats = cache.stats()
            stats.pop("store", None)
            return {**stats,
                    "hit_rate": hit_rate(stats["hits"], stats["misses"])}

        data = {
            "root": store.root,
            "protocols": list(response.protocols),
            "parse": _layer(registry.parse_cache()),
            "winnow": _layer(registry.winnow_cache()),
            "run": _layer(registry.run_cache()),
            "store": store.stats(),
        }
        if args.json:
            _print_payload("cache_warm", data, out)
        else:
            print(f"warmed {len(data['protocols'])} protocols into "
                  f"{store.root}", file=out)
            for name in ("parse", "winnow", "run"):
                layer = data[name]
                print(f"  {name}: {layer.get('size', 0)} entries, "
                      f"{layer.get('hits', 0)} hits "
                      f"({layer.get('disk_hits', 0)} from disk), "
                      f"{layer.get('misses', 0)} misses "
                      f"[hit rate {_render_rate(layer['hit_rate'])}]",
                      file=out)
        return 0

    # `cache stats`: report the footprint *and* verify it — a store full
    # of corrupt entries is a store that silently recomputes everything,
    # and that must be a loud non-zero exit, not a quiet quarantine.
    verification = store.verify()
    stats = store.stats()
    stats["verification"] = verification
    if args.json:
        _print_payload("cache_stats", stats, out)
    else:
        print(f"cache store {stats['root']} "
              f"(layout v{stats['layout_version']})", file=out)
        for namespace, entry in sorted(stats["namespaces"].items()):
            print(f"  {namespace:<10} {entry['entries']:>5} entries, "
                  f"{entry['bytes']} bytes", file=out)
        print(f"  quarantine {stats['quarantine_entries']:>5} entries",
              file=out)
        print(f"  verified   {verification['checked']:>5} entries, "
              f"{verification['corrupt']} corrupt", file=out)
    if verification["corrupt"]:
        from .errors import CacheCorruption

        raise CacheCorruption(store.root, verification["corrupt"],
                              verification["checked"])
    return 0


def _render_rate(rate: float | None) -> str:
    return "n/a (no lookups)" if rate is None else f"{rate:.1%}"


def _cmd_serve(args, out) -> int:
    """Boot the asyncio HTTP front end (blocks until SIGINT or SIGTERM,
    then waits for the pool workers to exit).

    Unlike every other subcommand this does *not* build a service in this
    process first: with a process pool, each worker constructs its own
    service over the shared cache directory, and building one here would
    only burn memory in a parent that never answers requests.
    """
    from ..server import ReproServer
    from .service import ServiceConfig

    config = ServiceConfig(cache_dir=args.cache_dir, journal_path=args.journal,
                           bundled_rewrites=not args.no_bundled_rewrites)
    server = ReproServer(args.host, args.port, config=config,
                         workers=args.workers, deadline_s=args.deadline)

    def announce(server) -> None:
        pool = server.pool
        plural = "" if pool.workers == 1 else "s"
        print(f"serving on {server.url} ({pool.mode} mode, "
              f"{pool.workers} worker{plural}; "
              f"cache {args.cache_dir or 'in-memory'})", file=out,
              flush=True)

    server.run(announce)
    return 0


_COMMANDS = {
    "process": _cmd_process,
    "sweep": _cmd_sweep,
    "parse": _cmd_parse,
    "winnow": _cmd_winnow,
    "resolve": _cmd_resolve,
    "emit": _cmd_emit,
    "fuzz": _cmd_fuzz,
    "cache": _cmd_cache,
}


def main(argv: list[str] | None = None, out=None) -> int:
    args = _build_parser().parse_args(argv)
    # The one place $REPRO_CACHE_DIR is read: below this boundary a
    # registry opens a store only when given a directory.
    args.cache_dir = (args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
                      or None)
    out = out or sys.stdout
    try:
        if args.command == "serve":
            return _cmd_serve(args, out)
        from .service import ServiceConfig

        service = ServiceConfig(
            args.cache_dir, args.journal,
            bundled_rewrites=not args.no_bundled_rewrites).build_service()
        return _COMMANDS[args.command](service, args, out)
    except ApiError as exc:
        if getattr(args, "json", False):
            print(json.dumps(exc.to_dict()), file=sys.stderr)
        else:
            print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # Downstream closed the pipe (`... | head`); exit quietly, pointing
        # stdout at devnull so interpreter shutdown does not re-raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
