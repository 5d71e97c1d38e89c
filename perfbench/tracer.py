"""Span tracing around the public functions of each ``repro`` layer.

The benchmark measures its end-to-end numbers with nothing installed.  A
traced run (``--trace 1``) calls :func:`install`, which replaces the
public functions listed in :func:`_targets` with wrappers that record
one span per call: ``(name, start, end, parent, op id, value)``.  Spans
stay in memory and are written out once, when the process ends (or when
the benchmark asks), as ``spans-<pid>.json`` under the trace directory.
Forked children (the server's worker pool, sweep fan-out workers) inherit
the wrappers, start with an empty span list, and write their own file when
they exit, so every process returns its spans at the end.

``perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, so span times from
different processes share one time base and the benchmark can keep only
the spans that started inside its measurement window.

A call to a traced function from inside a span of the same name (the
recursive ``first_difference``, a subclass ``parse`` calling its base) is
not recorded again: self time stays with the outermost span.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import sys
import time
from multiprocessing import util as mp_util

#: Raw spans kept per process; later spans are counted but not stored.
SPAN_CAP = 400_000


class Tracer:
    """Per-process span store (see module docstring)."""

    def __init__(self, out_dir: str, auto_op: bool = False) -> None:
        self.out_dir = out_dir
        #: Count a new op each time a span opens with no span open
        #: (server workers, where one root span is one request).
        self.auto_op = auto_op
        self.op = 0
        self.names: dict[str, int] = {}
        self.spans: list = []
        self.dropped = 0
        self.stack: list = []
        self.baseline = _profile_counts()
        self.written = False
        self.active = True
        #: (owner, attribute, original) for every wrapper installed.
        self.installed: list = []

    def reset_after_fork(self) -> None:
        """A forked child keeps the wrappers but none of the parent's spans."""
        if not self.active:
            return
        self.spans = []
        self.stack = []
        self.dropped = 0
        self.op = 0
        self.baseline = _profile_counts()
        self.written = False
        mp_util.Finalize(self, self.write, exitpriority=10)

    def wrap(self, fn, name, value=None):
        """``fn`` recording one span per call.

        ``name`` is the span name, or a callable taking the call's
        positional arguments and returning it.  ``value(args, result)``
        gives the integer stored with the span (bytes, hit flags).
        """
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            stack = tracer.stack
            if stack and stack[-1][0] == label:
                return fn(*args, **kwargs)
            if tracer.auto_op and not stack:
                tracer.op += 1
            parent = stack[-1][1] if stack else -1
            spans = tracer.spans
            if len(spans) < SPAN_CAP:
                index = len(spans)
                spans.append(None)
            else:
                index = -1
                tracer.dropped += 1
            stack.append((label, index))
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if index >= 0:
                    name_id = tracer.names.setdefault(label, len(tracer.names))
                    stored = value(args, result) if value is not None else 0
                    spans[index] = (name_id, start, end, parent, tracer.op,
                                    stored)

        return traced

    def write(self) -> str | None:
        """Write this process's spans and profile-counter deltas once."""
        if self.written:
            return None
        self.written = True
        after = _profile_counts()
        record = {
            "pid": os.getpid(),
            "names": sorted(self.names, key=self.names.get),
            # Open spans stay None so that parent indexes remain valid.
            "spans": self.spans,
            "dropped": self.dropped,
            "counters": {
                group: {key: after[group][key] - self.baseline[group][key]
                        for key in after[group]}
                for group in after
            },
        }
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, separators=(",", ":"))
        return path


def _profile_counts() -> dict:
    """The parser and winnow profile counters (process-global snapshots)."""
    from repro.disambiguation.profile import PROFILE as WINNOW
    from repro.parsing.profile import PROFILE as PARSE

    return {"parsing": PARSE.counts(), "disambiguation": WINNOW.counts()}


# -- what gets wrapped ---------------------------------------------------------

def _len_result(args, result) -> int:
    return len(result) if result is not None else 0


def _put_bytes(args, result) -> int:
    # CacheStore.put(self, namespace, key, payload): payload plus the
    # 24-byte entry header the store writes in front of it.
    return len(args[3]) + 24


def _from_cache(args, result) -> int:
    return 1 if result is not None and result.from_cache else 0


def _hit(args, result) -> int:
    return 0 if result is None else 1


def _replay_name(args) -> str:
    # DifferentialRunner.trace(self, episode, backend)
    return "fuzz.replay." + args[2]


def _targets():
    """(owner, attribute, span name, value hook), in install order."""
    from repro.api import binenc, contracts
    from repro.cache import persistent
    from repro.cache.store import CacheStore
    from repro.ccg.chart import CCGChartParser
    from repro.codegen.context import ContextResolver
    from repro.codegen.handlers import HandlerRegistry
    from repro.codegen.ir import Program
    from repro.core import stages
    from repro.core.engine import SageEngine
    from repro.fuzz import runner
    from repro.fuzz.generator import TraceGenerator
    from repro.nlp.chunker import NounPhraseChunker
    from repro.parsing.indexed import IndexedChartParser
    from repro.rfc.registry import CompiledProgramCache, ProtocolRegistry
    from repro.server import pool

    return [
        (NounPhraseChunker, "chunk_text", "nlp.chunk", None),
        (CCGChartParser, "parse", "parsing.parse", None),
        (IndexedChartParser, "parse", "parsing.parse", None),
        (stages, "winnow", "disambiguation.winnow", None),
        (stages.ParseStage, "run", "core.parse_stage", _from_cache),
        (stages.WinnowStage, "run", "core.winnow_stage", None),
        (stages.WinnowStage, "cache_key", "core.winnow_key", None),
        (SageEngine, "process_corpora", "core.process_corpora", None),
        (ContextResolver, "resolve", "codegen.context", None),
        (HandlerRegistry, "generate", "codegen.generate", None),
        (stages.GenerateStage, "assemble", "codegen.assemble", None),
        (Program, "render_c", "codegen.emit_c", None),
        (CacheStore, "get", "cache.store.get", None),
        (CacheStore, "put", "cache.store.put", _put_bytes),
        (persistent.PersistentParseCache, "get", "cache.persistent", None),
        (persistent.PersistentParseCache, "put", "cache.persistent", None),
        (persistent.PersistentWinnowCache, "get", "cache.persistent", None),
        (persistent.PersistentWinnowCache, "put", "cache.persistent", None),
        (persistent.PersistentCompiledCache, "get_source",
         "cache.persistent", None),
        (persistent.PersistentCompiledCache, "put_source",
         "cache.persistent", None),
        (contracts.ProcessResponse, "from_run", "api.from_run", None),
        (contracts, "to_json", "api.encode", _len_result),
        (binenc, "to_bytes", "api.encode", _len_result),
        (pool, "run_endpoint", "server.run_endpoint", None),
        (TraceGenerator, "episodes", "fuzz.generate", None),
        (runner.DifferentialRunner, "trace", _replay_name, None),
        (runner, "check_trace", "fuzz.oracles", None),
        (runner, "first_difference", "fuzz.compare", None),
        (runner, "make_peer", "runtime.make_peer", None),
        (CompiledProgramCache, "get", "runtime.compiled_get", _hit),
        (ProtocolRegistry, "lexicon", "rfc.substrate", None),
        (ProtocolRegistry, "parser", "rfc.substrate", None),
    ]


def install(tracer: Tracer) -> None:
    """Wrap every target; module functions are rebound in every ``repro``
    module that imported them by name, so callers see the wrapper."""
    for owner, attribute, name, value in _targets():
        raw = owner.__dict__.get(attribute)
        if raw is None:
            # Inherited method: shadow it on this class only; uninstall
            # removes the shadow again.
            setattr(owner, attribute,
                    tracer.wrap(getattr(owner, attribute), name, value))
            tracer.installed.append((owner, attribute, None))
        elif isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(raw.__func__, name, value))
            setattr(owner, attribute, wrapped)
            tracer.installed.append((owner, attribute, raw))
        elif isinstance(owner, type):
            setattr(owner, attribute, tracer.wrap(raw, name, value))
            tracer.installed.append((owner, attribute, raw))
        else:
            wrapped = tracer.wrap(raw, name, value)
            for module in list(sys.modules.values()):
                module_name = getattr(module, "__name__", "") or ""
                if (module_name.startswith("repro")
                        and getattr(module, attribute, None) is raw):
                    setattr(module, attribute, wrapped)
                    tracer.installed.append((module, attribute, raw))
    mp_util.register_after_fork(tracer, Tracer.reset_after_fork)


def uninstall(tracer: Tracer) -> None:
    """Restore every wrapped function (in-process workloads)."""
    tracer.active = False
    while tracer.installed:
        owner, attribute, raw = tracer.installed.pop()
        if raw is None:
            delattr(owner, attribute)
        else:
            setattr(owner, attribute, raw)


def install_for_process(out_dir: str, auto_op: bool = False) -> Tracer:
    """Tracer for a whole child process: spans are written at exit."""
    tracer = Tracer(out_dir, auto_op=auto_op)
    install(tracer)
    atexit.register(tracer.write)
    return tracer


# -- reading spans back --------------------------------------------------------

def load_dumps(out_dir: str) -> list[dict]:
    dumps = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(out_dir, name), encoding="utf-8") as handle:
                dumps.append(json.load(handle))
    return dumps


def aggregate(dumps: list[dict], window: tuple[float, float] | None = None
              ) -> dict:
    """Per span name: calls, total time, self time and summed values, over
    every process's spans that started inside ``window``.

    Also counts winnow spans whose parent is a winnow-stage span (stage
    cache misses) and sums the processes' profile-counter deltas.
    """
    totals: dict[str, list] = {}
    counters: dict[str, dict] = {}
    stage_misses = 0
    dropped = 0
    for dump in dumps:
        names = dump["names"]
        spans = dump["spans"]
        dropped += dump.get("dropped", 0)
        child_time: dict[int, float] = {}
        for span in spans:
            if span is None:
                continue
            parent = span[3]
            if parent >= 0:
                child_time[parent] = (child_time.get(parent, 0.0)
                                      + span[2] - span[1])
        for index, span in enumerate(spans):
            if span is None:
                continue
            name_id, start, end, parent = span[0], span[1], span[2], span[3]
            if window is not None and not (window[0] <= start < window[1]):
                continue
            name = names[name_id]
            entry = totals.setdefault(name, [0, 0.0, 0.0, 0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time.get(index, 0.0)
            entry[3] += span[5]
            if (name == "disambiguation.winnow" and parent >= 0
                    and spans[parent] is not None
                    and names[spans[parent][0]] == "core.winnow_stage"):
                stage_misses += 1
        for group, deltas in dump["counters"].items():
            merged = counters.setdefault(group, {})
            for key, delta in deltas.items():
                merged[key] = merged.get(key, 0) + delta
    return {"totals": totals, "counters": counters,
            "winnow_stage_misses": stage_misses, "dropped": dropped}
