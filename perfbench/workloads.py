"""The closed-loop workloads: cold compile, warm CLI boot, fuzz campaign.

Each workload object has the same shape:

* ``setup()`` does everything before the first timed operation, one
  checked warm-up operation included;
* ``op(index)`` runs one operation and returns an :class:`OpResult`;
* ``block`` ops together run the workload's whole mix once; throughput is
  the median over blocks of units per second;
* ``finish()`` runs the checks that cover the whole run and returns False
  if one failed;
* ``trace_on(tracer_dir)`` / ``trace_off()`` switch the layer wrappers
  on and off for the traced run; ``peak_rss_mb()`` is the program's peak.

Every input comes from the seed passed to the constructor.
"""

from __future__ import annotations

import os
import random
import shutil
import sys
import time
from typing import NamedTuple

from . import common, tracer as tracing

PROTOCOLS = ("ICMP", "IGMP", "NTP", "BFD")

#: Sentences in the four bundled corpora.
CORPUS_SENTENCES = {"ICMP": 87, "IGMP": 11, "NTP": 9, "BFD": 27}

#: Revised-mode status tallies per protocol, written down by hand.
EXPECTED_STATUS = {
    "ICMP": {"non-actionable": 42, "ok": 35, "rewritten": 10},
    "IGMP": {"non-actionable": 5, "ok": 6},
    "NTP": {"non-actionable": 8, "ok": 1},
    "BFD": {"non-actionable": 8, "ok": 17, "rewritten": 2},
}


class OpResult(NamedTuple):
    """One timed operation."""

    #: Wall time of the work a user waits for.
    seconds: float
    #: CPU time the program spent on it.
    cpu: float
    #: The output matched its reference.
    ok: bool
    #: Work done (sentences or episodes), for the throughput figure.
    units: int
    #: The operation's kind (the CLI command for warm boot).
    kind: str


def _tallies(runs: dict) -> dict:
    return {name: {str(status): count
                   for status, count in run.by_status().items()}
            for name, run in runs.items()}


class ColdCompile:
    """The spec author's loop: every memo cold, a fresh empty store, the
    four corpora compiled in revised mode and rendered to C."""

    name = "cold_compile"
    block = 1

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.tracer = None
        self.stores: list[str] = []

    def setup(self) -> None:
        self.golden_c = common.GOLDEN_ICMP_C.read_text(encoding="utf-8")
        if not self.op(-1).ok:
            raise RuntimeError("cold_compile warm-up produced wrong output")

    def op(self, index: int):
        from repro.core import SageEngine
        from repro.disambiguation.checks import reset_winnow_state
        from repro.parsing.indexed import reset_parser_state
        from repro.rfc.registry import ProtocolRegistry

        order = list(PROTOCOLS)
        self.rng.shuffle(order)
        store = common.fresh_dir("cold-store")
        if self.tracer is not None:
            self.tracer.op = index
        started = time.perf_counter()
        cpu = time.process_time()
        reset_parser_state()
        reset_winnow_state()
        registry = ProtocolRegistry(cache_dir=store)
        engine = SageEngine(mode="revised", protocol_registry=registry)
        runs = engine.process_corpora(order, parallel=False)
        sources = {name: run.code_unit.render_c()
                   for name, run in runs.items()}
        seconds = time.perf_counter() - started
        cpu = time.process_time() - cpu
        # Stores are deleted at teardown: deleting one here would put its
        # journal traffic inside the next op's timing.
        self.stores.append(store)
        ok = (list(runs) == order
              and _tallies(runs) == EXPECTED_STATUS
              and sources["ICMP"] + "\n" == self.golden_c)
        return OpResult(seconds, cpu, ok, sum(CORPUS_SENTENCES.values()),
                        self.name)

    def finish(self) -> bool:
        return True

    def trace_on(self, out_dir: str) -> None:
        self.tracer = tracing.Tracer(out_dir)
        tracing.install(self.tracer)

    def trace_off(self) -> None:
        tracing.uninstall(self.tracer)
        self.tracer.write()
        self.tracer = None

    def peak_rss_mb(self) -> float:
        return common.self_peak_rss_mb()

    def teardown(self) -> None:
        for store in self.stores:
            shutil.rmtree(store, ignore_errors=True)
        self.stores = []


#: The CLI commands a warm-boot op draws from.
CLI_COMMANDS = (
    ("process", "ICMP"), ("process", "IGMP"), ("process", "NTP"),
    ("process", "BFD"), ("sweep", "--all"),
)


def _store_listing(store: str) -> list[str]:
    """Every file under a cache store, as sorted relative paths."""
    listing = []
    for directory, _dirs, files in os.walk(store):
        for name in files:
            listing.append(os.path.relpath(os.path.join(directory, name),
                                           store))
    return sorted(listing)


class WarmBoot:
    """``python -m repro <cmd> --cache-dir STORE --json`` on a warm store:
    import, substrate build, store reads and decode, generate/assemble and
    envelope encode, in a new process every time."""

    name = "warm_boot"

    #: Ops per block: each block runs every command once, in seeded order,
    #: so every run sends the same mix.
    block = len(CLI_COMMANDS)

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.trace_dir: str | None = None
        self.peak = 0.0
        self.pending: list = []

    def setup(self) -> None:
        from repro.api import SageService
        from repro.api.contracts import ProcessRequest, SweepRequest, to_json
        from repro.rfc.registry import ProtocolRegistry

        self.store = common.fresh_dir("warm-store")
        SageService(registry=ProtocolRegistry(cache_dir=self.store)).sweep(
            SweepRequest(parallel=False))
        # The reference answers come from a second, warm registry over the
        # same store, exactly as the CLI will see it.
        reference = SageService(registry=ProtocolRegistry(cache_dir=self.store))
        self.expected = {}
        for command in CLI_COMMANDS:
            if command[0] == "process":
                response = reference.process(ProcessRequest(protocol=command[1]))
            else:
                response = reference.sweep(SweepRequest())
            self.expected[command] = (to_json(response) + "\n").encode("utf-8")
        self.listing = _store_listing(self.store)
        if not self._run(("process", "NTP")).ok:
            raise RuntimeError("warm_boot warm-up produced wrong output")
        self.peak = 0.0

    def op(self, index: int):
        if not self.pending:
            self.pending = list(CLI_COMMANDS)
            self.rng.shuffle(self.pending)
        return self._run(self.pending.pop())

    def _run(self, command: tuple[str, str]):
        if self.trace_dir is None:
            entry = ["-m", "repro"]
        else:
            entry = [str(common.BENCH_DIR / "traced_main.py"),
                     "--trace-dir", self.trace_dir]
        argv = [sys.executable, *entry, *command,
                "--cache-dir", self.store, "--json"]
        code, out, err, seconds, cpu, rss = common.run_child(argv)
        self.peak = max(self.peak, rss)
        ok = code == 0 and out == self.expected[command]
        if not ok:
            sys.stderr.write(err.decode("utf-8", "replace")[-2000:])
        units = (sum(CORPUS_SENTENCES.values()) if command[0] == "sweep"
                 else CORPUS_SENTENCES[command[1]])
        return OpResult(seconds, cpu, ok, units, " ".join(command))

    def finish(self) -> bool:
        """A warm op never misses: any parse or winnow miss would have
        published a new store entry (or quarantined a bad one)."""
        return _store_listing(self.store) == self.listing

    def trace_on(self, out_dir: str) -> None:
        self.trace_dir = out_dir

    def trace_off(self) -> None:
        self.trace_dir = None

    def peak_rss_mb(self) -> float:
        return self.peak

    def teardown(self) -> None:
        pass


#: Scenario families and backends, pinned so that a change to the fuzzer's
#: defaults does not silently change this workload.
FUZZ_FAMILIES = (
    "ping", "traceroute-switch", "fault-ping",
    "query", "report", "fault-query",
    "timeout", "mode-matrix", "tick-jitter",
    "handshake", "packet-storm", "lossy-handshake",
)
FUZZ_BACKENDS = ("reference", "python", "interp")
FUZZ_EPISODES = 100


class FuzzCampaign:
    """One ``run_fuzz`` campaign per op: the generated code (exec-Python
    and the IR interpreter) against the hand-written peers on netsim."""

    name = "fuzz_campaign"
    block = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.tracer = None

    def setup(self) -> None:
        from repro.core import SageEngine
        from repro.rfc.registry import ProtocolRegistry

        engine = SageEngine(mode="revised",
                            protocol_registry=ProtocolRegistry())
        runs = engine.process_corpora(list(PROTOCOLS), parallel=False)
        self.units = {name: run.code_unit for name, run in runs.items()}
        if not self.op(-1).ok:
            raise RuntimeError("fuzz_campaign warm-up found a divergence")

    def op(self, index: int):
        from repro.fuzz import run_fuzz

        campaign_seed = random.Random(f"{self.seed}:{index}").randrange(2 ** 32)
        if self.tracer is not None:
            self.tracer.op = index
        started = time.perf_counter()
        cpu = time.process_time()
        report = run_fuzz(self.units, seed=campaign_seed,
                          episodes=FUZZ_EPISODES, protocols=PROTOCOLS,
                          families=FUZZ_FAMILIES, backends=FUZZ_BACKENDS)
        seconds = time.perf_counter() - started
        cpu = time.process_time() - cpu
        ok = (report.episodes == FUZZ_EPISODES and not report.divergences
              and not report.violations)
        return OpResult(seconds, cpu, ok, FUZZ_EPISODES, self.name)

    def finish(self) -> bool:
        return True

    trace_on = ColdCompile.trace_on
    trace_off = ColdCompile.trace_off
    peak_rss_mb = ColdCompile.peak_rss_mb

    def teardown(self) -> None:
        pass
