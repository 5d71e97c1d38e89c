"""The persistent content-addressed cache store: byte-level store
semantics (atomic publish, corruption quarantine, clear/stats), the
promoted parse/compiled caches sharing warm state across registry
instances, `REPRO_CACHE_DIR` pickup at the command line, and a
multiprocessing stress test racing writers into one store directory."""

import multiprocessing
import os

import pytest

from repro.cache import (
    COMPILED_NAMESPACE,
    PARSE_NAMESPACE,
    RUN_NAMESPACE,
    WINNOW_NAMESPACE,
    CacheStore,
    ContentCache,
    PersistentCompiledCache,
    PersistentParseCache,
    PersistentRunCache,
    PersistentWinnowCache,
)
from repro.ccg.chart import ParseResult
from repro.ccg.semantics import Call, Const
from repro.rfc.registry import CompiledProgramCache, ProtocolRegistry


# -- the byte-level store ------------------------------------------------------

class TestCacheStore:
    def test_round_trip(self, tmp_path):
        store = CacheStore(tmp_path)
        assert store.put("ns", "key-1", b"payload-1")
        assert store.get("ns", "key-1") == b"payload-1"
        assert store.stats()["disk_hits"] == 1
        assert store.stats()["writes"] == 1

    def test_absent_key_is_a_miss(self, tmp_path):
        store = CacheStore(tmp_path)
        assert store.get("ns", "nope") is None
        assert store.stats()["disk_misses"] == 1

    def test_identical_rewrites_dedupe_to_one_entry(self, tmp_path):
        store = CacheStore(tmp_path)
        store.put("ns", "key", b"same")
        store.put("ns", "key", b"same")
        assert store.entry_count("ns") == 1
        assert store.get("ns", "key") == b"same"

    def test_layout_is_versioned_and_sharded(self, tmp_path):
        store = CacheStore(tmp_path)
        store.put("parse", "some-key", b"x")
        path = store.path_for("parse", "some-key")
        assert path.startswith(os.path.join(str(tmp_path), "v1", "parse"))
        assert os.path.exists(path)
        # Two-hex-char shard directory between namespace and entry.
        shard = os.path.basename(os.path.dirname(path))
        assert len(shard) == 2

    def test_corrupt_entry_quarantined_and_recomputable(self, tmp_path):
        store = CacheStore(tmp_path)
        store.put("ns", "key", b"good-bytes")
        path = store.path_for("ns", "key")
        with open(path, "wb") as handle:
            handle.write(b"garbage that is not an entry")
        # The corrupt file reads as a miss and moves to quarantine/ ...
        assert store.get("ns", "key") is None
        assert store.quarantine_count() == 1
        assert not os.path.exists(path)
        assert store.stats()["quarantined"] == 1
        # ... and the slot accepts a recompute.
        assert store.put("ns", "key", b"good-bytes")
        assert store.get("ns", "key") == b"good-bytes"

    def test_truncated_payload_is_detected(self, tmp_path):
        store = CacheStore(tmp_path)
        store.put("ns", "key", b"a" * 100)
        path = store.path_for("ns", "key")
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[:-10])  # valid magic, torn payload
        assert store.get("ns", "key") is None
        assert store.quarantine_count() == 1

    def test_clear_removes_entries_and_quarantine(self, tmp_path):
        store = CacheStore(tmp_path)
        store.put("a", "k1", b"1")
        store.put("b", "k2", b"2")
        with open(store.path_for("a", "k1"), "wb") as handle:
            handle.write(b"junk")
        store.get("a", "k1")  # quarantines
        assert store.clear() == 1  # k2 (k1 already moved to quarantine)
        assert store.entry_count() == 0
        assert store.quarantine_count() == 0
        assert store.get("b", "k2") is None

    def test_stats_reports_namespace_footprint(self, tmp_path):
        store = CacheStore(tmp_path)
        store.put("parse", "k", b"abc")
        stats = store.stats()
        assert stats["layout_version"] == 1
        assert stats["namespaces"]["parse"]["entries"] == 1
        assert stats["namespaces"]["parse"]["bytes"] > 0

    def test_verify_clean_store(self, tmp_path):
        store = CacheStore(tmp_path)
        store.put("a", "k1", b"one")
        store.put("b", "k2", b"two")
        assert store.verify() == {"checked": 2, "corrupt": 0}
        assert store.quarantine_count() == 0

    def test_verify_quarantines_corruption(self, tmp_path):
        store = CacheStore(tmp_path)
        store.put("ns", "good", b"good")
        store.put("ns", "bad", b"soon-torn")
        path = store.path_for("ns", "bad")
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[:-4])  # valid magic, torn payload
        assert store.verify() == {"checked": 2, "corrupt": 1}
        assert store.quarantine_count() == 1
        # The slot is free again: a recompute republishes and verifies clean.
        assert store.put("ns", "bad", b"soon-torn")
        assert store.verify() == {"checked": 2, "corrupt": 0}


class TestCacheCliExitCodes:
    """`python -m repro cache stats` must fail loudly (exit 6) on a
    corrupted store."""

    def _corrupt_one_entry(self, store):
        namespace = store.namespaces()[0]
        path = next(iter(store._entry_paths(namespace)))
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[:-4])

    def test_stats_exit_zero_on_clean_store(self, tmp_path, capsys):
        from repro.api.cli import main as cli_main

        store = CacheStore(tmp_path)
        store.put("parse", "k", b"entry")
        assert cli_main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "verified" in output

    def test_stats_exit_six_on_corrupted_store(self, tmp_path, capsys):
        import json as json_module

        from repro.api.cli import main as cli_main

        store = CacheStore(tmp_path)
        store.put("parse", "k1", b"entry-one")
        store.put("parse", "k2", b"entry-two")
        self._corrupt_one_entry(store)
        code = cli_main(["cache", "stats", "--cache-dir", str(tmp_path),
                         "--json"])
        assert code == 6
        captured = capsys.readouterr()
        error = json_module.loads(captured.err)
        assert error["error"] == "cache-corrupt"
        assert error["corrupt"] == 1
        # the stats payload still printed before the failure
        payload = json_module.loads(captured.out)
        assert payload["data"]["verification"]["corrupt"] == 1


# -- the promoted registry caches ----------------------------------------------

def _parse_value():
    form = Call("Is", (Const("type"), Const("0")))
    result = ParseResult(logical_forms=[form], token_count=3,
                         cells_filled=5, backend="indexed")
    return (result, True)


KEY = ("indexed", "lexsha", "chunkfp", "the type is 0", "type")


class TestPersistentParseCache:
    def test_write_through_and_cross_instance_hit(self, tmp_path):
        store = CacheStore(tmp_path)
        first = PersistentParseCache(store)
        value = _parse_value()
        first.put(KEY, value)

        # A second cache over the same directory — a fresh process in
        # miniature: no shared memory, only the store.
        second = PersistentParseCache(CacheStore(tmp_path))
        got = second.get(KEY)
        assert got == value
        stats = second.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 0
        assert stats["disk_hits"] == 1
        # The disk hit promoted into memory: the next get never touches disk.
        second.get(KEY)
        assert second.stats()["store"]["disk_hits"] == 1

    def test_memory_clear_keeps_disk(self, tmp_path):
        cache = PersistentParseCache(CacheStore(tmp_path))
        cache.put(KEY, _parse_value())
        cache.clear()
        assert cache.get(KEY) == _parse_value()  # a disk hit...
        cache.clear()
        assert len(cache) == 0
        # ...that clear() resets with the other counters.
        assert (cache.stats()["hits"], cache.stats()["disk_hits"]) == (0, 0)
        assert cache.get(KEY) == _parse_value()
        assert cache.stats()["disk_hits"] == 1

    def test_clear_disk_forces_recompute(self, tmp_path):
        cache = PersistentParseCache(CacheStore(tmp_path))
        cache.put(KEY, _parse_value())
        cache.clear()
        assert cache.store.clear() == 1
        assert cache.get(KEY) is None
        assert cache.stats()["misses"] == 1

    def test_corrupt_disk_entry_degrades_to_miss(self, tmp_path):
        store = CacheStore(tmp_path)
        cache = PersistentParseCache(store)
        cache.put(KEY, _parse_value())
        cache.clear()
        # Valid store framing, garbage parse payload: the envelope decode
        # fails and the cache reports an honest miss.
        from repro.cache.persistent import _key_string
        store.put(PARSE_NAMESPACE, _key_string(KEY), b"not a parse entry")
        assert cache.get(KEY) is None
        # The recompute republishes a good copy over it.
        cache.put(KEY, _parse_value())
        cache.clear()
        assert cache.get(KEY) == _parse_value()

    def test_ad_hoc_values_stay_memory_only(self, tmp_path):
        store = CacheStore(tmp_path)
        cache = PersistentParseCache(store)
        cache.put(("weird",), {"not": "a parse entry"})
        assert cache.get(("weird",)) == {"not": "a parse entry"}
        assert store.entry_count(PARSE_NAMESPACE) == 0


class TestPersistentWinnowCache:
    @staticmethod
    def _winnow_value():
        from repro.disambiguation import winnow

        forms = [
            Call("Is", (Const("checksum", span=(0, 1)),
                        Const("0", span=(2, 3)))),
            Call("Is", (Const("0", span=(2, 3)),
                        Const("checksum", span=(0, 1)))),
        ]
        return winnow("the checksum is 0", forms)

    WKEY = ("suite-fp", "substrate-fp", "checksum", "the checksum is 0",
            "lf-digest")

    def test_trace_round_trips_across_instances(self, tmp_path):
        value = self._winnow_value()
        first = PersistentWinnowCache(CacheStore(tmp_path))
        first.put(self.WKEY, value)
        # A second cache over the same directory — a fresh process in
        # miniature: the whole WinnowTrace (stage counts and survivors)
        # must come back from disk alone.
        second = PersistentWinnowCache(CacheStore(tmp_path))
        got = second.get(self.WKEY)
        assert got is not None
        assert got.counts == value.counts
        assert [repr(f) for f in got.survivors] \
            == [repr(f) for f in value.survivors]
        assert second.stats()["disk_hits"] == 1
        assert second.store.entry_count(WINNOW_NAMESPACE) == 1

    def test_corrupt_disk_entry_degrades_to_miss(self, tmp_path):
        from repro.cache.persistent import _key_string

        store = CacheStore(tmp_path)
        cache = PersistentWinnowCache(store)
        cache.put(self.WKEY, self._winnow_value())
        cache.clear()
        store.put(WINNOW_NAMESPACE, _key_string(self.WKEY),
                  b"not a winnow entry")
        assert cache.get(self.WKEY) is None
        assert cache.stats()["misses"] == 1

    def test_warm_boot_recomputes_no_winnow(self, tmp_path):
        """Two registry instances over one store: the second's corpus run
        must answer every winnow from disk — zero recomputes, the
        cross-process warm-boot contract ``scripts/ci.sh`` gates via
        ``python -m repro cache stats``."""
        from repro.core import SageEngine

        def sweep(registry):
            corpus = registry.load_corpus("IGMP")
            engine = SageEngine(mode="revised", protocol_registry=registry)
            return engine.process_corpus(corpus)

        cold = ProtocolRegistry(cache_dir=tmp_path)
        first = sweep(cold)
        assert cold.winnow_cache().stats()["misses"] > 0  # actually winnowed

        warm = ProtocolRegistry(cache_dir=tmp_path)
        second = sweep(warm)
        stats = warm.winnow_cache().stats()
        assert stats["misses"] == 0
        # The whole run came off disk, so no winnow was even looked up;
        # TestRunLayer covers the winnow layer under a run-layer miss.
        assert stats["disk_hits"] + warm.run_cache().stats()["disk_hits"] > 0
        assert second.by_status() == first.by_status()


class TestPersistentCompiledCache:
    def test_source_round_trips_across_instances(self, tmp_path):
        first = PersistentCompiledCache(CacheStore(tmp_path))
        key = ("python", "sha1-of-ir")
        first.put_source(key, "def f():\n    return 1\n")
        second = PersistentCompiledCache(CacheStore(tmp_path))
        assert second.get_source(key) == "def f():\n    return 1\n"
        assert second.get_source(("python", "other")) is None

    def test_base_cache_has_no_disk_layer(self):
        cache = CompiledProgramCache()
        assert cache.get_source(("python", "x")) is None
        cache.put_source(("python", "x"), "src")  # no-op, must not raise
        assert cache.get_source(("python", "x")) is None


# -- registry promotion --------------------------------------------------------

class TestRegistryPromotion:
    def test_no_cache_dir_keeps_plain_caches(self):
        registry = ProtocolRegistry()
        assert registry.cache_store() is None
        assert type(registry.parse_cache()) is ContentCache
        assert type(registry.winnow_cache()) is ContentCache
        assert type(registry.compiled_cache()) is CompiledProgramCache

    def test_cache_dir_promotes_all_caches(self, tmp_path):
        registry = ProtocolRegistry(cache_dir=tmp_path)
        assert registry.cache_store() is not None
        assert isinstance(registry.parse_cache(), PersistentParseCache)
        assert isinstance(registry.winnow_cache(), PersistentWinnowCache)
        assert isinstance(registry.compiled_cache(), PersistentCompiledCache)
        assert isinstance(registry.run_cache(), PersistentRunCache)
        # All promoted caches share the registry's one store.
        assert registry.parse_cache().store is registry.compiled_cache().store
        assert registry.winnow_cache().store is registry.parse_cache().store

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_fork_reset_frees_locks_held_at_fork(self, tmp_path):
        """A child forked while another thread holds the store's or a
        cache's lock inherits it held for good; reset_locks_after_fork
        gives the child fresh ones."""
        registry = ProtocolRegistry(cache_dir=tmp_path)
        store, cache = registry.cache_store(), registry.parse_cache()
        with store._lock, cache._lock:
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    registry.reset_locks_after_fork()
                    if (store._lock.acquire(timeout=5)
                            and cache._lock.acquire(timeout=5)):
                        code = 0
                finally:
                    os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_no_cache_dir_means_no_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        registry = ProtocolRegistry()
        assert registry.cache_dir is None
        assert registry.cache_store() is None
        assert not isinstance(registry.parse_cache(), PersistentParseCache)


class TestCliCacheDir:
    """``$REPRO_CACHE_DIR`` is read at the command line, the one boundary
    that resolves a store for the registry it builds."""

    @staticmethod
    def _store_root(capsys, *argv) -> str:
        import json as json_module

        from repro.api.cli import main as cli_main

        assert cli_main(["cache", "stats", "--json", *argv]) == 0
        return json_module.loads(capsys.readouterr().out)["data"]["root"]

    def test_env_var_pickup(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert self._store_root(capsys) == str(tmp_path)

    def test_explicit_dir_beats_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert (self._store_root(capsys, "--cache-dir", str(tmp_path / "arg"))
                == str(tmp_path / "arg"))


# -- the run layer -------------------------------------------------------------

def _cli(*argv) -> str:
    import io

    from repro.api.cli import main as cli_main

    out = io.StringIO()
    assert cli_main(list(argv), out=out) == 0
    return out.getvalue()


def _run_entry(root) -> str:
    """The path of the one entry in the store's run namespace."""
    store = CacheStore(root)
    paths = list(store._entry_paths(RUN_NAMESPACE))
    assert len(paths) == 1, paths
    return paths[0]


def _rewrite_entry(path, payload: bytes) -> None:
    """Replace an entry's payload, keeping its header valid (magic, then
    the payload's SHA-1), so only decoding can reject it."""
    import hashlib

    with open(path, "rb") as handle:
        magic = handle.read(4)
    with open(path, "wb") as handle:
        handle.write(magic + hashlib.sha1(payload).digest() + payload)


class TestRunLayer:
    """Whole runs persist in the store's ``run`` namespace: a warm process
    reads one entry per protocol, and a damaged entry is never served."""

    def test_cold_service_run_reads_the_run_entry_once(self, tmp_path):
        from repro.api import SageService

        registry = ProtocolRegistry(cache_dir=tmp_path)
        store = registry.cache_store()
        run_reads = []  # disk misses each run-namespace read counted
        read = store.get

        def counted(namespace, key):
            misses = store.disk_misses
            payload = read(namespace, key)
            if namespace == RUN_NAMESPACE:
                run_reads.append(store.disk_misses - misses)
            return payload

        store.get = counted
        SageService(registry=registry).run("IGMP")
        assert run_reads == [1]
        stats = registry.run_cache().stats()
        assert (stats["hits"], stats["misses"]) == (0, 1)

    @pytest.mark.parametrize("damage", ["truncate", "flip"])
    def test_damaged_entry_is_quarantined_and_recomputed(self, tmp_path,
                                                         damage):
        argv = ("process", "IGMP", "--cache-dir", str(tmp_path), "--json")
        expected = _cli(*argv)
        path = _run_entry(tmp_path)
        with open(path, "rb") as handle:
            blob = handle.read()
        if damage == "truncate":
            blob = blob[:len(blob) // 2]
        else:
            blob = blob[:-7] + bytes([blob[-7] ^ 0x10]) + blob[-6:]
        with open(path, "wb") as handle:
            handle.write(blob)

        assert _cli(*argv) == expected
        store = CacheStore(tmp_path)
        assert store.quarantine_count() == 1
        # The recompute republished a good entry.
        assert store.verify() == {"checked": store.entry_count(),
                                  "corrupt": 0}
        assert _run_entry(tmp_path) == path

    def test_entry_failing_fingerprint_verification_fails_on_first_ir_read(
            self, tmp_path, capsys):
        import io
        import json

        from repro.api import SageService
        from repro.api.cli import main as cli_main
        from repro.codegen.ir import FingerprintMismatch

        argv = ("process", "IGMP", "--cache-dir", str(tmp_path), "--json")
        expected = _cli(*argv)
        fingerprint = SageService(registry=ProtocolRegistry(
            cache_dir=tmp_path)).run("IGMP").code_unit.fingerprint()
        path = _run_entry(tmp_path)
        with open(path, "rb") as handle:
            payload = handle.read()[24:]
        assert fingerprint.encode() in payload
        _rewrite_entry(path, payload.replace(fingerprint.encode(),
                                             b"0" * len(fingerprint)))

        # An answer that reads no IR is served from the entry unchanged.
        assert _cli(*argv) == expected
        registry = ProtocolRegistry(cache_dir=tmp_path)
        run = SageService(registry=registry).run("IGMP")
        stats = registry.run_cache().stats()
        assert (stats["hits"], stats["misses"], stats["disk_hits"]) == (1, 0, 1)
        # Its program is checked on first read and never handed out.
        for _ in range(2):
            with pytest.raises(FingerprintMismatch):
                run.code_unit
        capsys.readouterr()
        assert cli_main([*argv, "--artifact", "c"], out=io.StringIO()) == 4
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "contract-error"
        assert "recorded fingerprint 0000" in error["message"]

    @pytest.mark.parametrize("mode", ["strict", "revised"])
    def test_stored_run_equals_the_computed_run(self, tmp_path, mode):
        from repro.api import SageService
        from repro.core.results import Deferred

        cold = SageService(registry=ProtocolRegistry(cache_dir=tmp_path))
        names = cold.registry.protocols()
        assert len(names) == 4
        computed = {name: cold.run(name, mode) for name in names}
        registry = ProtocolRegistry(cache_dir=tmp_path)
        warm = SageService(registry=registry)
        for name in names:
            stored = warm.run(name, mode)
            assert isinstance(vars(stored)["code_unit"], Deferred)
            assert stored == computed[name]
            assert stored.code_unit.fingerprint() \
                == computed[name].code_unit.fingerprint()
        assert registry.run_cache().stats()["disk_hits"] == 4

    def _stored_run(self, tmp_path):
        from repro.api import SageService

        SageService(registry=ProtocolRegistry(cache_dir=tmp_path)).run("ICMP")
        return SageService(registry=ProtocolRegistry(
            cache_dir=tmp_path)).run("ICMP")

    def test_concurrent_first_reads_share_one_program(self, tmp_path):
        import threading
        import time

        run = self._stored_run(tmp_path)
        deferred = vars(run)["code_unit"]
        build = deferred.build
        calls = []

        def slow_build(raw):
            calls.append(raw)
            time.sleep(0.05)  # an unlocked second reader would build too
            return build(raw)

        deferred.build = slow_build
        readers = 4  # more threads than the 2-CPU hosts this runs on
        barrier = threading.Barrier(readers, timeout=10)
        seen = []

        def read():
            barrier.wait()
            seen.append(run.code_unit)

        threads = [threading.Thread(target=read) for _ in range(readers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert len(calls) == 1
        assert len(seen) == readers
        assert all(program is run.code_unit for program in seen)

    def test_run_with_unbuilt_ir_survives_pickling(self, tmp_path):
        import pickle

        from repro.core.results import Deferred

        run = self._stored_run(tmp_path)
        copy = pickle.loads(pickle.dumps(run))
        assert isinstance(vars(copy)["code_unit"], Deferred)
        assert any(isinstance(vars(result)["codes"], Deferred)
                   for result in copy.results)
        assert copy == run
        assert copy.code_unit.fingerprint() == run.code_unit.fingerprint()

    def test_new_decision_misses_runs_but_not_stages(self, tmp_path):
        from repro.api import SageService
        from repro.disambiguation.resolution import Resolution

        from repro.api.contracts import to_json

        cold = SageService(registry=ProtocolRegistry(cache_dir=tmp_path))
        expected = to_json(cold.process(protocol="IGMP"))

        # A journaled decision (about an ICMP sentence) changes the
        # decision tables every run key carries: a fresh process misses the
        # run layer and is carried by the disk-warm stage chain beneath it.
        registry = ProtocolRegistry(cache_dir=tmp_path)
        registry.apply_resolution(Resolution(
            kind="annotate", original="A sentence no corpus contains.",
            protocol="ICMP"))
        service = SageService(registry=registry)
        assert to_json(service.process(protocol="IGMP")) == expected
        run_stats = registry.run_cache().stats()
        assert (run_stats["misses"], run_stats["disk_hits"]) == (1, 0)
        for layer in (registry.parse_cache(), registry.winnow_cache()):
            stats = layer.stats()
            assert stats["misses"] == 0
            assert stats["disk_hits"] > 0

    def test_warm_process_reads_only_run_entries(self, tmp_path):
        from repro.api import SageService

        SageService(registry=ProtocolRegistry(cache_dir=tmp_path)).sweep()
        registry = ProtocolRegistry(cache_dir=tmp_path)
        service = SageService(registry=registry)
        service.sweep()
        store = registry.cache_store().stats()
        assert (store["disk_hits"], store["disk_misses"], store["writes"]) \
            == (len(registry.protocols()), 0, 0)
        assert service._engines == {}  # answered without building an engine

    def test_mutated_substrate_is_never_served_a_persisted_run(self,
                                                               tmp_path):
        from repro.core import SageEngine

        SageEngine(protocol_registry=ProtocolRegistry(
            cache_dir=tmp_path)).process_corpus("IGMP")
        registry = ProtocolRegistry(cache_dir=tmp_path)
        engine = SageEngine(protocol_registry=registry)
        entry = engine.lexicon.entries()[0]
        engine.lexicon.add(entry.__class__(
            phrase="zorpliness", category=entry.category, sem=entry.sem,
        ))
        engine.process_corpus("IGMP")
        stats = registry.run_cache().stats()
        assert (stats["misses"], stats["disk_hits"]) == (1, 0)
        # The mutated run stays in memory: the store still holds one run.
        _run_entry(tmp_path)

    def test_cache_warm_human_output(self, tmp_path):
        lines = _cli("cache", "warm", "--cache-dir", str(tmp_path)).splitlines()
        assert lines[0] == f"warmed 4 protocols into {tmp_path}"
        assert lines[3] == ("  run: 4 entries, 0 hits (0 from disk), "
                            "4 misses [hit rate 0.0%]")

    def test_cache_cli_reports_and_clears_the_run_layer(self, tmp_path):
        import argparse
        import io
        import json

        from repro.api.cli import _cmd_cache
        from repro.api.service import ServiceConfig

        def warm() -> dict:
            return json.loads(_cli("cache", "warm", "--cache-dir",
                                   str(tmp_path), "--json"))["data"]

        assert warm()["run"]["misses"] == 4
        assert warm()["run"]["disk_hits"] == 4
        stats = json.loads(_cli("cache", "stats", "--cache-dir",
                                str(tmp_path), "--json"))["data"]
        assert stats["namespaces"][RUN_NAMESPACE]["entries"] == 4

        service = ServiceConfig(cache_dir=str(tmp_path)).build_service()
        service.run("IGMP")
        assert len(service.registry.run_cache()) == 1
        _cmd_cache(service, argparse.Namespace(action="clear", json=True),
                   io.StringIO())
        assert len(service.registry.run_cache()) == 0
        assert CacheStore(tmp_path).entry_count() == 0


# -- concurrent writers (multiprocessing stress) -------------------------------

N_WORKERS = 4
N_SHARED = 6
N_DISTINCT = 4
N_ROUNDS = 5


def _payload(tag):
    return (f"payload:{tag}:").encode() * 40


def _stress_worker(root, worker_id, barrier, errors):
    """Race writes of identical and distinct keys; verify every read is
    either a miss or the exact expected payload (no torn reads)."""
    store = CacheStore(root)
    barrier.wait()  # maximize write contention
    try:
        for round_no in range(N_ROUNDS):
            for i in range(N_SHARED):
                store.put("stress", f"shared-{i}", _payload(f"shared-{i}"))
            for j in range(N_DISTINCT):
                key = f"distinct-{worker_id}-{j}"
                store.put("stress", key, _payload(key))
            # Read everything any worker may have written so far.
            for i in range(N_SHARED):
                got = store.get("stress", f"shared-{i}")
                if got is not None and got != _payload(f"shared-{i}"):
                    errors.put(f"torn shared read: shared-{i} round {round_no}")
            for other in range(N_WORKERS):
                for j in range(N_DISTINCT):
                    key = f"distinct-{other}-{j}"
                    got = store.get("stress", key)
                    if got is not None and got != _payload(key):
                        errors.put(f"torn distinct read: {key}")
        if store.quarantined:
            errors.put(f"worker {worker_id} quarantined {store.quarantined} "
                       "entries during a clean race")
    except Exception as exc:  # pragma: no cover - failure reporting
        errors.put(f"worker {worker_id} crashed: {exc!r}")


class TestConcurrentWriters:
    def test_racing_writers_never_tear(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(N_WORKERS)
        errors = ctx.Queue()
        workers = [
            ctx.Process(target=_stress_worker,
                        args=(str(tmp_path), worker_id, barrier, errors))
            for worker_id in range(N_WORKERS)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert all(worker.exitcode == 0 for worker in workers)

        failures = []
        while not errors.empty():
            failures.append(errors.get())
        assert not failures, failures

        # After the dust settles: one entry per key (identical racing
        # writes deduped), every key answers without recompute, nothing
        # was quarantined and no temp files leaked.
        store = CacheStore(tmp_path)
        assert store.entry_count("stress") == N_SHARED + N_WORKERS * N_DISTINCT
        for i in range(N_SHARED):
            assert store.get("stress", f"shared-{i}") == _payload(f"shared-{i}")
        for worker_id in range(N_WORKERS):
            for j in range(N_DISTINCT):
                key = f"distinct-{worker_id}-{j}"
                assert store.get("stress", key) == _payload(key)
        assert store.disk_misses == 0
        assert store.quarantine_count() == 0
        assert os.listdir(os.path.join(store.base, "tmp")) == []

    def test_corrupt_entry_recovered_after_race(self, tmp_path):
        # Corrupt one settled entry, then let racing writers republish it:
        # exactly one reader quarantines, every later read sees good bytes.
        store = CacheStore(tmp_path)
        store.put("stress", "shared-0", _payload("shared-0"))
        with open(store.path_for("stress", "shared-0"), "wb") as handle:
            handle.write(b"bit rot")

        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        errors = ctx.Queue()
        workers = [
            ctx.Process(target=_stress_worker,
                        args=(str(tmp_path), worker_id, barrier, errors))
            for worker_id in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert all(worker.exitcode == 0 for worker in workers)
        # The workers' first shared-0 put landed before any read, so no
        # worker should have seen the corrupt file as a quarantine *and*
        # reads afterwards must all be clean.
        failures = []
        while not errors.empty():
            failures.append(errors.get())
        torn = [f for f in failures if f.startswith("torn")]
        assert not torn, torn
        assert store.get("stress", "shared-0") == _payload("shared-0")
