"""The HTTP serving layer: routing, envelopes, deadlines, the worker pool,
and concurrent multi-process access to one shared persistent store."""

import asyncio
import concurrent.futures
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection
from pathlib import Path

import pytest

from repro.api.binenc import from_bytes, to_bytes
from repro.api.contracts import ProcessRequest, SweepRequest, from_json
from repro.cache.store import CacheStore
from repro.gcpolicy import GC_COUNTERS
from repro.server import (
    BINARY_CONTENT_TYPE,
    ReproServer,
    ServiceConfig,
    WorkerPool,
    run_endpoint,
)


class ServerHandle:
    """A ReproServer running on a background event-loop thread."""

    def __init__(self, server: ReproServer):
        self.server = server
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self._drive, daemon=True)

    def _drive(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def start(self):
        self.thread.start()
        asyncio.run_coroutine_threadsafe(
            self.server.start(), self.loop
        ).result(timeout=30)
        asyncio.run_coroutine_threadsafe(
            self.server._server.start_serving(), self.loop
        ).result(timeout=30)
        return self

    def stop(self):
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop
        ).result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()

    def request(self, method: str, path: str, body=None, headers=None,
                timeout: float = 120.0):
        return _request(self.server.port, method, path, body, headers,
                        timeout)


def _request(port: int, method: str, path: str, body=None, headers=None,
             timeout: float = 120.0):
    """One HTTP exchange with the server on ``port``: the status, the
    ``Content-Type`` and the body."""
    conn = HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, response.getheader("Content-Type"), \
            response.read()
    finally:
        conn.close()


@pytest.fixture(scope="module")
def server():
    """An inline-mode server over the warm shared default registry."""
    handle = ServerHandle(ReproServer(port=0, workers=1,
                                      deadline_s=120.0)).start()
    yield handle
    handle.stop()


def _tampered_code_unit() -> dict:
    """A ``code_unit`` envelope whose recorded fingerprint is all zeros."""
    from repro.api import SageService
    from repro.api.contracts import to_json

    envelope = json.loads(to_json(SageService().run("ICMP").code_unit))
    envelope["data"]["fingerprint"] = "0" * 40
    return envelope


class TestRouting:
    def test_healthz(self, server):
        status, content_type, body = server.request("GET", "/healthz")
        assert status == 200
        assert content_type == "application/json"
        payload = json.loads(body)
        assert payload["ok"] is True
        assert payload["live_workers"] == 1
        assert payload["uptime_s"] >= 0

    def test_a_front_end_exception_answers_500(self, server, monkeypatch):
        def broken():
            raise KeyError("boom")

        monkeypatch.setattr(server.server.pool, "collect_stats", broken)
        status, content_type, body = server.request("GET", "/stats")
        assert status == 500
        assert content_type == "application/json"
        assert json.loads(body) == {"error": "internal",
                                    "message": "KeyError: 'boom'"}
        # The server is still up.
        assert server.request("GET", "/healthz")[0] == 200

    def test_unknown_route_is_404(self, server):
        status, _ct, body = server.request("GET", "/nope")
        assert status == 404
        assert json.loads(body)["error"] == "not-found"

    def test_method_mismatch_is_405(self, server):
        assert server.request("POST", "/healthz")[0] == 405
        assert server.request("GET", "/v1/process")[0] == 405

    def test_trailing_slash_routes(self, server):
        assert server.request("GET", "/healthz/")[0] == 200


class TestProcess:
    def test_bare_dict_body(self, server):
        status, _ct, body = server.request(
            "POST", "/v1/process",
            body=json.dumps({"protocol": "ICMP", "include_sentences": False}),
        )
        assert status == 200
        response = from_json(body.decode("utf-8"))
        assert response.protocol == "ICMP"
        assert response.sentence_count > 0
        assert response.sentences == []

    def test_envelope_body_matches_bare_dict(self, server):
        from repro.api.contracts import to_json

        request = ProcessRequest(protocol="BFD", include_sentences=False)
        s1, _c1, b1 = server.request("POST", "/v1/process",
                                     body=to_json(request))
        s2, _c2, b2 = server.request(
            "POST", "/v1/process",
            body=json.dumps({"protocol": "BFD", "include_sentences": False}),
        )
        assert s1 == s2 == 200
        assert b1 == b2

    def test_binary_negotiation_round_trips(self, server):
        request = ProcessRequest(protocol="ICMP")
        json_status, json_ct, json_body = server.request(
            "POST", "/v1/process",
            body=json.dumps({"protocol": "ICMP"}),
        )
        bin_status, bin_ct, bin_body = server.request(
            "POST", "/v1/process", body=to_bytes(request),
            headers={"Content-Type": BINARY_CONTENT_TYPE,
                     "Accept": BINARY_CONTENT_TYPE},
        )
        assert json_status == bin_status == 200
        assert json_ct == "application/json"
        assert bin_ct == BINARY_CONTENT_TYPE
        assert len(bin_body) < len(json_body)
        # the acceptance criterion: byte-equivalent after decode
        assert from_bytes(bin_body) == from_json(json_body.decode("utf-8"))

    def test_response_matches_the_service(self, server):
        from repro.api import SageService

        _s, _c, body = server.request(
            "POST", "/v1/process", body=json.dumps({"protocol": "IGMP"})
        )
        direct = SageService().process(ProcessRequest(protocol="IGMP"))
        assert from_json(body.decode("utf-8")) == direct


class TestSweep:
    def test_empty_body_sweeps_everything(self, server):
        status, _ct, body = server.request("POST", "/v1/sweep", body="")
        assert status == 200
        response = from_json(body.decode("utf-8"))
        assert response.protocols == ["ICMP", "IGMP", "NTP", "BFD"]

    def test_binary_sweep_request(self, server):
        request = SweepRequest(protocols=("icmp",), parallel=False,
                               include_sentences=False)
        status, content_type, body = server.request(
            "POST", "/v1/sweep", body=to_bytes(request),
            headers={"Content-Type": BINARY_CONTENT_TYPE,
                     "Accept": BINARY_CONTENT_TYPE},
        )
        assert status == 200
        assert content_type == BINARY_CONTENT_TYPE
        assert from_bytes(body).protocols == ["ICMP"]


class TestDiagnosticsAndSession:
    def test_parse_diagnostics(self, server):
        status, _ct, body = server.request("GET", "/v1/parse/ICMP")
        assert status == 200
        payload = json.loads(body)
        assert payload["kind"] == "parse_diagnostics"
        assert payload["data"]["sentence_count"] > 0
        assert "profile" in payload["data"]

    def test_session_flagged_and_pending(self, server):
        status, _ct, body = server.request(
            "GET", "/v1/session/ICMP/flagged?mode=strict"
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["kind"] == "sentence_report_list"
        assert payload["data"]["reports"]
        status, _ct, body = server.request(
            "GET", "/v1/session/ICMP/pending?mode=strict"
        )
        assert status == 200
        assert json.loads(body)["data"]["pending_only"] is True


class TestStaleClients:
    """Request tables stay open: a client that still names a parser gets
    the answer of the same request without that name."""

    def test_a_stale_parser_backend_key_is_ignored(self):
        from repro.api import SageService
        from repro.api.contracts import to_json

        service = SageService()
        bare = {"protocol": "IGMP", "include_sentences": False}
        envelope = json.loads(to_json(ProcessRequest(**bare)))
        for body, stale in (
                (bare, {**bare, "parser_backend": "reference"}),
                (envelope, {**envelope, "data": {
                    **envelope["data"], "parser_backend": "reference"}})):
            expected = run_endpoint(service, "process",
                                    json.dumps(body).encode())
            assert expected[0] == 200
            assert run_endpoint(service, "process",
                                json.dumps(stale).encode()) == expected

    def test_a_stale_parser_backend_query_parses_with_the_pipeline_parser(
            self, server):
        status, _ct, body = server.request(
            "GET", "/v1/parse/ICMP?parser_backend=reference"
        )
        assert status == 200
        assert json.loads(body)["data"]["parser_backend"] == "indexed"


class TestErrorMapping:
    def test_unknown_protocol_is_404(self, server):
        status, _ct, body = server.request(
            "POST", "/v1/process", body=json.dumps({"protocol": "QUIC"})
        )
        assert status == 404
        payload = json.loads(body)
        assert payload["error"] == "protocol-not-found"
        assert "known" in payload

    def test_garbage_binary_body_is_400(self, server):
        status, _ct, body = server.request(
            "POST", "/v1/process", body=b"R1B\x01\xff\xff\xff\xff\xff\xff",
            headers={"Content-Type": BINARY_CONTENT_TYPE},
        )
        assert status == 400
        assert json.loads(body)["error"] in ("bad-envelope", "contract-error")

    def test_unparseable_json_is_400(self, server):
        status, _ct, body = server.request("POST", "/v1/process",
                                           body="{not json")
        assert status == 400
        assert json.loads(body)["error"] == "bad-request"

    def test_errors_are_json_even_for_binary_clients(self, server):
        status, content_type, _body = server.request(
            "POST", "/v1/process", body=json.dumps({"protocol": "QUIC"}),
            headers={"Accept": BINARY_CONTENT_TYPE},
        )
        assert status == 404
        assert content_type == "application/json"

    def test_tampered_code_unit_envelope_is_400(self, server):
        status, content_type, body = server.request(
            "POST", "/v1/process", body=json.dumps(_tampered_code_unit()))
        assert status == 400
        assert content_type == "application/json"
        payload = json.loads(body)
        assert payload["error"] == "contract-error"
        assert "recorded fingerprint 0000" in payload["message"]

    def test_tiny_deadline_is_504(self, server):
        status, _ct, body = server.request(
            "POST", "/v1/sweep", body="",
            headers={"X-Repro-Deadline": "0.000001"},
        )
        assert status == 504
        payload = json.loads(body)
        assert payload["error"] == "deadline-exceeded"
        assert payload["endpoint"] == "sweep"

    def test_oversized_body_is_413(self, server):
        from repro.server.http import MAX_BODY_BYTES

        conn = HTTPConnection("127.0.0.1", server.server.port, timeout=30)
        try:
            conn.putrequest("POST", "/v1/process")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 413
        finally:
            conn.close()

    @pytest.mark.parametrize("length", [
        b"1_0", b" +7 ", b"-1", "\u0661\u0660".encode("utf-8"),
    ], ids=["underscore", "signed", "negative", "arabic-indic"])
    def test_unreadable_content_length_is_400(self, server, length):
        # int() reads the first two as 10 and 7 and the third as a
        # negative size; only ASCII digits are a length.
        with socket.create_connection(("127.0.0.1", server.server.port),
                                      timeout=10) as sock:
            sock.sendall(b"POST /v1/process HTTP/1.1\r\nHost: test\r\n"
                         b"Content-Length: " + length + b"\r\n\r\n")
            with sock.makefile("rb") as stream:
                reply = stream.read()
        head, _sep, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(body) == {"error": "bad-request",
                                    "message": "unreadable Content-Length"}


class TestStats:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_stats_shape_and_counters(self, workers):
        handle = ServerHandle(
            ReproServer(port=0, workers=workers, deadline_s=120.0)
        ).start()
        try:
            mode = "process" if workers > 1 else "inline"
            if handle.server.pool.mode != mode:
                pytest.skip("fork process pool unavailable on this platform")
            handle.request("POST", "/v1/process",
                           body=json.dumps({"protocol": "ICMP",
                                            "include_sentences": False}))
            status, _ct, body = handle.request("GET", "/stats")
        finally:
            handle.stop()
        assert status == 200
        payload = json.loads(body)
        assert payload["kind"] == "server_stats"
        data = payload["data"]
        assert data["server"]["requests_total"] >= 2
        assert data["server"]["responses_by_status"]["200"] >= 1
        assert data["pool"] == {"mode": mode, "workers": workers,
                                "cache_dir": None}
        service = data["service"]
        assert service["worker_count"] == workers
        assert service["parse_cache"]["hits"] >= 0
        profile = service["profile"]
        assert 0.0 <= profile["span_reuse_rate"] <= 1.0
        assert all(isinstance(profile[name], int) and profile[name] >= 0
                   for name in GC_COUNTERS)
        if mode == "process":  # workers inherit the pool's pre-fork freeze
            assert profile["gc_frozen"] > 0


def _gated(run_endpoint):
    """``run_endpoint``, except that a request whose params carry a
    ``gate`` path first writes its process's pid to ``<gate>.entered``
    and then waits (a minute at most) until the ``gate`` file exists."""
    def run(service, endpoint, body=b"", **kwargs):
        gate = (kwargs.get("params") or {}).get("gate")
        if gate:
            Path(gate + ".entered").write_text(str(os.getpid()))
            give_up = time.monotonic() + 60
            while not os.path.exists(gate) and time.monotonic() < give_up:
                time.sleep(0.01)
        return run_endpoint(service, endpoint, body, **kwargs)
    return run


class TestStatsDoNotWait:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_stats_answer_while_a_worker_is_busy(self, workers, tmp_path,
                                                 monkeypatch):
        from repro.server import pool as pool_module

        # Patched before the pool forks, so the workers inherit it.
        monkeypatch.setattr(pool_module, "run_endpoint",
                            _gated(pool_module.run_endpoint))
        gate = tmp_path / "release"
        body = json.dumps({"protocol": "NTP",
                           "include_sentences": False}).encode()

        async def while_one_is_busy(pool):
            blocked = pool.dispatch("process", body,
                                    params={"gate": str(gate)})
            try:
                await asyncio.to_thread(_wait_for_entry, gate)
                during = await asyncio.wait_for(
                    asyncio.to_thread(pool.collect_stats), timeout=5)
                assert during["aggregate"]["worker_count"] == workers
                if workers > 1:
                    # The idle worker answers; inline mode serializes
                    # pipeline work by design.
                    status, _ct, _body = await asyncio.wait_for(
                        pool.dispatch("parse", params={"protocol": "NTP"}),
                        timeout=30)
                    assert status == 200
                assert not blocked.done()
            finally:
                gate.touch()
            assert (await asyncio.wait_for(blocked, timeout=120))[0] == 200
            return during

        with WorkerPool(workers=workers) as pool:
            if pool.mode != ("process" if workers > 1 else "inline"):
                pytest.skip("fork process pool unavailable on this platform")
            during = asyncio.run(while_one_is_busy(pool))
            after = pool.collect_stats()["aggregate"]

        def lookups(stats):
            return stats["run_cache"]["hits"] + stats["run_cache"]["misses"]

        # A caller holding its answer sees its request counted.
        assert lookups(after) > lookups(during["aggregate"])


def _gated_parse(run_endpoint, gates: Path):
    """``_gated``, for HTTP callers: ``GET /v1/parse/NAME`` is gated on
    ``gates / NAME`` (an unknown protocol, so it then answers 404)."""
    gated = _gated(run_endpoint)

    def run(service, endpoint, body=b"", **kwargs):
        params = kwargs.get("params") or {}
        if endpoint == "parse":
            kwargs["params"] = {**params,
                                "gate": str(gates / params["protocol"])}
        return gated(service, endpoint, body, **kwargs)
    return run


def _slowed(run_endpoint, endpoint: str, seconds: float):
    """``run_endpoint``, except that every ``endpoint`` call first sleeps
    ``seconds``."""
    def run(service, name, body=b"", **kwargs):
        if name == endpoint:
            time.sleep(seconds)
        return run_endpoint(service, name, body, **kwargs)
    return run


def _wait_for_entry(gate: Path) -> int:
    """The pid that entered the gated request, once one has."""
    entered = Path(f"{gate}.entered")
    give_up = time.monotonic() + 60
    while not (entered.exists() and entered.read_text()):
        assert time.monotonic() < give_up, "request never ran"
        time.sleep(0.01)
    return int(entered.read_text())


class TestWorkerFailures:
    def test_a_worker_killed_mid_request_answers_502(self, tmp_path,
                                                      monkeypatch):
        from repro.server import pool as pool_module

        monkeypatch.setattr(pool_module, "run_endpoint",
                            _gated(pool_module.run_endpoint))
        gate = tmp_path / "release"
        server = ReproServer(port=0, workers=2, deadline_s=120.0)
        pool = server.pool
        if pool.mode != "process":
            pool.close()
            pytest.skip("fork process pool unavailable on this platform")

        async def healthz():
            status, _ct, body = await asyncio.to_thread(
                _request, server.port, "GET", "/healthz")
            return status, json.loads(body)

        async def kill_both_workers():
            await server.start()
            try:
                blocked = pool.dispatch("process", b'{"protocol": "NTP"}',
                                        params={"gate": str(gate)})
                try:
                    pid = await asyncio.to_thread(_wait_for_entry, gate)
                    os.kill(pid, signal.SIGKILL)
                    status, content_type, body = await asyncio.wait_for(
                        blocked, timeout=30)
                finally:
                    gate.touch()
                assert status == 502
                assert content_type == "application/json"
                payload = json.loads(body)
                assert payload["error"] == "worker-lost"
                assert str(pid) in payload["message"]
                # The dead pid leaves the stats table and dispatch: later
                # requests go to the surviving worker.
                stats = pool.collect_stats()
                assert pid not in [row["pid"] for row in stats["workers"]]
                assert stats["aggregate"]["worker_count"] == 1
                status, health = await healthz()
                assert status == 200
                assert (health["ok"], health["live_workers"]) == (True, 1)
                for _ in range(3):
                    status, _ct, _body = await asyncio.wait_for(
                        pool.dispatch("parse", params={"protocol": "NTP"}),
                        timeout=60)
                    assert status == 200
                [survivor] = pool.collect_stats()["workers"]
                # With the last worker gone too, every request answers 503.
                os.kill(survivor["pid"], signal.SIGKILL)
                give_up = time.monotonic() + 30
                while pool.collect_stats()["workers"]:
                    assert time.monotonic() < give_up, "the EOF never arrived"
                    await asyncio.sleep(0.01)
                status, _ct, body = await asyncio.wait_for(
                    pool.dispatch("parse", params={"protocol": "NTP"}),
                    timeout=30)
                assert status == 503
                assert json.loads(body)["error"] == "no-workers"
                # ...and /healthz stops saying ok.
                status, health = await healthz()
                assert status == 503
                assert (health["ok"], health["live_workers"]) == (False, 0)
            finally:
                await server.stop()

        asyncio.run(kill_both_workers())

    def test_workers_killed_before_any_request_leave_healthz(self):
        server = ReproServer(port=0, workers=2, deadline_s=120.0)
        pool = server.pool
        if pool.mode != "process":
            pool.close()
            pytest.skip("fork process pool unavailable on this platform")

        async def get(path):
            status, _ct, body = await asyncio.to_thread(
                _request, server.port, "GET", path)
            return status, json.loads(body)

        async def kill_both_workers_first():
            await server.start()
            try:
                status, health = await get("/healthz")
                assert (status, health["live_workers"]) == (200, 2)
                for worker in list(pool._workers):
                    os.kill(worker.process.pid, signal.SIGKILL)
                give_up = time.monotonic() + 30
                while True:
                    status, health = await get("/healthz")
                    if status == 503:
                        break
                    assert time.monotonic() < give_up, health
                    await asyncio.sleep(0.05)
                assert (health["ok"], health["live_workers"]) == (False, 0)
                status, stats = await get("/stats")
                assert status == 200
                assert stats["data"]["workers"] == []
                assert stats["data"]["service"]["worker_count"] == 0
            finally:
                await server.stop()

        asyncio.run(kill_both_workers_first())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_late_reply_never_answers_the_next_request(self, workers,
                                                         monkeypatch):
        from repro.api import SageService
        from repro.server import pool as pool_module

        monkeypatch.setattr(pool_module, "run_endpoint",
                            _slowed(pool_module.run_endpoint, "sweep", 1.0))
        body = json.dumps({"protocol": "ICMP",
                           "include_sentences": False}).encode()
        expected = run_endpoint(SageService(), "process", body)
        handle = ServerHandle(
            ReproServer(port=0, workers=workers, deadline_s=120.0)).start()
        try:
            if handle.server.pool.mode != ("process" if workers > 1
                                           else "inline"):
                pytest.skip("fork process pool unavailable on this platform")

            def late(_index):
                return handle.request(
                    "POST", "/v1/sweep", body='{"protocols": ["ICMP"]}',
                    headers={"X-Repro-Deadline": "0.1"})

            # Every worker is still busy with a sweep whose caller got a
            # 504 when the next request arrives.
            with concurrent.futures.ThreadPoolExecutor(workers) as clients:
                statuses = [status for status, _ct, _body
                            in clients.map(late, range(workers))]
            assert statuses == [504] * workers
            answer = handle.request("POST", "/v1/process", body=body)
        finally:
            handle.stop()
        assert answer == expected

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_request_whose_deadline_expires_in_the_queue_never_runs(
            self, workers, tmp_path, monkeypatch):
        from repro.server import pool as pool_module

        monkeypatch.setattr(pool_module, "run_endpoint",
                            _gated_parse(pool_module.run_endpoint, tmp_path))
        handle = ServerHandle(
            ReproServer(port=0, workers=workers, deadline_s=120.0)).start()
        busy = [f"busy{index}" for index in range(workers)]
        try:
            if handle.server.pool.mode != ("process" if workers > 1
                                           else "inline"):
                pytest.skip("fork process pool unavailable on this platform")
            with concurrent.futures.ThreadPoolExecutor(workers) as clients:
                # Every worker holds a gated request...
                blocked = [clients.submit(handle.request, "GET",
                                          f"/v1/parse/{name}")
                           for name in busy]
                for name in busy:
                    _wait_for_entry(tmp_path / name)
                # ...so this one waits for a worker until its deadline.
                status, _ct, body = handle.request(
                    "GET", "/v1/parse/late",
                    headers={"X-Repro-Deadline": "0.2"})
                assert status == 504
                assert json.loads(body)["error"] == "deadline-exceeded"
                for name in ("late", "after", *busy):
                    (tmp_path / name).touch()
                assert [future.result(timeout=60)[0]
                        for future in blocked] == [404] * workers
                # Requests sent after the release have answered: had
                # "late" been queued or sent, it would have run first.
                assert [status for status, _ct, _body in clients.map(
                    lambda _i: handle.request("GET", "/v1/parse/after"),
                    range(workers))] == [404] * workers
        finally:
            for name in busy:
                (tmp_path / name).touch()
            handle.stop()
        assert not (tmp_path / "late.entered").exists()

    def test_process_mode_dispatch_starts_no_thread(self):
        before = threading.active_count()
        handle = ServerHandle(
            ReproServer(port=0, workers=2, deadline_s=120.0)).start()
        try:
            if handle.server.pool.mode != "process":
                pytest.skip("fork process pool unavailable on this platform")
            for _ in range(3):
                status, _ct, _body = handle.request(
                    "POST", "/v1/process",
                    body=json.dumps({"protocol": "ICMP",
                                     "include_sentences": False}))
                assert status == 200
            # The handle's own event-loop thread, and nothing else.
            assert threading.active_count() == before + 1
        finally:
            handle.stop()


class TestPoolUnit:
    def test_run_endpoint_unknown_endpoint(self):
        from repro.api import SageService

        status, content_type, body = run_endpoint(SageService(), "teleport")
        assert status == 400
        assert content_type == "application/json"
        assert json.loads(body)["error"] == "bad-request"

    @pytest.mark.parametrize("endpoint", ["parse", "session"])
    def test_missing_protocol_parameter_is_400(self, endpoint):
        from repro.api import SageService

        status, _ct, body = run_endpoint(SageService(), endpoint, params={})
        assert status == 400
        payload = json.loads(body)
        assert payload["error"] == "bad-request"
        assert "'protocol'" in payload["message"]

    def test_tampered_code_unit_in_a_request_is_400(self):
        from repro.api import SageService

        service = SageService()
        unit = service.run("ICMP").code_unit
        tampered = to_bytes(unit).replace(unit.fingerprint().encode(),
                                          b"0" * 40)
        for body, binary_in in (
                (json.dumps(_tampered_code_unit()).encode(), False),
                (tampered, True)):
            status, _ct, answer = run_endpoint(service, "process", body,
                                               binary_in=binary_in)
            assert status == 400
            payload = json.loads(answer)
            assert payload["error"] == "contract-error"
            assert "recorded fingerprint 0000" in payload["message"]

    def test_inline_pool_serializes_one_service(self):
        body = json.dumps({"protocol": "ICMP",
                           "include_sentences": False}).encode()

        async def process(pool):
            return await pool.dispatch("process", body)

        with WorkerPool(workers=1) as pool:
            assert pool.mode == "inline"
            assert pool.workers == 1
            status, _ct, body = asyncio.run(process(pool))
            assert status == 200
            assert from_json(body.decode("utf-8")).protocol == "ICMP"

    def test_repeat_request_is_answered_by_the_run_memo(self, tmp_path):
        body = json.dumps({"protocol": "NTP"}).encode()

        async def twice(pool):
            first = await pool.dispatch("process", body)
            parse_lookups = pool.collect_stats()["aggregate"]["parse_cache"]
            assert await pool.dispatch("process", body) == first
            return parse_lookups

        # A store of its own gives the pool a registry of its own.
        config = ServiceConfig(cache_dir=str(tmp_path))
        with WorkerPool(config, workers=1) as pool:
            parse_lookups = asyncio.run(twice(pool))
            stats = pool.collect_stats()["aggregate"]
        assert stats["run_cache"]["hits"] == 1
        assert stats["run_cache"]["misses"] == 1
        assert stats["run_cache"]["hit_rate"] == 0.5
        assert stats["parse_cache"] == parse_lookups
        assert stats["winnow_cache"]["misses"] > 0

    def test_keep_alive_reuses_one_connection(self, server):
        conn = HTTPConnection("127.0.0.1", server.server.port, timeout=60)
        try:
            bodies = []
            for _ in range(3):
                conn.request("POST", "/v1/process",
                             body=json.dumps({"protocol": "ICMP",
                                              "include_sentences": False}))
                response = conn.getresponse()
                assert response.status == 200
                bodies.append(response.read())
            assert len(set(bodies)) == 1
        finally:
            conn.close()


class TestConcurrentSharedStore:
    """The satellite: N processes hammering one ``--cache-dir`` through the
    server — no torn writes, no recompute beyond the first writer,
    byte-identical responses, and a clean warm second boot."""

    def test_process_pool_share_one_store(self, tmp_path):
        cache_dir = str(tmp_path / "store")
        config = ServiceConfig(cache_dir=cache_dir)
        handle = ServerHandle(
            ReproServer(port=0, config=config, workers=2, deadline_s=300.0)
        ).start()
        try:
            if handle.server.pool.mode != "process":
                pytest.skip("fork process pool unavailable on this platform")
            body = json.dumps({"protocol": "ICMP",
                               "include_sentences": False})

            def hit(_index):
                return handle.request("POST", "/v1/process", body=body,
                                      timeout=300.0)

            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(hit, range(8)))
            assert [status for status, _c, _b in results] == [200] * 8
            # every concurrent response is byte-identical
            assert len({payload for _s, _c, payload in results}) == 1

            status, _ct, stats_body = handle.request("GET", "/stats",
                                                     timeout=300.0)
            assert status == 200
            aggregate = json.loads(stats_body)["data"]["service"]
            # no torn writes: racing writers published atomically, so
            # nothing was quarantined...
            assert aggregate["store"]["quarantined"] == 0
            # ...and no duplicate recompute beyond the first writer per
            # sentence: the parses each worker computed cold were exactly
            # the distinct entries published to disk (a worker that
            # re-parsed something already on disk would push misses past
            # writes).
            assert (aggregate["parse_cache"]["misses"]
                    <= aggregate["store"]["writes"]
                    + aggregate["store"]["disk_hits"])
        finally:
            handle.stop()
        store = CacheStore(cache_dir)
        assert store.verify() == {"checked": store.entry_count(),
                                  "corrupt": 0}
        assert store.entry_count() > 0

        # A fresh single-worker boot over the same directory must answer
        # the whole protocol from disk: zero parse and winnow misses, and
        # disk hits in the layer that answered (the run layer here).
        handle = ServerHandle(
            ReproServer(port=0, config=config, workers=1, deadline_s=300.0)
        ).start()
        try:
            status, _ct, body2 = handle.request(
                "POST", "/v1/process",
                body=json.dumps({"protocol": "ICMP",
                                 "include_sentences": False}),
                timeout=300.0,
            )
            assert status == 200
            assert body2 == results[0][2]
            status, _ct, stats_body = handle.request("GET", "/stats",
                                                     timeout=300.0)
            aggregate = json.loads(stats_body)["data"]["service"]
            assert aggregate["parse_cache"]["misses"] == 0
            assert aggregate["winnow_cache"]["misses"] == 0
            assert sum(aggregate[layer]["disk_hits"] for layer in
                       ("parse_cache", "winnow_cache", "run_cache")) > 0
            assert aggregate["run_cache"]["disk_hits"] == 1
        finally:
            handle.stop()


def _children(pid: int) -> set[int]:
    """Live child PIDs of ``pid`` (every thread's ``children`` list)."""
    found = set()
    for task in Path(f"/proc/{pid}/task").iterdir():
        found.update(int(child) for child in
                     (task / "children").read_text().split())
    return found


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat[stat.rfind(")") + 2:].split()[0] != "Z"


@pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
    reason="needs /proc child lists to find the worker processes")
class TestShutdown:
    @staticmethod
    def _stop_and_watch_workers(stop) -> None:
        """Boot ``repro serve --workers 2``, end it with ``stop(proc)``
        and require every worker pid to be gone within 10 s."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
        workers: set[int] = set()
        try:
            banner = proc.stdout.readline().decode()
            if "process mode" not in banner:
                pytest.skip(f"fork process pool unavailable: {banner!r}")
            workers = _children(proc.pid)
            assert len(workers) >= 2
            stop(proc)
            deadline = time.monotonic() + 10
            while any(_alive(pid) for pid in workers):
                assert time.monotonic() < deadline, (
                    f"workers outlived the server: "
                    f"{[pid for pid in workers if _alive(pid)]}")
                time.sleep(0.05)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            for pid in workers:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_sigterm_stops_the_forked_workers(self):
        def sigterm(proc):
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0

        self._stop_and_watch_workers(sigterm)

    def test_sigkill_of_the_server_ends_the_forked_workers(self):
        # No shutdown code runs: each worker reads EOF on its pipe.
        def sigkill(proc):
            proc.kill()
            proc.wait(timeout=30)

        self._stop_and_watch_workers(sigkill)
