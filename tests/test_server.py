"""The HTTP serving layer: routing, envelopes, deadlines, the worker pool,
and concurrent multi-process access to one shared persistent store."""

import asyncio
import concurrent.futures
import json
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.api.binenc import from_bytes, to_bytes
from repro.api.contracts import ProcessRequest, SweepRequest, from_json
from repro.cache.store import CacheStore
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
        conn = HTTPConnection("127.0.0.1", self.server.port, timeout=timeout)
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


class TestRouting:
    def test_healthz(self, server):
        status, content_type, body = server.request("GET", "/healthz")
        assert status == 200
        assert content_type == "application/json"
        payload = json.loads(body)
        assert payload["ok"] is True
        assert payload["uptime_s"] >= 0

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


class TestErrorMapping:
    def test_unknown_protocol_is_404(self, server):
        status, _ct, body = server.request(
            "POST", "/v1/process", body=json.dumps({"protocol": "QUIC"})
        )
        assert status == 404
        payload = json.loads(body)
        assert payload["error"] == "protocol-not-found"
        assert "known" in payload

    def test_unknown_parser_backend_is_404(self, server):
        status, _ct, body = server.request(
            "GET", "/v1/parse/ICMP?parser_backend=quantum"
        )
        assert status == 404
        assert json.loads(body)["error"] == "parser-backend-not-found"

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
        assert 0.0 <= service["profile"]["span_reuse_rate"] <= 1.0


class TestPoolUnit:
    def test_run_endpoint_unknown_endpoint(self):
        from repro.api import SageService

        status, content_type, body = run_endpoint(SageService(), "teleport")
        assert status == 400
        assert content_type == "application/json"
        assert json.loads(body)["error"] == "bad-request"

    def test_inline_pool_serializes_one_service(self):
        with WorkerPool(workers=1) as pool:
            assert pool.mode == "inline"
            assert pool.workers == 1
            status, _ct, body = pool.run(
                "process",
                json.dumps({"protocol": "ICMP",
                            "include_sentences": False}).encode(),
            )
            assert status == 200
            assert from_json(body.decode("utf-8")).protocol == "ICMP"

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
        # the whole protocol from disk: zero parse misses.
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
            assert aggregate["parse_cache"]["disk_hits"] > 0
        finally:
            handle.stop()
