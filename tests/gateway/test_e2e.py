"""End-to-end gateway tests: real asyncio sockets, real HTTP framing.

These start an in-process server on an ephemeral port, drive it with the
load generator's HTTP client, and pin the service contract the benchmark
relies on: advice served over the wire is identical to a direct
:class:`~repro.gateway.sessions.GatewaySession` replay, and the open-loop
aggregate hit rate equals the closed-loop fleet's (the ISSUE's ≤ 2 pp
criterion holds with margin zero on an unbounded uplink).
"""

import asyncio
import json

import numpy as np
import pytest

from repro.gateway import (
    GatewayConfig,
    GatewayService,
    SessionConfig,
    TierSpec,
    closed_loop_reference,
    replay_population,
    run_gateway_bench,
)
from repro.gateway.loadgen import http_get
from repro.gateway.sessions import SessionStore
from repro.workload.population import zipf_mixture_population


def _population(n_clients=4, n_items=30, requests=40, seed=5):
    return zipf_mixture_population(
        n_clients, n_items, requests, overlap=0.5, stagger=0.0, seed=seed
    )


def _config(population, **session_kwargs):
    return GatewayConfig(
        sizes=population.sizes,
        session=SessionConfig(**session_kwargs),
        tiers=(TierSpec("edge", "lru", 16),),
    )


async def _with_server(config, coro):
    """Start a gateway, run ``coro(host, port, service)``, stop the server."""
    service = GatewayService(config)
    server = await service.start("127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    try:
        return await coro("127.0.0.1", port, service)
    finally:
        server.close()
        await server.wait_closed()


async def _raw_exchange(host, port, request: bytes) -> tuple[bytes, bytes]:
    """Send raw bytes; return the response head and body once the server closes."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(request)
    await writer.drain()
    response = await reader.read()  # until the server closes the connection
    writer.close()
    await writer.wait_closed()
    head, _, body = response.partition(b"\r\n\r\n")
    return head + b"\r\n", body


class TestHTTPEndpoints:
    def test_healthz_and_metrics_over_http(self):
        population = _population()
        config = _config(population)

        async def scenario(host, port, service):
            status, body = await http_get(host, port, "/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "ok"
            await replay_population(host, port, population)
            status, body = await http_get(host, port, "/metrics")
            assert status == 200
            text = body.decode()
            assert "gateway_decision_latency_seconds_count" in text
            assert "gateway_sessions 4" in text
            status, body = await http_get(host, port, "/v1/session/client-0")
            assert status == 200
            assert json.loads(body)["session"] == "client-0"
            status, _ = await http_get(host, port, "/v1/session/ghost")
            assert status == 404

        asyncio.run(_with_server(config, scenario))

    def test_malformed_request_drops_connection_cleanly(self):
        population = _population()
        config = _config(population)

        async def scenario(host, port, service):
            head, body = await _raw_exchange(host, port, b"NONSENSE\r\n\r\n")
            # Answered with a 400, then the connection is closed.
            assert head.startswith(b"HTTP/1.1 400 Bad Request\r\n")
            assert b"Connection: close\r\n" in head
            assert "malformed request line" in json.loads(body)["error"]
            # The server stays healthy for the next connection.
            status, _ = await http_get(host, port, "/healthz")
            assert status == 200

        asyncio.run(_with_server(config, scenario))

    def test_framing_errors_answered_and_counted(self):
        population = _population()
        config = _config(population)
        too_many = b"".join(b"X-H%d: v\r\n" % i for i in range(100))
        cases = [
            (b"POST /v1/access HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n", 413),
            (b"POST /v1/access HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400),
            (b"POST /v1/access HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
            (b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n", 400),
            (b"GET /healthz HTTP/1.1\r\n" + too_many + b"\r\n", 400),
            (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 400),
        ]

        async def scenario(host, port, service):
            for request, status in cases:
                head, body = await _raw_exchange(host, port, request)
                assert head.startswith(b"HTTP/1.1 %d " % status), (request[:40], head)
                assert b"Connection: close\r\n" in head
                assert "error" in json.loads(body)
            _, text = await http_get(host, port, "/metrics")
            assert f"gateway_bad_requests_total {len(cases)}" in text.decode()

        asyncio.run(_with_server(config, scenario))


class TestHTTPAdviceConsistency:
    def test_served_advice_matches_direct_replay(self):
        """Every advice payload over HTTP equals a direct session replay."""
        population = _population()
        config = _config(population)

        async def scenario(host, port, service):
            await replay_population(host, port, population)
            return {
                sid: service.store.get(sid).stats for sid in service.store.ids()
            }

        http_stats = asyncio.run(_with_server(config, scenario))

        # Direct replay: same SessionStore machinery, no sockets.
        store = SessionStore(
            config.session,
            np.ascontiguousarray(population.sizes),
            clock=lambda: 0.0,
        )
        for workload in population.clients:
            session = store.get_or_create(f"client-{workload.client_id}")
            session.report(workload.initial_item, workload.initial_viewing_time)
            for item, view in zip(workload.trace.items, workload.trace.viewing_times):
                session.report(int(item), float(view))
            over_http = http_stats[f"client-{workload.client_id}"]
            assert over_http.serve_kinds == session.stats.serve_kinds
            np.testing.assert_allclose(
                over_http.access_times, session.stats.access_times
            )
            assert over_http.prefetches_scheduled == session.stats.prefetches_scheduled


class TestOpenVsClosedLoop:
    def test_open_loop_hit_rate_matches_run_fleet(self):
        """The ISSUE acceptance criterion: open vs closed loop within 2 pp.

        On an unbounded uplink the agreement is exact, so this pins the
        much stronger property and cannot flake at the tolerance edge.
        """
        population = _population(n_clients=6, requests=60)
        config = _config(population)
        result, snapshot = run_gateway_bench(population, config)
        reference = closed_loop_reference(population, config)
        closed = reference.aggregate.hit_rate
        assert result.errors == 0
        assert result.requests == 6 * 60
        assert abs(result.hit_rate - closed) < 0.02  # the stated criterion
        assert result.hit_rate == pytest.approx(closed)  # exact in fact
        assert result.mean_access_time == pytest.approx(
            reference.mean_access_time
        )

    def test_closed_loop_reference_uses_session_knobs(self):
        population = _population()
        config = _config(population, strategy="none")
        reference = closed_loop_reference(population, config)
        assert reference.config.strategy == "none"
        assert reference.config.concurrency is None
        assert reference.config.model_source == "online"


class TestLoadgenPacing:
    def test_time_scale_paces_wall_clock(self):
        population = _population(n_clients=1, requests=3)
        config = _config(population)
        fast, _ = run_gateway_bench(population, config, time_scale=0.0)
        # 4 reports, ~2s mean viewing: even a tiny scale dominates elapsed.
        slow, _ = run_gateway_bench(population, config, time_scale=0.01)
        assert slow.elapsed_s > fast.elapsed_s

    def test_loadgen_validation(self):
        population = _population(n_clients=1, requests=2)

        async def bad_scale():
            await replay_population("127.0.0.1", 1, population, time_scale=-1.0)

        async def bad_concurrency():
            await replay_population(
                "127.0.0.1", 1, population, max_concurrency=0
            )

        with pytest.raises(ValueError):
            asyncio.run(bad_scale())
        with pytest.raises(ValueError):
            asyncio.run(bad_concurrency())
