"""Tests for the gateway's route dispatch and decision surface (no sockets).

:meth:`GatewayService.handle` is a pure function of ``(method, path,
body)``, so the whole HTTP API contract is testable without opening a
socket; ``test_e2e.py`` covers the asyncio framing on top.
"""

import json

import pytest

from repro.gateway import GatewayConfig, GatewayService, SessionConfig, TierSpec


@pytest.fixture()
def service():
    config = GatewayConfig.uniform(
        20,
        session=SessionConfig(cache_capacity=4),
        tiers=(TierSpec("edge", "lru", 8),),
    )
    return GatewayService(config, clock=lambda: 0.0)


def _post_access(service, payload):
    return service.handle("POST", "/v1/access", json.dumps(payload).encode())


class TestRouting:
    def test_healthz(self, service):
        status, ctype, body = service.handle("GET", "/healthz", b"")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["catalog"] == 20

    def test_metrics(self, service):
        _post_access(service, {"session": "a", "item": 1, "viewing_time": 2.0})
        status, ctype, body = service.handle("GET", "/metrics", b"")
        assert status == 200
        assert ctype.startswith("text/plain")
        text = body.decode()
        assert "gateway_reports_total 1" in text
        assert "gateway_decision_latency_seconds" in text
        assert 'gateway_tier_hits_total{tier="edge"}' in text

    def test_unknown_route_404(self, service):
        status, _, body = service.handle("GET", "/nope", b"")
        assert status == 404
        assert "error" in json.loads(body)

    def test_wrong_method_405(self, service):
        for method, path in [
            ("POST", "/healthz"),
            ("POST", "/metrics"),
            ("GET", "/v1/access"),
            ("PUT", "/v1/session/a"),
        ]:
            status, _, _ = service.handle(method, path, b"")
            assert status == 405, (method, path)

    def test_session_lifecycle_over_routes(self, service):
        _post_access(service, {"session": "a", "item": 1, "viewing_time": 2.0})
        status, _, body = service.handle("GET", "/v1/session/a", b"")
        assert status == 200
        assert json.loads(body)["session"] == "a"
        status, _, _ = service.handle("DELETE", "/v1/session/a", b"")
        assert status == 200
        status, _, _ = service.handle("GET", "/v1/session/a", b"")
        assert status == 404
        status, _, _ = service.handle("DELETE", "/v1/session/a", b"")
        assert status == 404


class TestAccessValidation:
    def test_invalid_json_400(self, service):
        status, _, body = service.handle("POST", "/v1/access", b"{not json")
        assert status == 400

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"session": "", "item": 1},
            {"session": "a"},
            {"session": "a", "item": "1"},
            {"session": "a", "item": True},
            {"session": "a", "item": 1, "viewing_time": "x"},
            {"session": "a", "item": 1, "viewing_time": True},
            {"session": "a", "item": 99},
            {"session": "a", "item": -1},
            {"session": "a", "item": 1, "viewing_time": -1.0},
        ],
    )
    def test_bad_payloads_400(self, service, payload):
        status, _, body = _post_access(service, payload)
        assert status == 400
        assert "error" in json.loads(body)

    def test_non_finite_viewing_time_400(self, service):
        # Python's json accepts these tokens; a session that took one would
        # answer every later report with NaN/Infinity, which is not JSON.
        for token in (b"Infinity", b"-Infinity", b"NaN"):
            body = b'{"session": "a", "item": 1, "viewing_time": ' + token + b"}"
            status, _, reply = service.handle("POST", "/v1/access", body)
            assert status == 400
            assert "finite" in json.loads(reply)["error"]

        def strict(token):
            raise ValueError(f"non-JSON constant {token}")

        for item in (1, 2, 1):
            status, _, reply = _post_access(
                service, {"session": "a", "item": item, "viewing_time": 2.0}
            )
            assert status == 200
            json.loads(reply, parse_constant=strict)

    def test_bad_request_does_not_create_session(self, service):
        _post_access(service, {"session": "a", "item": 99})
        # item validation happens inside the session; the store keeps the
        # (still unstarted) session but no report is recorded.
        session = service.store.get("a")
        assert session is None or session.stats.requests == 0


class TestAdvicePayload:
    def test_warm_then_hit_payloads(self, service):
        status, _, body = _post_access(
            service, {"session": "a", "item": 1, "viewing_time": 2.0}
        )
        warm = json.loads(body)
        assert status == 200
        assert warm["served"] == "warm"
        assert warm["index"] == 0
        status, _, body = _post_access(
            service, {"session": "a", "item": 1, "viewing_time": 2.0}
        )
        hit = json.loads(body)
        assert hit["served"] == "hit"
        assert hit["access_time"] == 0.0
        assert hit["index"] == 1

    def test_advice_is_tier_annotated(self, service):
        status, _, body = _post_access(
            service, {"session": "a", "item": 1, "viewing_time": 2.0}
        )
        advice = json.loads(body)
        assert advice["demand_source"] == "origin"
        assert set(advice["sources"]) == {str(i) for i in advice["prefetch"]}
        assert "decision_seconds" in advice

    def test_metrics_count_serve_kinds(self, service):
        _post_access(service, {"session": "a", "item": 1, "viewing_time": 2.0})
        _post_access(service, {"session": "a", "item": 1, "viewing_time": 2.0})
        m = service.metrics
        assert m.counter("gateway_reports_total") == 2
        assert m.counter("gateway_served_warm_total") == 1
        assert m.counter("gateway_served_hit_total") == 1

    def test_snapshot_shape(self, service):
        _post_access(service, {"session": "a", "item": 1, "viewing_time": 2.0})
        snap = service.snapshot()
        assert snap["sessions"] == 1
        assert snap["sessions_created"] == 1
        assert snap["catalog"] == 20
        assert snap["tiers"][0]["tier"] == "edge"
        json.dumps(snap)


class TestNoTierConfig:
    def test_mirror_disabled(self):
        config = GatewayConfig.uniform(10, tiers=())
        service = GatewayService(config, clock=lambda: 0.0)
        status, _, body = _post_access(
            service, {"session": "a", "item": 1, "viewing_time": 1.0}
        )
        advice = json.loads(body)
        assert status == 200
        assert "demand_source" not in advice
        assert "tiers" not in service.snapshot()


class TestGatewayConfig:
    def test_sizes_validation(self):
        import numpy as np

        with pytest.raises(ValueError):
            GatewayConfig(sizes=np.array([]))
        with pytest.raises(ValueError):
            GatewayConfig(sizes=np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            GatewayConfig(sizes=np.array([[1.0]]))

    def test_uniform(self):
        config = GatewayConfig.uniform(7)
        assert config.n_items == 7
        assert (config.sizes == 1.0).all()
