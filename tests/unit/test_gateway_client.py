"""Unit tests for the stdlib gateway client SDK (transport stubbed out)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.serve.client import GatewayClient, GatewayError, GatewayShedError


def _envelope(code: str, message: str, retry_after_s: float | None = None) -> bytes:
    error: dict = {"code": code, "message": message}
    if retry_after_s is not None:
        error["retry_after_s"] = retry_after_s
    return json.dumps({"error": error}).encode()


class _ScriptedClient(GatewayClient):
    """GatewayClient whose wire exchanges are replayed from a script."""

    def __init__(self, responses, **kwargs):
        kwargs.setdefault("sleep", self.record_sleep)
        super().__init__("http://127.0.0.1:1", **kwargs)
        self.responses = list(responses)
        self.requests = []
        self.sleeps = []

    def record_sleep(self, seconds):
        self.sleeps.append(seconds)

    def _request_once(self, method, path, body):
        self.requests.append((method, path, body))
        return self.responses.pop(0)


class TestRetryPolicy:
    def test_429_retried_honouring_envelope_retry_after(self):
        client = _ScriptedClient([
            (429, {"retry-after": "1"}, _envelope("overloaded", "shed", 0.25)),
            (429, {"retry-after": "1"}, _envelope("rate_limited", "slow down", 0.5)),
            (200, {}, b'{"status": "ok"}'),
        ])
        assert client.healthz() == {"status": "ok"}
        # the envelope's float hint wins over the integer header
        assert client.sleeps == [0.25, 0.5]
        assert len(client.requests) == 3
        assert all(path == "/v1/healthz" for _, path, _ in client.requests)

    def test_integer_header_used_when_envelope_has_no_hint(self):
        client = _ScriptedClient([
            (429, {"retry-after": "2"}, _envelope("overloaded", "shed")),
            (200, {}, b'{"status": "ok"}'),
        ])
        client.healthz()
        assert client.sleeps == [2.0]

    def test_retry_wait_is_capped(self):
        client = _ScriptedClient(
            [
                (429, {}, _envelope("overloaded", "shed", 3600.0)),
                (200, {}, b'{"status": "ok"}'),
            ],
            max_retry_wait_s=0.2,
        )
        client.healthz()
        assert client.sleeps == [0.2]

    def test_shed_error_after_retry_budget_exhausted(self):
        client = _ScriptedClient(
            [(429, {}, _envelope("overloaded", "shed", 0.1))] * 3,
            max_retries=2,
        )
        with pytest.raises(GatewayShedError) as info:
            client.healthz()
        assert info.value.status == 429
        assert info.value.code == "overloaded"
        assert info.value.retry_after_s == 0.1
        assert len(client.requests) == 3  # initial try + 2 retries

    def test_non_429_errors_are_not_retried(self):
        client = _ScriptedClient([
            (404, {}, _envelope("not_found", "no such route")),
        ])
        with pytest.raises(GatewayError) as info:
            client._request("GET", "/nope")
        assert not isinstance(info.value, GatewayShedError)
        assert info.value.code == "not_found"
        assert len(client.requests) == 1
        assert client.sleeps == []

    def test_unparseable_error_body_falls_back_to_raw_text(self):
        client = _ScriptedClient([(500, {}, b"boom")])
        with pytest.raises(GatewayError) as info:
            client.healthz()
        assert info.value.code == "internal"
        assert info.value.message == "boom"


class TestRequestShape:
    def test_predict_sends_tenant_payload_and_parses_exact_floats(self):
        value = 0.1 + 0.2  # not exactly representable; repr round-trips
        body = json.dumps({
            "predictions": [1],
            "entropy": [value],
            "mean_probabilities": [[value, 1.0 - value]],
        }).encode()
        client = _ScriptedClient([(200, {}, body)], tenant="acme")
        payload = client.predict_arrays(
            [[1.0, 2.0]], sampling={"n_samples": 4, "seed": 0}, version="v1"
        )
        method, path, sent = client.requests[0]
        assert (method, path) == ("POST", "/v1/predict")
        assert sent == {
            "x": [[1.0, 2.0]],
            "sampling": {"n_samples": 4, "seed": 0},
            "version": "v1",
        }
        assert payload["predictions"].dtype == np.int64
        assert payload["entropy"].dtype == np.float64
        assert payload["entropy"][0] == value  # bit-exact through JSON
        assert payload["mean_probabilities"][0, 0] == value

    def test_model_ops_hit_v1_routes(self):
        client = _ScriptedClient([
            (200, {}, b'{"versions": []}'),
            (200, {}, b'{"active": "v2"}'),
            (200, {}, b'{"active": "v1"}'),
        ])
        client.models()
        client.deploy("v2")
        client.rollback()
        assert [(m, p) for m, p, _ in client.requests] == [
            ("GET", "/v1/models"),
            ("POST", "/v1/models/deploy"),
            ("POST", "/v1/models/rollback"),
        ]
        assert client.requests[1][2] == {"version": "v2"}

    def test_rejects_non_http_urls(self):
        with pytest.raises(ValueError):
            GatewayClient("https://example.com")
        with pytest.raises(ValueError):
            GatewayClient("ftp://example.com")

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError):
            GatewayClient("http://127.0.0.1:1", max_retries=-1)
