"""HTTP-level bit-exactness and hot-swap integrity of the serving gateway.

The two acceptance properties of the gateway layer:

1. **Wire transparency** -- a prediction served over HTTP (JSON body, real
   socket, pooled into tiles, possibly sharded across worker processes) is
   byte-identical to a direct in-process ``mc_predict`` call with the same
   version/seed/``SamplingConfig``, at 0, 1 and 2 workers.
2. **Swap integrity** -- a ``deploy`` -> ``rollback`` cycle under concurrent
   client load loses zero requests and cross-version-mixes zero requests:
   every response reports the version it was pinned to at admission and its
   bytes equal *that* version's standalone ``mc_predict`` exactly.
"""

from __future__ import annotations

import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.bnn import mc_predict
from repro.models import (
    ActivationSpec,
    DenseSpec,
    ModelSpec,
    ReplicaSpec,
)
from repro.serve import (
    GatewayConfig,
    ModelRegistry,
    SamplingConfig,
    ServerConfig,
    ServingGateway,
)

N_FEATURES = 16
SAMPLING = {"n_samples": 4, "seed": 5, "grng_stride": 64}
CONFIG = SamplingConfig(**SAMPLING)


def _spec() -> ModelSpec:
    return ModelSpec(
        name="gateway-mlp",
        input_shape=(1, 4, 4),
        num_classes=3,
        dataset="integration-test",
        flatten_input=True,
        layers=(
            DenseSpec("fc1", 8),
            ActivationSpec("relu1"),
            DenseSpec("fc2", 3),
        ),
    )


def _post(url: str, body: dict) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return json.loads(response.read())


def _two_version_registry(spec: ModelSpec) -> ModelRegistry:
    registry = ModelRegistry()
    registry.register("v1", ReplicaSpec.capture(spec, spec.build_bayesian(seed=11)))
    registry.register("v2", ReplicaSpec.capture(spec, spec.build_bayesian(seed=22)))
    registry.deploy("v1")
    return registry


def _references(spec: ModelSpec, inputs: list[np.ndarray]) -> dict:
    """Per-version standalone mc_predict bytes for every input."""
    models = {"v1": spec.build_bayesian(seed=11), "v2": spec.build_bayesian(seed=22)}
    return {
        version: [
            mc_predict(
                model,
                x,
                n_samples=CONFIG.n_samples,
                seed=CONFIG.seed,
                grng_stride=CONFIG.grng_stride,
                lfsr_bits=CONFIG.lfsr_bits,
            ).sample_probabilities
            for x in inputs
        ]
        for version, model in models.items()
    }


@pytest.mark.parametrize("n_workers", [0, 1, 2])
def test_http_served_bytes_equal_mc_predict(n_workers):
    """Wire transparency at every pool size, with concurrent clients."""
    spec = _spec()
    registry = _two_version_registry(spec)
    rng = np.random.default_rng(7)
    inputs = [rng.normal(size=(rows, N_FEATURES)) for rows in (4, 2, 6, 4, 1, 8)]
    references = _references(spec, inputs)

    results: list[dict | None] = [None] * len(inputs)
    errors: list[Exception] = []

    config = ServerConfig(n_workers=n_workers, max_batch_rows=16, max_wait_ms=2.0)
    with ServingGateway(registry, config) as gateway:
        url = gateway.url + "/v1/predict"

        def client(index: int) -> None:
            try:
                results[index] = _post(
                    url, {"x": inputs[index].tolist(), "sampling": SAMPLING}
                )
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(index,))
            for index in range(len(inputs))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)

    assert not errors
    for index, body in enumerate(results):
        assert body is not None, f"request {index} was lost"
        assert body["version"] == "v1"
        served = np.asarray(body["sample_probabilities"], dtype=np.float64)
        assert np.array_equal(served, references["v1"][index]), (
            f"request {index} diverged from standalone mc_predict"
        )


@pytest.mark.parametrize("n_workers", [0, 2])
def test_deploy_rollback_under_load_loses_and_mixes_nothing(n_workers):
    """Hot swap integrity: continuous traffic across deploy -> rollback."""
    spec = _spec()
    registry = _two_version_registry(spec)
    rng = np.random.default_rng(3)
    inputs = [rng.normal(size=(4, N_FEATURES)) for _ in range(4)]
    references = _references(spec, inputs)
    # different weights => different bytes: the mixing check below is real
    for index in range(len(inputs)):
        assert not np.array_equal(
            references["v1"][index], references["v2"][index]
        )

    n_clients = 4
    requests_per_client = 8
    collected: list[tuple[int, dict]] = []
    collected_lock = threading.Lock()
    errors: list[Exception] = []

    config = ServerConfig(n_workers=n_workers, max_batch_rows=16, max_wait_ms=1.0)
    with ServingGateway(registry, config) as gateway:
        url = gateway.url

        def client(client_index: int) -> None:
            for _ in range(requests_per_client):
                input_index = client_index % len(inputs)
                try:
                    body = _post(
                        url + "/v1/predict",
                        {"x": inputs[input_index].tolist(), "sampling": SAMPLING},
                    )
                except Exception as exc:  # pragma: no cover - failure reporting
                    errors.append(exc)
                    return
                with collected_lock:
                    collected.append((input_index, body))

        threads = [
            threading.Thread(target=client, args=(index,))
            for index in range(n_clients)
        ]
        for thread in threads:
            thread.start()

        # the swap happens while the clients hammer the gateway
        deployed = _post(url + "/v1/models/deploy", {"version": "v2"})
        assert deployed["active_version"] == "v2"
        # the swap is observable: an unpinned request now serves v2 bytes
        mid = _post(url + "/v1/predict", {"x": inputs[0].tolist(), "sampling": SAMPLING})
        assert mid["version"] == "v2"
        assert np.array_equal(
            np.asarray(mid["sample_probabilities"]), references["v2"][0]
        )
        restored = _post(url + "/v1/models/rollback", {})
        assert restored["active_version"] == "v1"
        assert restored["rolled_back"] is True

        for thread in threads:
            thread.join(timeout=120)
        after = _post(url + "/v1/predict", {"x": inputs[1].tolist(), "sampling": SAMPLING})
        assert after["version"] == "v1"
        assert np.array_equal(
            np.asarray(after["sample_probabilities"]), references["v1"][1]
        )

    # zero requests lost ...
    assert not errors
    assert len(collected) == n_clients * requests_per_client
    # ... and zero requests cross-version-mixed: every response's bytes equal
    # the standalone mc_predict of exactly the version it reports
    for input_index, body in collected:
        version = body["version"]
        assert version in ("v1", "v2")
        served = np.asarray(body["sample_probabilities"], dtype=np.float64)
        assert np.array_equal(served, references[version][input_index]), (
            f"request for input {input_index} reported {version} but served "
            "different bytes"
        )


def test_swap_keeps_epsilon_cache_isolation_inline():
    """After a swap the old version's epsilon cache is invalidated, and a
    re-served old-version request still reproduces its exact bytes."""
    spec = _spec()
    registry = _two_version_registry(spec)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(4, N_FEATURES))
    references = _references(spec, [x])

    with ServingGateway(registry, ServerConfig(max_wait_ms=1.0)) as gateway:
        url = gateway.url
        first = _post(url + "/v1/predict", {"x": x.tolist(), "sampling": SAMPLING})
        assert np.array_equal(
            np.asarray(first["sample_probabilities"]), references["v1"][0]
        )
        executor = gateway.prediction_server._executor
        assert len(executor.executor_for("v1").cache) == 1
        _post(url + "/v1/models/deploy", {"version": "v2"})
        # the swap dropped v1's cached sweeps (cold versions hold no cache
        # memory) while keeping the replica resident for pinned traffic
        assert len(executor.executor_for("v1").cache) == 0
        pinned = _post(
            url + "/v1/predict",
            {"x": x.tolist(), "sampling": SAMPLING, "version": "v1"},
        )
        assert pinned["version"] == "v1"
        assert np.array_equal(
            np.asarray(pinned["sample_probabilities"]), references["v1"][0]
        )


def _raw_post(address: tuple[str, int], path: str, body: dict) -> tuple:
    """POST over a dedicated socket, returning (status, headers, raw bytes)."""
    import http.client

    connection = http.client.HTTPConnection(*address, timeout=120)
    try:
        connection.request(
            "POST",
            path,
            body=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        raw = response.read()
        headers = {key.lower(): value for key, value in response.getheaders()}
        return response.status, headers, raw
    finally:
        connection.close()


class TestWireSurfaceEquivalence:
    def test_streamed_response_bytes_equal_buffered(self):
        """A response pushed over the chunked streaming path decodes to the
        exact bytes of the buffered path, which equal mc_predict."""
        spec = _spec()
        rng = np.random.default_rng(33)
        x = rng.normal(size=(6, N_FEATURES))
        references = _references(spec, [x])
        body = {"x": x.tolist(), "sampling": SAMPLING}

        def serve(threshold: int) -> tuple:
            registry = _two_version_registry(spec)
            config = GatewayConfig(stream_threshold_bytes=threshold)
            with ServingGateway(
                registry, ServerConfig(max_wait_ms=1.0), config
            ) as gateway:
                return _raw_post(gateway.address, "/v1/predict", body)

        status_streamed, headers_streamed, raw_streamed = serve(threshold=1)
        status_buffered, headers_buffered, raw_buffered = serve(
            threshold=1 << 30
        )
        assert status_streamed == status_buffered == 200
        assert headers_streamed.get("transfer-encoding") == "chunked"
        assert "transfer-encoding" not in headers_buffered
        assert raw_streamed == raw_buffered
        served = np.asarray(
            json.loads(raw_streamed)["sample_probabilities"], dtype=np.float64
        )
        assert np.array_equal(served, references["v1"][0])


class TestOverloadIntegrity:
    def test_200s_stay_bit_exact_while_sheds_happen(self):
        """Acceptance: under a burst far beyond the row budget every request
        either succeeds bit-exactly or sheds as 429 + Retry-After -- none
        block indefinitely, none are lost, none corrupt."""
        spec = _spec()
        registry = _two_version_registry(spec)
        rng = np.random.default_rng(17)
        inputs = [rng.normal(size=(4, N_FEATURES)) for _ in range(4)]
        references = _references(spec, inputs)

        # a tight budget (one 16-row tile) against 32 bursting clients
        config = ServerConfig(
            max_batch_rows=16, max_pending_rows=16, max_wait_ms=5.0
        )
        outcomes: list[tuple[int, int, dict, bytes]] = []
        outcomes_lock = threading.Lock()

        with ServingGateway(registry, config) as gateway:
            # Hold the first tile until the burst has shed once (10 s at
            # most), so the overload does not hinge on the engine being
            # slower than 32 client threads start; the admitted requests
            # still execute afterwards and are compared byte for byte.
            executor = gateway.prediction_server._executor
            execute = executor.execute
            release = threading.Event()

            def held_execute(requests):
                release.wait(timeout=10)
                release.set()
                return execute(requests)

            executor.execute = held_execute

            def client(index: int) -> None:
                input_index = index % len(inputs)
                status, headers, raw = _raw_post(
                    gateway.address,
                    "/v1/predict",
                    {"x": inputs[input_index].tolist(), "sampling": SAMPLING},
                )
                with outcomes_lock:
                    outcomes.append((input_index, status, headers, raw))
                if status == 429:
                    release.set()

            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(32)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            stats = json.loads(
                urllib.request.urlopen(gateway.url + "/v1/stats", timeout=30).read()
            )

        assert len(outcomes) == 32  # zero requests lost
        shed = [o for o in outcomes if o[1] == 429]
        served = [o for o in outcomes if o[1] == 200]
        assert len(shed) + len(served) == 32  # no third outcome
        assert shed, "the burst should overflow a 16-row budget"
        for _, _, headers, raw in shed:
            assert int(headers["retry-after"]) >= 1
            envelope = json.loads(raw)["error"]
            assert envelope["code"] == "overloaded"
            assert envelope["retry_after_s"] > 0
        for input_index, _, _, raw in served:
            body = json.loads(raw)
            assert body["version"] == "v1"
            payload = np.asarray(body["sample_probabilities"], dtype=np.float64)
            assert np.array_equal(payload, references["v1"][input_index])
        admission = stats["admission"]
        assert admission["admitted"] >= len(served)
        assert admission["shed_capacity"] == len(shed)

    def test_deploy_rollback_racing_shed_heavy_burst(self):
        """Acceptance: a deploy/rollback cycle races a burst heavy enough to
        shed; zero admitted requests are lost or cross-version-mixed."""
        spec = _spec()
        registry = _two_version_registry(spec)
        rng = np.random.default_rng(29)
        inputs = [rng.normal(size=(4, N_FEATURES)) for _ in range(4)]
        references = _references(spec, inputs)

        config = ServerConfig(
            max_batch_rows=16, max_pending_rows=16, max_wait_ms=2.0
        )
        outcomes: list[tuple[int, int, bytes]] = []
        outcomes_lock = threading.Lock()

        with ServingGateway(registry, config) as gateway:
            def client(index: int) -> None:
                input_index = index % len(inputs)
                for _ in range(4):
                    status, _, raw = _raw_post(
                        gateway.address,
                        "/v1/predict",
                        {"x": inputs[input_index].tolist(), "sampling": SAMPLING},
                    )
                    with outcomes_lock:
                        outcomes.append((input_index, status, raw))

            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(12)
            ]
            for thread in threads:
                thread.start()
            # swap back and forth while the shed-heavy burst runs
            deployed = _post(gateway.url + "/v1/models/deploy", {"version": "v2"})
            assert deployed["active_version"] == "v2"
            restored = _post(gateway.url + "/v1/models/rollback", {})
            assert restored["active_version"] == "v1"
            for thread in threads:
                thread.join(timeout=120)

        assert len(outcomes) == 12 * 4  # every request got an answer
        served = [o for o in outcomes if o[1] == 200]
        for outcome in outcomes:
            assert outcome[1] in (200, 429)
        for input_index, _, raw in served:
            body = json.loads(raw)
            version = body["version"]
            assert version in ("v1", "v2")
            payload = np.asarray(body["sample_probabilities"], dtype=np.float64)
            assert np.array_equal(payload, references[version][input_index]), (
                f"request for input {input_index} reported {version} but "
                "served different bytes"
            )


class TestCrossConnectionCoalescing:
    def test_separate_sockets_pool_into_shared_tiles(self):
        """Requests from distinct connections coalesce into shared tiles
        (visible in the stats telemetry) without perturbing their bytes."""
        spec = _spec()
        registry = _two_version_registry(spec)
        rng = np.random.default_rng(41)
        inputs = [rng.normal(size=(2, N_FEATURES)) for _ in range(8)]
        references = _references(spec, inputs)

        # a generous flush window lets concurrent sockets land in one tile
        config = ServerConfig(max_batch_rows=64, max_wait_ms=150.0)
        results: list[tuple] = [None] * len(inputs)

        with ServingGateway(registry, config) as gateway:
            def client(index: int) -> None:
                results[index] = _raw_post(
                    gateway.address,
                    "/v1/predict",
                    {"x": inputs[index].tolist(), "sampling": SAMPLING},
                )

            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(len(inputs))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            stats = json.loads(
                urllib.request.urlopen(gateway.url + "/v1/stats", timeout=30).read()
            )

        coalescing = stats["coalescing"]
        assert coalescing["multi_source_tiles"] >= 1, (
            f"no cross-connection tile observed: {coalescing}"
        )
        assert coalescing["max_sources"] >= 2
        for index, (status, _, raw) in enumerate(results):
            assert status == 200
            payload = np.asarray(
                json.loads(raw)["sample_probabilities"], dtype=np.float64
            )
            assert np.array_equal(payload, references["v1"][index])
