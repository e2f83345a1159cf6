"""The process pool's per-worker BLAS thread budget, on both planes.

Every pool worker runs ``max(1, min(parent_threads, usable_cpus //
strength))`` BLAS threads, set in the child before its replica builds and
re-applied on an elastic resize.  These tests read the count each worker
actually runs with (its ``ready`` report, or a probe task), check the rule
across respawns and a 1 -> 3 -> 2 schedule, check that an explicit lower
``OPENBLAS_NUM_THREADS`` caps it, and check that a host without BLAS thread
control still starts and serves.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.bnn import BNNTrainer, TrainerConfig, mc_predict
from repro.core import blas
from repro.distrib import DistributedBackend, RespawnPolicy
from repro.distrib import worker as distrib_worker
from repro.distrib.pool import ProcessPool
from repro.models import ReplicaSpec
from repro.nn.losses import SoftmaxCrossEntropy
from repro.obs.metrics import MetricsRegistry
from repro.serve import ModelRegistry, ServerConfig, ServingGateway
from repro.serve import worker as serve_worker
from repro.serve.registry import DEFAULT_VERSION

SRC = Path(__file__).resolve().parents[2] / "src"

needs_blas = pytest.mark.skipif(
    blas.num_threads() is None, reason="the host BLAS offers no thread control"
)


def _expected(strength: int) -> int:
    return max(1, min(blas.num_threads(), blas.usable_cpus() // strength))


def _probe_target(rank, task_queue, result_queue):
    """A pool worker that reports its BLAS thread count on request."""
    result_queue.put(("ready", rank, {"blas_threads": blas.num_threads()}))
    while True:
        task = task_queue.get()
        if task is None:
            break
        result_queue.put(("threads", rank, blas.num_threads()))


def _get(pool: ProcessPool, kind: str, timeout: float = 30.0):
    while True:
        message = pool.result_queue.get(timeout=timeout)
        if message[0] == kind:
            return message


def _live_counts(pool: ProcessPool) -> dict[int, int]:
    """Each live worker's BLAS thread count, asked through its task queue."""
    live = pool.live()
    for worker in live:
        worker.task_queue.put("threads?")
    counts = dict(_get(pool, "threads")[1:] for _ in live)
    assert set(counts) == {worker.rank for worker in live}
    return counts


@pytest.fixture
def probe_pool():
    pools: list[ProcessPool] = []

    def make(n_workers: int, respawn: RespawnPolicy = RespawnPolicy()):
        pool = ProcessPool(_probe_target, n_workers, respawn, spawn_args=tuple)
        pools.append(pool)
        return pool

    yield make
    for pool in pools:
        pool.stop(abort=True)


@needs_blas
@pytest.mark.parametrize("plane", ["serving", "training"])
def test_ready_payload_reports_the_budget(plane, tiny_mlp_spec):
    if plane == "serving":
        model = tiny_mlp_spec.build_bayesian(seed=1)
        replica = ReplicaSpec.capture(tiny_mlp_spec, model)
        target = serve_worker._worker_main
        spawn_args = lambda: ({DEFAULT_VERSION: replica}, 2)  # noqa: E731
    else:
        replica = ReplicaSpec.structural(tiny_mlp_spec, build_seed=1)
        target = distrib_worker._worker_main
        spawn_args = lambda: (replica, SoftmaxCrossEntropy())  # noqa: E731
    parent = blas.num_threads()
    reports: dict[int, dict] = {}
    pool = ProcessPool(target, 2, RespawnPolicy(), spawn_args=spawn_args)
    try:
        pool.start(60.0, on_ready=reports.__setitem__)
        assert sorted(reports) == [0, 1]
        for payload in reports.values():
            assert payload["blas_threads"] == _expected(2)
        assert [w.blas_threads for w in pool.workers] == [_expected(2)] * 2
        assert pool.blas_threads == _expected(2)
    finally:
        pool.stop()
    # the parent's own BLAS belongs to the user
    assert blas.num_threads() == parent


@needs_blas
def test_respawned_worker_gets_the_same_budget(probe_pool):
    pool = probe_pool(2)
    pool.start(30.0)
    budget = _expected(2)
    victim = pool.workers[0]
    victim.process.kill()
    victim.process.join(10.0)
    pool.reap()
    assert pool.respawns_used == 1
    _, rank, payload = _get(pool, "ready")
    assert rank == 2
    assert payload["blas_threads"] == budget
    assert _live_counts(pool) == {1: budget, 2: budget}


@needs_blas
def test_elastic_schedule_rebalances_every_live_worker(probe_pool, monkeypatch):
    # a 6-CPU host whose parent runs 6 threads makes every step of the
    # 1 -> 3 -> 2 schedule change the budget: 6, then 2, then 3
    monkeypatch.setattr(blas, "usable_cpus", lambda: 6)
    with blas.threads(6):
        pool = probe_pool(1)
        pool.start(30.0)
        assert _live_counts(pool) == {0: 6}
        pool.grow(2)
        # joiners build their replicas under the grown budget already
        assert [_get(pool, "ready")[2]["blas_threads"] for _ in range(2)] == [2, 2]
        pool.rebalance()
        assert _live_counts(pool) == {0: 2, 1: 2, 2: 2}
        pool.retire(max(pool.workers, key=lambda w: w.rank), shutdown=True)
        pool.n_workers = 2
        pool.rebalance()
        assert _live_counts(pool) == {0: 3, 1: 3}
        assert pool.blas_threads == 3


@needs_blas
def test_budget_never_exceeds_the_parent(probe_pool, monkeypatch):
    monkeypatch.setattr(blas, "usable_cpus", lambda: 64)
    with blas.threads(1):
        pool = probe_pool(2)
        pool.start(30.0)
        assert _live_counts(pool) == {0: 1, 1: 1}


@needs_blas
def test_distributed_backend_resizes_under_the_rule(
    dense_batches, tiny_mlp_spec, monkeypatch
):
    """A fit scaled 1 -> 3 -> 2 on a 6-CPU host whose coordinator runs 6
    threads keeps the pool at 6, then 2, then 3 threads per worker, and
    exports the count as ``repro_pool_blas_threads{plane="training"}``."""
    monkeypatch.setattr(blas, "usable_cpus", lambda: 6)
    registry = MetricsRegistry()
    backend = DistributedBackend(
        ReplicaSpec.structural(tiny_mlp_spec, build_seed=3),
        n_workers=1,
        metrics=registry,
    )
    trainer = BNNTrainer(
        tiny_mlp_spec.build_bayesian(seed=3),
        TrainerConfig(n_samples=4, seed=2),
        backend=backend,
    )
    requests = {1: (backend.request_join, 2), 3: (backend.request_leave, 1)}
    seen: list[tuple[int, int | None]] = []

    def callback(_trainer, step):
        seen.append((backend.n_workers, backend.blas_threads))
        request = requests.get(step)
        if request is not None:
            request[0](request[1])

    with blas.threads(6), trainer:
        trainer.fit(dense_batches * 3, epochs=1, checkpoint_callback=callback)
        registry.collect()
        rendered = registry.render()
    assert seen == [(1, 6), (1, 6), (3, 2), (3, 2), (2, 3), (2, 3)]
    assert 'repro_pool_blas_threads{plane="training"} 3' in rendered


@pytest.fixture
def dense_batches(rng):
    x = rng.normal(size=(8, 16))
    y = rng.integers(0, 3, size=8)
    return [(x[:4], y[:4]), (x[4:], y[4:])]


@needs_blas
def test_explicit_lower_env_is_respected(tmp_path):
    """``OPENBLAS_NUM_THREADS=1`` caps the workers even when CPUs are free."""
    script = tmp_path / "probe.py"
    script.write_text(
        "import json\n"
        "from repro.core import blas\n"
        "from repro.distrib import RespawnPolicy\n"
        "from repro.distrib.pool import ProcessPool\n"
        "def target(rank, task_queue, result_queue):\n"
        "    result_queue.put(('ready', rank, blas.num_threads()))\n"
        "    task_queue.get()\n"
        "reports = []\n"
        "pool = ProcessPool(target, 1, RespawnPolicy(), spawn_args=tuple)\n"
        "pool.start(30.0, on_ready=lambda rank, n: reports.append(n))\n"
        "pool.stop()\n"
        "print(json.dumps({'parent': blas.num_threads(), 'workers': reports}))\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, str(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report == {"parent": 1, "workers": [1]}


def _read(url: str, body: dict | None = None) -> bytes | None:
    """A GET (or a JSON POST) against the gateway; ``None`` on an HTTP error."""
    request = urllib.request.Request(
        url,
        data=None if body is None else json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="GET" if body is None else "POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.read()
    except urllib.error.HTTPError:
        return None


def test_host_without_blas_control_starts_and_serves(
    monkeypatch, tiny_mlp_spec, rng
):
    monkeypatch.setattr(blas, "_entry", lambda: None)
    assert blas.num_threads() is None and blas.worker_budget(2) is None
    model = tiny_mlp_spec.build_bayesian(seed=4)
    registry = ModelRegistry.single(ReplicaSpec.capture(tiny_mlp_spec, model))
    x = rng.normal(size=(3, 16))
    sampling = {"n_samples": 4, "seed": 3}
    config = ServerConfig(n_workers=2, max_wait_ms=1.0)
    with ServingGateway(registry, config) as gateway:
        body = json.loads(
            _read(gateway.url + "/v1/predict", {"x": x.tolist(), "sampling": sampling})
        )
        workers = json.loads(_read(gateway.url + "/v1/stats"))["workers"]
        metrics = _read(gateway.url + "/v1/metrics") or b""
    reference = mc_predict(model, x, **sampling)
    assert np.array_equal(
        np.asarray(body["sample_probabilities"]), reference.sample_probabilities
    )
    assert workers == {
        "n_workers": 2,
        "alive": 2,
        "respawns_used": 0,
        "blas_threads": None,
    }
    assert b"repro_pool_blas_threads" not in metrics


@needs_blas
def test_serving_stats_and_metrics_report_the_budget(tiny_mlp_spec):
    registry = ModelRegistry.single(
        ReplicaSpec.capture(tiny_mlp_spec, tiny_mlp_spec.build_bayesian(seed=4))
    )
    with ServingGateway(registry, ServerConfig(n_workers=1)) as gateway:
        workers = json.loads(_read(gateway.url + "/v1/stats"))["workers"]
        metrics = _read(gateway.url + "/v1/metrics")
    # a one-worker gateway keeps the parent's count when the CPUs allow it
    assert workers["blas_threads"] == _expected(1)
    assert workers["n_workers"] == 1 and workers["alive"] == 1
    if metrics:  # empty (or refused) under REPRO_OBS=0
        gauge = f'repro_pool_blas_threads{{plane="serving"}} {_expected(1)}'
        assert gauge in metrics.decode()
