"""Startup failure of the shared worker-process pool, on both planes.

A replica that cannot be built must fail the pool's start with the plane's
own exception type carrying the worker's traceback, leave no child process
alive (including the workers that did build), and turn a second shutdown
call into a no-op.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.bnn import BNNTrainer, TrainerConfig
from repro.distrib import DistributedBackend, DistributedStepError
from repro.models import ReplicaSpec
from repro.serve.worker import WorkerPool


class _FirstBuildFails:
    """A replica whose first build (in whichever worker gets there first)
    raises; later builds succeed, so the pool holds a live, ready worker
    that its startup abort has to take down."""

    def __init__(self, spec):
        self._replica = ReplicaSpec.structural(spec, build_seed=0)
        self._builds = multiprocessing.Value("i", 0)

    def build(self):
        with self._builds.get_lock():
            self._builds.value += 1
            first = self._builds.value == 1
        if first:
            raise ValueError("replica build refused on purpose")
        return self._replica.build()


def _serving_pool(spec):
    pool = WorkerPool(
        _FirstBuildFails(spec), n_workers=2, result_handler=lambda *args: None
    )
    return pool.start, pool.stop


def _training_backend(spec):
    backend = DistributedBackend(_FirstBuildFails(spec), n_workers=2)
    trainer = BNNTrainer(
        spec.build_bayesian(seed=0), TrainerConfig(n_samples=2), backend=backend
    )
    x = np.zeros((2, 16))
    y = np.zeros(2, dtype=np.int64)
    return (lambda: trainer.train_step(x, y)), backend.close


@pytest.mark.parametrize(
    "make_pool, error",
    [(_serving_pool, RuntimeError), (_training_backend, DistributedStepError)],
    ids=["serving", "training"],
)
def test_unbuildable_replica_fails_startup_cleanly(make_pool, error, tiny_mlp_spec):
    before = set(multiprocessing.active_children())
    start, stop = make_pool(tiny_mlp_spec)
    with pytest.raises(RuntimeError) as info:
        start()
    assert type(info.value) is error
    message = str(info.value)
    assert "worker failed to build its replica" in message
    # the worker's own traceback crosses the process boundary
    assert "Traceback" in message
    assert "ValueError: replica build refused on purpose" in message
    assert set(multiprocessing.active_children()) <= before
    stop()
    stop()
    assert set(multiprocessing.active_children()) <= before
