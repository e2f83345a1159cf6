"""Training program process: set up, warm up, run ``fit()`` for a timed window.

Run by ``perfbench/run.py``, never by hand::

    python3 perfbench/train_program.py --workload W --seed N --seconds S
        [--trace 0|1] [--setup-only]

Protocol on stdout: ``READY {}`` once the warm-up prefix has run (the
harness times set-up up to this line), then ``RESULT {...}`` at the end.
With ``--trace 1`` the window is split: the first half runs untraced, the
second half with the span wrappers of :mod:`tracing` installed.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    PREFIX_STEPS,
    TRAIN_BATCH,
    TRAIN_BATCHES,
    TRAIN_SAMPLES,
    emit,
    process_tree_stats,
)
from workloads import TRAIN_WORKLOADS, TrainWorkload, train_seeds  # noqa: E402

from repro.bnn import BNNTrainer, TrainerConfig  # noqa: E402
from repro.datasets import BatchLoader, synthetic_cifar10, synthetic_mnist  # noqa: E402
from repro.distrib import DistributedBackend  # noqa: E402
from repro.models import ReplicaSpec, get_model  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402


class _WindowOver(Exception):
    """Raised from the per-step callback to end ``fit()`` at the deadline."""


def _batches(workload: TrainWorkload, dataset_seed: int, spec):
    n_train = TRAIN_BATCH * TRAIN_BATCHES
    if workload.model == "B-MLP":
        train, _ = synthetic_mnist(n_train=n_train, n_test=10, image_size=14, seed=dataset_seed)
    else:
        train, _ = synthetic_cifar10(n_train=n_train, n_test=10, image_size=16, seed=dataset_seed)
    return BatchLoader(train, batch_size=TRAIN_BATCH, flatten=spec.flatten_input).batches()


def _config(workload: TrainWorkload, epsilon_seed: int) -> TrainerConfig:
    # a fixed KL weight keeps prefix fits and full-epoch fits on one schedule
    return TrainerConfig(
        n_samples=TRAIN_SAMPLES,
        learning_rate=1e-3,
        kl_weight=1.0 / (TRAIN_BATCH * TRAIN_BATCHES),
        grng_stride=workload.grng_stride,
        seed=epsilon_seed,
    )


def _params(trainer: BNNTrainer) -> list[bytes]:
    return [parameter.value.tobytes() for parameter in trainer.model.parameters()]


def _usage(trainer: BNNTrainer) -> dict[str, int]:
    usages = [stream.usage for stream in trainer.bank.streams]
    return {
        "generated": sum(usage.generated_values for usage in usages),
        "retrieved": sum(usage.retrieved_values for usage in usages),
        "read_bytes": sum(usage.offchip_read_bytes for usage in usages),
        "write_bytes": sum(usage.offchip_write_bytes for usage in usages),
        "footprint_bytes": trainer.epsilon_footprint_bytes(),
    }


def _distrib_counters(backend: DistributedBackend | None, registry: MetricsRegistry | None) -> dict:
    if backend is None or registry is None:
        return {}
    phases = registry.histogram("repro_distrib_step_phase_ms", "", ("phase",))
    counters = {
        "bytes_shipped": backend.bytes_shipped,
        "bytes_full": backend.bytes_full_equivalent,
        "resyncs": backend.resyncs,
    }
    for phase in ("ship", "compute", "replay_reduce"):
        counters[f"{phase}_ms"] = phases.labels(phase=phase).sum
    return counters


def _timed_fit(trainer: BNNTrainer, batches, seconds: float, schedule: list[int]) -> dict:
    """Run ``fit()`` epochs until ``seconds`` pass; one duration per step."""
    durations: list[float] = []
    errors: list[str] = []
    start = time.perf_counter()
    deadline = start + seconds
    last = start

    def on_step(_trainer: BNNTrainer, step: int) -> None:
        nonlocal last
        now = time.perf_counter()
        durations.append(now - last)
        schedule.append(step % len(batches))
        last = now
        if now >= deadline:
            raise _WindowOver

    while True:
        last = time.perf_counter()
        try:
            trainer.fit(batches, epochs=1, checkpoint_callback=on_step)
        except _WindowOver:
            break
        except Exception as exc:  # a failed step ends the window, counted
            errors.append(f"{type(exc).__name__}: {exc}")
            break
    return {
        "step_s": durations,
        "wall_s": time.perf_counter() - start,
        "errors": errors,
    }


def _build(workload: TrainWorkload, spec, build_seed: int, epsilon_seed: int, policy: str,
           distributed: bool):
    backend = registry = None
    if distributed:
        registry = MetricsRegistry()
        backend = DistributedBackend(
            ReplicaSpec.structural(spec, build_seed=build_seed),
            n_workers=workload.n_workers,
            delta_shipping=True,
            n_row_blocks=1,
            metrics=registry,
        )
    trainer = BNNTrainer(
        spec.build_bayesian(seed=build_seed),
        _config(workload, epsilon_seed),
        policy=policy,
        backend=backend,
    )
    return trainer, backend, registry


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(TRAIN_WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = TRAIN_WORKLOADS[args.workload]
    dataset_seed, build_seed, epsilon_seed = train_seeds(args.seed)
    spec = get_model(workload.model, reduced=True)
    batches = _batches(workload, dataset_seed, spec)
    trainer, backend, registry = _build(
        workload, spec, build_seed, epsilon_seed, workload.policy, workload.n_workers is not None
    )
    # warm-up: the Fig. 9 prefix, which also pays the backend gate, the
    # stability probe and the worker spawn
    schedule = list(range(PREFIX_STEPS))
    trainer.fit(batches[:PREFIX_STEPS], epochs=1)
    prefix_params = _params(trainer)
    emit("READY", {})
    if args.setup_only:
        trainer.close()
        return 0

    result: dict = {"phases": {}}
    if args.trace:
        untraced = _timed_fit(trainer, batches, args.seconds / 2, schedule)
        result["phases"]["untraced"] = untraced
        from tracing import SpanTracer

        tracer = SpanTracer().install()
        before_usage, before_distrib = _usage(trainer), _distrib_counters(backend, registry)
        traced = _timed_fit(trainer, batches, args.seconds / 2, schedule)
        tracer.uninstall()
        result["phases"]["traced"] = traced
        after_usage, after_distrib = _usage(trainer), _distrib_counters(backend, registry)
        result["spans"] = tracer.snapshot()
        result["usage"] = {"before": before_usage, "after": after_usage}
        result["distrib"] = {"before": before_distrib, "after": after_distrib}
    else:
        result["phases"]["untraced"] = _timed_fit(trainer, batches, args.seconds, schedule)
    result["tree"] = process_tree_stats(os.getpid())
    trainer.close()

    # -- output checks, outside the timed window --------------------------
    checks: dict[str, bool] = {}
    other = "stored" if workload.policy == "reversible" else "reversible"
    reference, _, _ = _build(workload, spec, build_seed, epsilon_seed, other, False)
    reference.fit(batches[:PREFIX_STEPS], epochs=1)
    checks["prefix_policy_invariant"] = _params(reference) == prefix_params
    if backend is not None:
        single, _, _ = _build(workload, spec, build_seed, epsilon_seed, workload.policy, False)
        kl_weight = single.config.kl_weight
        for index in schedule:
            x, y = batches[index]
            single.train_step(x, y, kl_weight=kl_weight)
        checks["distrib_equals_single_process"] = _params(single) == _params(trainer)
    result["checks"] = checks
    emit("RESULT", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
