"""Workload definitions and their seeded inputs.

Everything a program process needs is derived here from the ``--seed``
the harness was given; the program only ever receives generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TrainWorkload:
    model: str
    """Reduced zoo model (``B-MLP`` -> B-MLP-small, ``B-LeNet`` -> B-LeNet-small)."""
    policy: str
    """Epsilon policy under test; the Fig. 9 check replays under the other one."""
    grng_stride: int
    n_workers: int | None = None
    """``None``: single process; ``N``: ``DistributedBackend`` with N workers."""


TRAIN_WORKLOADS: dict[str, TrainWorkload] = {
    # core-heavy: forward prefetch + LFSR-reversal retrieval dominate a step
    "train_mlp_reversible_s256": TrainWorkload("B-MLP", "reversible", 256),
    # nn-heavy: im2col/col2im/pool dominate; epsilons stored, not regenerated
    "train_lenet_stored_s1": TrainWorkload("B-LeNet", "stored", 1),
    # distrib-heavy: per-step ship / IPC / replay against two workers
    "train_mlp_distrib2": TrainWorkload("B-MLP", "stored", 1, n_workers=2),
}


@dataclass(frozen=True)
class ServeWorkload:
    rate_per_s: float = 30.0
    """Open-loop arrival rate; saturation lies between 50 and 100 req/s."""
    connections: int = 2
    """Keep-alive connections of the one generator process (at most nproc)."""
    rows: int = 8
    n_samples: int = 16
    grng_stride: int = 256
    cold_share: float = 0.1
    """Share of requests with a sampling seed no earlier request used: each
    costs a fresh epsilon sweep and a new shared-memory segment."""
    hot_inputs: int = 16
    """Distinct request bodies; every request draws one of them."""
    latency_limit_ms: float = 250.0


SERVE_WORKLOADS: dict[str, ServeWorkload] = {"serve_mlp_open30": ServeWorkload()}

WORKLOADS = tuple(TRAIN_WORKLOADS) + tuple(SERVE_WORKLOADS)


def train_seeds(seed: int) -> tuple[int, int, int]:
    """``(dataset_seed, model_build_seed, epsilon_seed)`` of a training run."""
    values = np.random.default_rng([seed, 0]).integers(1, 2**31 - 1, size=3)
    return int(values[0]), int(values[1]), int(values[2])


@dataclass(frozen=True)
class Request:
    due_s: float
    """Send time relative to the start of the schedule."""
    input_index: int
    seed: int
    """``SamplingConfig.seed``; hot requests share one, cold ones never repeat."""


def serve_schedule(
    workload: ServeWorkload, seed: int, seconds: float
) -> tuple[int, int, list[Request]]:
    """Seeded open-loop schedule: Poisson arrivals, exactly ``cold_share`` cold.

    Each one-second slot holds exactly ``rate`` arrivals at uniform random
    times -- a Poisson process conditioned on its count per slot -- and one
    arrival in every ``1 / cold_share`` is cold, so every seed offers the
    same load and the same number of cold sweeps, without seed-to-seed
    bursts.  Returns ``(model_build_seed, hot_sampling_seed, requests)``.
    """
    rng = np.random.default_rng([seed, 1])
    build_seed, hot_seed = (int(value) for value in rng.integers(1, 2**31 - 1, size=2))
    slots = max(1, int(round(seconds)))
    per_slot = max(1, int(round(workload.rate_per_s * seconds / slots)))
    count = slots * per_slot
    slot_length = seconds / slots
    due = np.concatenate(
        [np.sort(rng.uniform(slot * slot_length, (slot + 1) * slot_length, size=per_slot))
         for slot in range(slots)]
    )
    # one cold request in each run of 1 / cold_share consecutive arrivals, so
    # cold sweeps seldom pile up on both connections at once
    block = max(1, int(round(1 / workload.cold_share)))
    cold = np.zeros(count, dtype=bool)
    for start in range(0, count - block + 1, block):
        cold[start + int(rng.integers(block))] = True
    n_cold = int(cold.sum())
    # fresh sampling seeds no earlier request (and not the hot config) used
    cold_seeds = iter(
        int(value)
        for value in rng.choice(
            np.setdiff1d(np.arange(1, 2**20), [hot_seed]), size=n_cold, replace=False
        )
    )
    inputs = rng.integers(0, workload.hot_inputs, size=count)
    requests = [
        Request(
            due_s=float(due[index]),
            input_index=int(inputs[index]),
            seed=next(cold_seeds) if cold[index] else hot_seed,
        )
        for index in range(count)
    ]
    return build_seed, hot_seed, requests


def serve_inputs(workload: ServeWorkload, seed: int, n_features: int) -> np.ndarray:
    """``(hot_inputs, rows, n_features)`` request bodies."""
    rng = np.random.default_rng([seed, 2])
    return rng.normal(size=(workload.hot_inputs, workload.rows, n_features))
