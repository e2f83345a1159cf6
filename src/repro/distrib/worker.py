"""Shard execution engine and worker-process loop for distributed training.

A :class:`ShardEngine` executes one task's FW/BW/GC work for a cell of the
step's :class:`~repro.distrib.plan.StepPlan` -- a *shard* of the canonical
Monte-Carlo samples crossed with one contiguous *row block* of the
minibatch.  It is deliberately **stateless between steps**: everything that
determines the task's bits arrives in the task payload -- the current
parameter values and minibatch rows (resolved through the content-addressed
:class:`~repro.distrib.delta.DeltaCache`, a pure transport optimisation),
the shard's canonical generator snapshots and the loss weights.  The
engine's model replica, delta cache and cached shard banks are performance
caches only; re-executing a payload on a freshly-built engine (e.g. on a
respawned worker after a crash) produces byte-identical results, which is
what makes the coordinator's retry-on-death recovery deterministic.

Bit-exactness contract (the Fig. 9 property, extended across processes):

* The shard's :class:`~repro.core.checkpoint.StreamBank` hosts exactly the
  shard's rows, seeded as the canonical samples would be
  (``sample_indices=shard``) and rewound onto the coordinator's canonical
  generator states before the pass -- epsilon bits never depend on which
  worker runs the task, or on anything the worker did earlier.  Weight
  epsilons do not depend on minibatch rows, so every row block of a sample
  draws identical epsilons; snapshots and traffic deltas are reported by
  row block 0 alone.
* The per-sample forward/backward arithmetic is shard-size independent by
  construction (per-sample matmuls / im2col; element-wise ops broadcast per
  row), so sample ``s`` computes the same bits whether it is folded with
  all ``S`` samples or only with its shard.
* Gradients are not accumulated locally: a
  :class:`~repro.bnn.grad_tape.SampleGradientTape` captures every
  parameter's per-sample contribution stack, and the coordinator replays
  the additions in canonical ``(sample, row-block)`` order across tasks.
  KL/prior (and entropy) terms are row-count independent, so they enter
  through row block 0 only (other blocks run with ``kl_weight=0``).
"""

from __future__ import annotations

import os
import traceback
from typing import TYPE_CHECKING

import numpy as np

from ..core import blas
from ..core.checkpoint import StreamBank
from ..nn.losses import loss_probabilities
from ..nn.quantization import QuantizationConfig
from ..bnn.grad_tape import SampleGradientTape
from .delta import DeltaCache, DeltaResyncRequired

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..bnn.model import BayesianNetwork
    from ..models.zoo import ReplicaSpec
    from ..nn.losses import Loss

__all__ = ["ShardEngine"]

#: Slot-name prefixes of the delta-shipped state (see ``distrib.delta``).
PARAM_SLOT_PREFIX = "param/"


def data_slots(block_index: int) -> tuple[str, str]:
    """The ``(x, y)`` slot names of one row block's minibatch data."""
    return f"data/x/{block_index}", f"data/y/{block_index}"


class ShardEngine:
    """Executes ``(shard, row-block)`` tasks against a private model replica.

    One engine lives in each worker process (and one serves the inline
    ``n_workers=0`` path on the coordinator).  Shard banks are cached per
    ``(shard, bank-config)`` key; their generator registers are overwritten
    from the payload's canonical snapshots at every task, so the cache can
    never leak state into the results.  The delta cache resolves the
    payload's content-addressed state message; on any mismatch it raises
    :class:`~repro.distrib.delta.DeltaResyncRequired`, which the worker
    loop reports for a coordinator-driven full resync.
    """

    def __init__(self, model: "BayesianNetwork", loss: "Loss") -> None:
        self.model = model
        self.loss = loss
        self.delta_cache = DeltaCache()
        self._parameters = {param.name: param for param in model.parameters()}
        self._banks: dict[tuple, StreamBank] = {}
        self._applied_quantization: object = None

    # ------------------------------------------------------------------
    def _bank_for(self, shard: tuple[int, ...], bank_cfg: dict) -> StreamBank:
        key = (
            shard,
            bank_cfg["policy"],
            bank_cfg["seed"],
            bank_cfg["lfsr_bits"],
            bank_cfg["grng_stride"],
            bank_cfg["lockstep"],
        )
        bank = self._banks.get(key)
        if bank is None:
            bank = StreamBank(
                n_samples=len(shard),
                policy=bank_cfg["policy"],
                seed=bank_cfg["seed"],
                lfsr_bits=bank_cfg["lfsr_bits"],
                grng_stride=bank_cfg["grng_stride"],
                lockstep=bank_cfg["lockstep"],
                sample_indices=shard,
            )
            self._banks[key] = bank
        return bank

    def _load_parameters(self, values: dict[str, np.ndarray]) -> None:
        if set(values) != set(self._parameters):
            missing = sorted(set(self._parameters) - set(values))
            unexpected = sorted(set(values) - set(self._parameters))
            raise ValueError(
                f"step parameters do not match the replica: missing={missing}, "
                f"unexpected={unexpected}"
            )
        for name, value in values.items():
            parameter = self._parameters[name]
            if parameter.value.shape != value.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: step {value.shape}, "
                    f"replica {parameter.value.shape}"
                )
            parameter.value[...] = value

    def _apply_quantization(self, quantization_bits: int | None) -> None:
        if quantization_bits == self._applied_quantization:
            return
        if quantization_bits in (8, 16):
            config = QuantizationConfig.from_word_length(quantization_bits)
        else:
            config = QuantizationConfig.full_precision()
        self.model.quantization = config
        self._applied_quantization = quantization_bits

    def _resolve_state(
        self, payload: dict
    ) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
        """Resolve the task's ``(params, x, y)`` from its state message.

        Payloads may also carry the pre-delta direct keys (``params`` /
        ``x`` / ``y``) -- the form unit tests and external callers use; the
        coordinator always ships the content-addressed ``state`` message.
        """
        state = payload.get("state")
        if state is None:
            return payload["params"], payload["x"], payload["y"]
        resolved = self.delta_cache.apply(state)
        params = {
            slot[len(PARAM_SLOT_PREFIX):]: array
            for slot, array in resolved.items()
            if slot.startswith(PARAM_SLOT_PREFIX)
        }
        x_slot, y_slot = data_slots(payload.get("row_block", 0))
        return params, resolved[x_slot], resolved[y_slot]

    # ------------------------------------------------------------------
    def run_step(self, payload: dict) -> dict:
        """Execute one task; returns the wire-format result payload.

        The result carries the per-sample gradient contribution stacks, the
        per-sample loss terms and predictive probabilities of the task's
        row block -- in the shard's local sample order (the coordinator owns
        canonical order) -- plus, for row block 0, the post-step generator
        snapshots and the step's traffic-counter deltas.
        """
        shard: tuple[int, ...] = tuple(payload["shard"])
        block_index: int = payload.get("row_block", 0)
        total_rows: int | None = payload.get("total_rows")
        row_normalised: bool = payload.get("row_normalised", False)
        params, x, y = self._resolve_state(payload)
        self._load_parameters(params)
        self._apply_quantization(payload.get("quantization_bits"))
        bank = self._bank_for(shard, payload["bank"])
        # adopt the coordinator's canonical generator states and zero the
        # traffic counters: everything shipped back is a pure per-step delta
        bank.load_generator_states(payload["snapshots"])
        bank.reset_usage()

        model = self.model
        model.train()
        model.zero_grad()
        sampler = bank.batched_sampler()
        with SampleGradientTape() as tape:
            logits = model.forward_samples(x, sampler)
            nlls: list[float] = []
            probabilities = np.empty_like(logits)
            grad_logits = np.empty_like(logits)
            for local_index in range(len(shard)):
                if row_normalised:
                    nlls.append(
                        self.loss.forward_rows(logits[local_index], y, total_rows)
                    )
                else:
                    nlls.append(self.loss.forward(logits[local_index], y))
                probabilities[local_index] = loss_probabilities(
                    self.loss, logits[local_index]
                )
                if row_normalised:
                    grad_logits[local_index] = self.loss.backward_rows()
                else:
                    grad_logits[local_index] = self.loss.backward()
            model.backward_samples(
                grad_logits,
                sampler,
                kl_weight=payload["kl_weight"],
                include_entropy_term=payload["include_entropy_term"],
            )
        bank.finish_iteration()
        missing = set(self._parameters) - set(tape.contributions)
        if missing:  # pragma: no cover - layer code failing its contract
            raise RuntimeError(
                f"no per-sample contributions captured for {sorted(missing)}"
            )
        first_block = block_index == 0
        return {
            "shard": shard,
            "row_block": block_index,
            "rows": payload.get("rows"),
            "contributions": tape.contributions,
            "nlls": nlls,
            "probabilities": probabilities,
            # every row block of a sample draws identical weight epsilons
            # (they do not depend on minibatch rows), so block 0 speaks for
            # the sample: one snapshot, one traffic delta -- exactly the
            # accounting of the single-process run
            "snapshots": bank.snapshots() if first_block else None,
            "usage": bank.usage_state_dicts() if first_block else None,
        }


def _worker_main(
    rank: int,
    replica: "ReplicaSpec",
    loss: "Loss",
    task_queue,
    result_queue,
) -> None:
    """Training-worker process body: build the replica, then serve tasks.

    The :class:`~repro.distrib.pool.ProcessPool` protocol: a ``("ready",
    rank, {"blas_threads": n})`` handshake after construction (``n`` is the
    thread budget the pool applied, ``None`` without BLAS thread control),
    then ``("done" | "error", task_id, payload)`` per task, with exceptions
    crossing the process boundary as formatted tracebacks.  A delta-cache
    mismatch is not an error: the worker answers ``("resync", task_id,
    {"rank": ...})`` and the coordinator re-ships the task full.  A ``None``
    task shuts the worker down.
    """
    try:
        engine = ShardEngine(replica.build(), loss)
        result_queue.put(("ready", rank, {"blas_threads": blas.num_threads()}))
    except BaseException:  # pragma: no cover - defensive startup reporting
        result_queue.put(("fatal", rank, traceback.format_exc()))
        return
    while True:
        task = task_queue.get()
        if task is None:
            break
        task_id, payload = task
        if payload.get("test_crash"):
            # fault-injection hook for the recovery tests: die exactly the
            # way a segfaulting or OOM-killed worker would -- no cleanup,
            # no result message
            os._exit(1)
        try:
            result_queue.put(("done", task_id, engine.run_step(payload)))
        except DeltaResyncRequired as exc:
            result_queue.put(
                ("resync", task_id, {"rank": rank, "detail": str(exc)})
            )
        except BaseException:
            result_queue.put(("error", task_id, traceback.format_exc()))
