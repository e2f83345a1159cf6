"""Span wrappers installed around each layer's public functions.

The library carries no engine-level timing, so the traced run replaces the
functions named in :data:`LAYER_SPANS` with wrappers that record, per span
name, the call count, the inclusive time and the self time (inclusive time
minus the time of spans nested inside it on the same thread).  Nothing is
installed unless a traced run asks for it, and :meth:`SpanTracer.uninstall`
restores the originals.

Spans are aggregated in memory and reported when the program process ends;
the gateway's own request traces (``repro.obs``) are folded in through a
wrapper around the tracer's record call, which sees every finished request's
span tree, worker-side leaves included.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict

#: (module, class or None, attribute, span name).  Where a module binds a
#: function by name from another module, both bindings are listed.
LAYER_SPANS: tuple[tuple[str, str | None, str, str], ...] = (
    # core: epsilon generation, reversed retrieval, serving sweeps
    ("repro.core.sampler", "BatchedWeightSampler", "prefetch_forward", "core.eps_prefetch"),
    ("repro.core.sampler", "BatchedWeightSampler", "sample", "core.eps_sample"),
    ("repro.core.sampler", "BatchedWeightSampler", "resample", "core.eps_retrieve"),
    ("repro.core.checkpoint", "StreamBank", "finish_iteration", "core.finish"),
    ("repro.serve.executor", None, "materialize_epsilon_sweep", "core.sweep"),
    ("repro.serve.shm_cache", None, "materialize_epsilon_sweep", "core.sweep"),
    # nn: kernels, loss, optimiser
    ("repro.nn.functional", None, "sample_matmul", "nn.gemm"),
    ("repro.nn.functional", None, "im2col", "nn.im2col"),
    ("repro.nn.functional", None, "col2im", "nn.col2im"),
    ("repro.nn.functional", None, "conv2d_forward_samples", "nn.conv_fw"),
    ("repro.nn.functional", None, "conv2d_backward_samples", "nn.conv_bw"),
    ("repro.nn.functional", None, "maxpool2d_forward", "nn.pool"),
    ("repro.nn.functional", None, "maxpool2d_backward", "nn.pool"),
    ("repro.nn.functional", None, "relu", "nn.act"),
    ("repro.nn.functional", None, "relu_grad", "nn.act"),
    ("repro.nn.losses", "SoftmaxCrossEntropy", "forward", "nn.loss"),
    ("repro.nn.losses", "SoftmaxCrossEntropy", "backward", "nn.loss"),
    ("repro.bnn.trainer", None, "loss_probabilities", "nn.loss"),
    ("repro.nn.optim", "Adam", "step", "nn.optim"),
    # bnn: gradient computation and the per-layer / per-step glue
    ("repro.bnn.posteriors", "GaussianPosterior", "accumulate_sample_gradients", "bnn.gc"),
    ("repro.bnn.trainer", "BNNTrainer", "train_step", "bnn.train_step"),
    ("repro.bnn.model", "BayesianNetwork", "forward_samples", "bnn.glue"),
    ("repro.bnn.model", "BayesianNetwork", "backward_samples", "bnn.glue"),
    ("repro.bnn.model", "BayesianNetwork", "complexity", "bnn.glue"),
    ("repro.bnn.bayes_layers", "BayesDense", "forward_samples", "bnn.glue"),
    ("repro.bnn.bayes_layers", "BayesDense", "backward_samples", "bnn.glue"),
    ("repro.bnn.bayes_layers", "BayesConv2D", "forward_samples", "bnn.glue"),
    ("repro.bnn.bayes_layers", "BayesConv2D", "backward_samples", "bnn.glue"),
    # distrib: one coordinator step (ship, IPC, replay)
    ("repro.distrib.coordinator", "DistributedBackend", "run_step", "distrib.run_step"),
)

#: gateway request-trace stages folded into ``serve.*`` means
REQUEST_STAGES = ("admission", "queue_wait", "execute", "serialization")


class SpanTracer:
    """Per-name call counts and inclusive/self seconds of wrapped functions."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        #: gateway request traces: count, summed stage seconds, span count
        self.requests = 0
        self.request_s = 0.0
        self.request_spans = 0
        self.stage_s: dict[str, float] = defaultdict(float)

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, function):
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with tracer._lock:
                    tracer.calls[name] += 1
                    tracer.inclusive_s[name] += elapsed
                    tracer.self_s[name] += elapsed - children

        return wrapper

    def _wrap_record(self, function):
        """Wrap ``repro.obs.trace.Tracer._record`` (one call per finished request)."""
        tracer = self

        @functools.wraps(function)
        def wrapper(obs_tracer, handle, status, spans):
            duration = obs_tracer._clock() - handle.started_at
            with tracer._lock:
                tracer.requests += 1
                tracer.request_s += duration
                tracer.request_spans += len(spans)
                for span in spans:
                    if span["name"] in REQUEST_STAGES:
                        tracer.stage_s[span["name"]] += span["end_s"] - span["start_s"]
            return function(obs_tracer, handle, status, spans)

        return wrapper

    def _patch(self, owner: object, attribute: str, replacement) -> None:
        self._patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> "SpanTracer":
        """Wrap every function in :data:`LAYER_SPANS` and the request recorder."""
        for module_name, class_name, attribute, name in LAYER_SPANS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            self._patch(owner, attribute, self._wrap(name, owner.__dict__[attribute]))
        from repro.obs.trace import Tracer

        self._patch(Tracer, "_record", self._wrap_record(Tracer.__dict__["_record"]))
        return self

    def uninstall(self) -> None:
        """Restore every original function (reverse order of patching)."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def snapshot(self) -> dict:
        """All aggregates as plain JSON-ready dicts (seconds)."""
        with self._lock:
            return {
                "calls": dict(self.calls),
                "inclusive_s": dict(self.inclusive_s),
                "self_s": dict(self.self_s),
                "requests": self.requests,
                "request_s": self.request_s,
                "request_spans": self.request_spans,
                "stage_s": dict(self.stage_s),
            }
