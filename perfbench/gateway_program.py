"""Serving program process: a ``/v1`` gateway with one worker process.

Run by ``perfbench/run.py``, never by hand::

    python3 perfbench/gateway_program.py --workload W --seed N --seconds S

Prints ``LISTENING {"url": ...}`` once the gateway answers, then obeys one
command per stdin line:

* ``trace``  -- install the span wrappers of :mod:`tracing`;
* ``report`` -- print ``REPORT {...}``: span aggregates, serving stats, and
  the peak RSS / context switches / pids of this process and its children;
* ``stop``   -- shut the gateway down with ``close()`` and exit.

End of input also stops the gateway, so a dead harness never leaves it
running.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import emit, process_tree_stats  # noqa: E402
from workloads import SERVE_WORKLOADS, serve_schedule  # noqa: E402

from repro.models import ReplicaSpec, get_model  # noqa: E402
from repro.serve import ModelRegistry, ServerConfig, ServingGateway  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(SERVE_WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()

    build_seed, _, _ = serve_schedule(SERVE_WORKLOADS[args.workload], args.seed, args.seconds)
    spec = get_model("B-MLP", reduced=True)
    registry = ModelRegistry()
    registry.register("v1", ReplicaSpec.capture(spec, spec.build_bayesian(seed=build_seed)))
    registry.deploy("v1")
    gateway = ServingGateway(registry, ServerConfig(n_workers=1))
    tracer = None
    with gateway:
        emit("LISTENING", {"url": gateway.url})
        for line in sys.stdin:
            command = line.strip()
            if command == "trace" and tracer is None:
                from tracing import SpanTracer

                tracer = SpanTracer().install()
            elif command == "report":
                emit(
                    "REPORT",
                    {
                        "spans": tracer.snapshot() if tracer is not None else None,
                        "stats": asdict(gateway.prediction_server.stats()),
                        "tree": process_tree_stats(os.getpid()),
                    },
                )
            elif command == "stop":
                break
    if tracer is not None:
        tracer.uninstall()
    emit("CLOSED", {})
    return 0


if __name__ == "__main__":
    sys.exit(main())
