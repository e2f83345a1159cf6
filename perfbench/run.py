"""The repository benchmark: training throughput, ``/v1`` latency, distributed steps.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``train_mlp_reversible_s256`` -- ``fit()`` on B-MLP-small, reversible
  (Shift-BNN) epsilons at GRNG stride 256;
* ``train_lenet_stored_s1``     -- ``fit()`` on B-LeNet-small, stored
  (baseline) epsilons at stride 1;
* ``train_mlp_distrib2``        -- ``fit()`` on B-MLP-small through a
  two-worker ``DistributedBackend``;
* ``serve_mlp_open30``          -- an open-loop Poisson schedule at 30 req/s
  over two keep-alive connections against a one-worker ``/v1`` gateway.

Every program runs in its own process, started ``SETUP_REPEATS`` times per
run: each start is timed to its warm-up step or first response and the
median is ``setup_s``; the last start runs the timed window.  Outputs are
checked on every run and every failure is counted.  With ``--trace 1`` the
window is split into an untraced and a traced half, and the run reports the
per-layer metrics instead of the end-to-end ones.

The last stdout line is the result object.  The line before it stamps the
environment (BLAS build and threads, versions, ``REPRO_*``, revision) and
the run's host-noise counters, which are report-only.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    BENCH_DIR,
    PREFIX_STEPS,
    ROOT,
    SRC,
    TRAIN_BATCH,
    TRAIN_SAMPLES,
    cpu_ticks,
    environment_stamp,
    parse_line,
    pid_alive,
    program_env,
    shm_segments,
)
from workloads import (  # noqa: E402
    SERVE_WORKLOADS,
    TRAIN_WORKLOADS,
    WORKLOADS,
    serve_inputs,
    serve_schedule,
)

SETUP_REPEATS = 5
#: a program start must reach its warm-up step within this many seconds
SETUP_TIMEOUT_S = 60.0
#: after the window, a program must report (checks included) within this
RESULT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 10.0
#: on a terminating signal, how long a program tree gets to exit on SIGTERM
#: (the resource tracker reclaims shared memory then) before SIGKILL
ABORT_GRACE_S = 5.0

#: end-to-end metrics (``--trace 0``) and their units.  The median step time
#: and the throughput are per-layer ``bench.*`` figures instead: two-worker
#: steps are bimodal under default BLAS threads and the serving median
#: follows host scheduling noise, so neither holds a 0.25 run-to-run bound
END_TO_END = {
    "setup_s": "s",
    "op_ms_p95": "ms",
    "slo_met_share": "share",
    "peak_rss_mb": "MiB",
}

#: per-layer metrics (``--trace 1``) and their units; a layer a workload
#: never enters reports 0
PER_LAYER = {
    "core.eps_prefetch_ms": "ms",
    "core.eps_sample_ms": "ms",
    "core.eps_retrieve_ms": "ms",
    "core.eps_generated_per_step": "count",
    "core.eps_retrieved_per_step": "count",
    "core.eps_footprint_kb": "KiB",
    "core.eps_offchip_mb_per_step": "MiB",
    "core.sweep_ms": "ms",
    "nn.gemm_ms": "ms",
    "nn.im2col_ms": "ms",
    "nn.col2im_ms": "ms",
    "nn.conv_fw_ms": "ms",
    "nn.conv_bw_ms": "ms",
    "nn.pool_ms": "ms",
    "nn.act_ms": "ms",
    "nn.loss_ms": "ms",
    "nn.optim_ms": "ms",
    "bnn.gc_ms": "ms",
    "bnn.glue_ms": "ms",
    "bnn.coverage": "share",
    "serve.admit_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.execute_ms": "ms",
    "serve.serialize_ms": "ms",
    "serve.wire_ms": "ms",
    "serve.tile_rows_mean": "rows",
    "serve.coalesced_share": "share",
    "serve.fused_share": "share",
    "serve.eps_hit_ratio": "share",
    "serve.shm_segments": "count",
    "serve.shed": "count",
    "distrib.ship_ms": "ms",
    "distrib.compute_ms": "ms",
    "distrib.replay_ms": "ms",
    "distrib.run_step_ms": "ms",
    "distrib.wire_kb_per_step": "KiB",
    "distrib.delta_ratio": "ratio",
    "distrib.resyncs": "count",
    "obs.spans_per_request": "count",
    "bench.op_ms_p50": "ms",
    "bench.mc_rows_per_s": "1/s",
    "bench.gen_late_ms_p95": "ms",
    "bench.trace_overhead": "ratio",
    "bench.failed_share": "share",
}


class BenchmarkError(RuntimeError):
    """The run cannot produce a result (a program died or never answered)."""


class Program:
    """A program process speaking the ``TAG {json}`` line protocol on stdout.

    Each program leads its own process group, so ``abort_programs`` can stop
    the whole tree (worker processes included) when the harness is killed.
    """

    #: programs started and not yet stopped
    live: set["Program"] = set()

    def __init__(self, script: str, arguments: list[str]) -> None:
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / script), *arguments],
            cwd=ROOT,
            env=program_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        Program.live.add(self)
        self._lines: queue.Queue = queue.Queue()
        #: everything the process tree wrote to stderr (also passed through)
        self.errors: list[str] = []
        self._readers = [
            threading.Thread(target=self._read, daemon=True),
            threading.Thread(target=self._read_errors, daemon=True),
        ]
        for reader in self._readers:
            reader.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _read_errors(self) -> None:
        for line in self.process.stderr:
            self.errors.append(line)
            sys.stderr.write(line)

    def expect(self, tag: str, timeout: float) -> dict:
        """Wait for the next ``tag`` line; other output is passed to stderr."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise BenchmarkError(f"no {tag} line within {timeout:.0f}s") from None
            if line is None:
                raise BenchmarkError(f"program exited (code {self.process.wait()}) before {tag}")
            if line.split(" ", 1)[0].strip() == tag:
                return parse_line(line)[1]
            sys.stderr.write(line)

    def send(self, command: str) -> None:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()

    def stop(self, timeout: float = 60.0) -> int:
        """Close stdin and wait for exit; kill the process if it hangs."""
        try:
            self.process.stdin.close()
        except OSError:
            pass
        try:
            return self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            return self.process.wait()
        finally:
            Program.live.discard(self)
            for reader in self._readers:
                reader.join(timeout=5.0)


def _signal_group(pgid: int, signum: int) -> bool:
    """Send ``signum`` to a process group; False once the group is gone."""
    try:
        os.killpg(pgid, signum)
    except ProcessLookupError:
        return False
    return True


def _group_members(pgid: int) -> list[int]:
    """Pids of the processes in group ``pgid``, read from ``/proc``."""
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                if os.getpgid(int(entry)) == pgid:
                    members.append(int(entry))
            except OSError:
                pass
    return members


def abort_programs(signum: int, _frame) -> None:
    """Signal handler: stop every live program tree, then exit.

    SIGTERM first, so each tree's resource tracker (which ignores it) sees
    its users die and unlinks their shared memory; SIGKILL whatever is left
    after ``ABORT_GRACE_S``.  Exits with ``128 + signum`` and no result line.
    """
    groups = [program.process.pid for program in Program.live]
    groups = [pgid for pgid in groups if _signal_group(pgid, signal.SIGTERM)]
    deadline = time.monotonic() + ABORT_GRACE_S
    for program in list(Program.live):
        try:
            program.process.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            pass
    # members of a group outlive its leader; zombies among them keep the
    # group id alive, so poll only until the grace period runs out
    while groups and time.monotonic() < deadline:
        groups = [pgid for pgid in groups
                  if any(pid_alive(pid) for pid in _group_members(pgid))]
        time.sleep(0.05)
    for pgid in groups:
        _signal_group(pgid, signal.SIGKILL)
    for program in list(Program.live):
        program.process.wait()
    print(f"error: stopped by signal {signum}", file=sys.stderr)
    sys.stderr.flush()
    os._exit(128 + signum)


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise BenchmarkError("no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# training workloads
# ----------------------------------------------------------------------
def run_training(name: str, seed: int, seconds: float, trace: bool) -> dict:
    arguments = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setup_s: list[float] = []
    for _ in range(SETUP_REPEATS - 1):
        program = Program("train_program.py", arguments + ["--setup-only"])
        try:
            program.expect("READY", SETUP_TIMEOUT_S)
            setup_s.append(time.perf_counter() - program.started)
        finally:
            code = program.stop()
        if code != 0:
            raise BenchmarkError(f"set-up start exited with code {code}")
    program = Program("train_program.py", arguments + ["--trace", str(int(trace))])
    try:
        program.expect("READY", SETUP_TIMEOUT_S)
        setup_s.append(time.perf_counter() - program.started)
        result = program.expect("RESULT", seconds + RESULT_TIMEOUT_S)
    finally:
        code = program.stop()
    if code != 0:
        raise BenchmarkError(f"training program exited with code {code}")

    phases = result["phases"]
    errors = [error for phase in phases.values() for error in phase["errors"]]
    n_steps = sum(len(phase["step_s"]) for phase in phases.values())
    checks = result["checks"]
    attempted = SETUP_REPEATS * PREFIX_STEPS + n_steps + len(errors) + len(checks)
    failed = len(errors) + sum(1 for ok in checks.values() if not ok)
    outcome = {
        "attempted": attempted,
        "failed": failed,
        "detail": {"checks": checks, "errors": errors, "steps": n_steps,
                   "setup_s": setup_s, "programs": result["tree"]},
    }
    window = phases["untraced"]["step_s"]
    if not trace:
        outcome["metrics"] = {
            "setup_s": statistics.median(setup_s),
            "op_ms_p95": _percentile(window, 95) * 1e3,
            "slo_met_share": 1.0 - _ratio(failed, attempted),
            "peak_rss_mb": result["tree"]["peak_rss_mb"],
        }
        return outcome

    traced = phases["traced"]["step_s"]
    n = len(traced)
    spans = result["spans"]
    usage = {key: after - result["usage"]["before"][key]
             for key, after in result["usage"]["after"].items()}
    distrib = {key: after - result["distrib"]["before"][key]
               for key, after in result["distrib"]["after"].items()}

    def per_step_ms(*names: str, kind: str = "self_s") -> float:
        return sum(spans[kind].get(name, 0.0) for name in names) * 1e3 / n

    step_total = spans["inclusive_s"].get("bnn.train_step", 0.0)
    outcome["metrics"] = {
        "core.eps_prefetch_ms": per_step_ms("core.eps_prefetch"),
        "core.eps_sample_ms": per_step_ms("core.eps_sample"),
        "core.eps_retrieve_ms": per_step_ms("core.eps_retrieve"),
        "core.eps_generated_per_step": usage["generated"] / n,
        "core.eps_retrieved_per_step": usage["retrieved"] / n,
        "core.eps_footprint_kb": result["usage"]["after"]["footprint_bytes"] / 1024,
        # writes: the per-iteration peak of stored values; reads: per step
        "core.eps_offchip_mb_per_step": (
            usage["read_bytes"] / n + result["usage"]["after"]["write_bytes"]
        ) / 2**20,
        "nn.gemm_ms": per_step_ms("nn.gemm"),
        "nn.im2col_ms": per_step_ms("nn.im2col"),
        "nn.col2im_ms": per_step_ms("nn.col2im"),
        "nn.conv_fw_ms": per_step_ms("nn.conv_fw"),
        "nn.conv_bw_ms": per_step_ms("nn.conv_bw"),
        "nn.pool_ms": per_step_ms("nn.pool"),
        "nn.act_ms": per_step_ms("nn.act"),
        "nn.loss_ms": per_step_ms("nn.loss"),
        "nn.optim_ms": per_step_ms("nn.optim"),
        "bnn.gc_ms": per_step_ms("bnn.gc"),
        "bnn.glue_ms": per_step_ms("bnn.train_step", "bnn.glue"),
        "bnn.coverage": 1.0 - _ratio(spans["self_s"].get("bnn.train_step", 0.0), step_total),
        "distrib.ship_ms": distrib.get("ship_ms", 0.0) / n,
        "distrib.compute_ms": distrib.get("compute_ms", 0.0) / n,
        "distrib.replay_ms": distrib.get("replay_reduce_ms", 0.0) / n,
        "distrib.run_step_ms": per_step_ms("distrib.run_step", kind="inclusive_s"),
        "distrib.wire_kb_per_step": distrib.get("bytes_shipped", 0) / 1024 / n,
        "distrib.delta_ratio": _ratio(distrib.get("bytes_shipped", 0), distrib.get("bytes_full", 0)),
        "distrib.resyncs": distrib.get("resyncs", 0),
        "bench.op_ms_p50": statistics.median(window) * 1e3,
        "bench.mc_rows_per_s": TRAIN_SAMPLES * TRAIN_BATCH * len(window) / sum(window),
        "bench.trace_overhead": statistics.median(traced) / statistics.median(window),
        "bench.failed_share": _ratio(failed, attempted),
    }
    return outcome


# ----------------------------------------------------------------------
# serving workload
# ----------------------------------------------------------------------
class Gateway:
    """One gateway program start: launch, report, ``close()`` and hygiene."""

    def __init__(self, arguments: list[str]) -> None:
        self.shm_before = shm_segments()
        self.program = Program("gateway_program.py", arguments)
        self.children: list[int] = []

    def report(self) -> dict:
        self.program.send("report")
        report = self.program.expect("REPORT", 30.0)
        self.children = report["tree"]["pids"][1:]
        return report

    def stop(self) -> list[str]:
        """Close the gateway, then list anything that survived it."""
        problems = []
        try:
            self.program.send("stop")
            self.program.expect("CLOSED", 60.0)
        except (BenchmarkError, OSError) as exc:
            problems.append(f"gateway did not close: {exc}")
        code = self.program.stop()
        if code != 0:
            problems.append(f"gateway exited with code {code}")
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(pid_alive(pid) for pid in self.children):
            time.sleep(0.05)
        for pid in self.children:
            if pid_alive(pid):
                problems.append(f"child process {pid} survived the gateway")
                try:
                    os.kill(pid, 9)
                except OSError:
                    pass
        if any("leaked shared_memory" in line for line in self.program.errors):
            problems.append("the resource tracker reclaimed leaked shared-memory segments")
        for segment in sorted(shm_segments() - self.shm_before):
            problems.append(f"shared-memory segment {segment} leaked")
            try:
                os.unlink(f"/dev/shm/{segment}")
            except OSError:
                pass
        return problems


def _open_loop(client, requests, send, connections: int, seconds: float, on_switch) -> list:
    """Send ``requests`` on schedule from ``connections`` threads, one connection each.

    Each thread takes the next request in schedule order, so a request that
    falls due while every connection is busy waits for one; latency is
    measured from the due time.  ``on_switch`` runs at half the schedule
    (the traced run turns tracing on there).  Returns per-request
    ``(due, sent, done, status, body)`` records.
    """
    from repro.serve import GatewayError

    records: list = [None] * len(requests)
    cursor = iter(range(len(requests)))
    lock = threading.Lock()
    origin = time.perf_counter() + 0.05

    def sender() -> None:
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                due = origin + requests[index].due_s
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                try:
                    body, status = send(requests[index]), 200
                except GatewayError as exc:
                    body, status = None, exc.status
                except OSError:
                    body, status = None, -1
                records[index] = (due, sent, time.perf_counter(), status, body)
        finally:
            client.close()

    threads = [threading.Thread(target=sender) for _ in range(connections)]
    for thread in threads:
        thread.start()
    if on_switch is not None:
        time.sleep(max(0.0, origin + seconds / 2 - time.perf_counter()))
        on_switch()
    for thread in threads:
        thread.join(timeout=seconds + len(requests) * REQUEST_TIMEOUT_S)
    if any(thread.is_alive() for thread in threads) or None in records:
        raise BenchmarkError("the load generator did not finish")
    return records


def run_serving(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    from repro.bnn import mc_predict
    from repro.models import get_model
    from repro.serve import GatewayClient, GatewayError

    workload = SERVE_WORKLOADS[name]
    build_seed, hot_seed, requests = serve_schedule(workload, seed, seconds)
    inputs = serve_inputs(workload, seed, n_features=14 * 14)
    warm_key = (0, hot_seed)

    # expected bytes of every scheduled (input, sampling seed), computed
    # before any gateway starts so set-up is timed on a quiet machine
    model = get_model("B-MLP", reduced=True).build_bayesian(seed=build_seed)
    keys = {warm_key} | {(r.input_index, r.seed) for r in requests}
    references = {
        (index, config_seed): mc_predict(
            model, inputs[index], n_samples=workload.n_samples,
            seed=config_seed, grng_stride=workload.grng_stride,
        ).sample_probabilities.tobytes()
        for index, config_seed in sorted(keys)
    }

    def predict(client, key: tuple[int, int]) -> dict:
        return client.predict(
            inputs[key[0]],
            sampling={"n_samples": workload.n_samples, "seed": key[1],
                      "grng_stride": workload.grng_stride},
        )

    def exact(body: dict | None, key: tuple[int, int]) -> bool:
        if body is None:
            return False
        served = np.asarray(body["sample_probabilities"], dtype=np.float64)
        return served.tobytes() == references[key]

    arguments = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    problems: list[str] = []  # shutdown and hygiene failures, one per problem
    warm_errors: list[str] = []
    setup_s: list[float] = []
    warm_failures = 0
    gateway = None
    try:
        for start in range(SETUP_REPEATS):
            gateway = Gateway(arguments)
            url = gateway.program.expect("LISTENING", SETUP_TIMEOUT_S)["url"]
            client = GatewayClient(url, timeout_s=REQUEST_TIMEOUT_S, max_retries=0)
            try:
                body = predict(client, warm_key)
                setup_s.append(time.perf_counter() - gateway.program.started)
            except (GatewayError, OSError) as exc:
                body = None
                warm_errors.append(f"warm-up request failed: {exc}")
            client.close()
            if not exact(body, warm_key):
                warm_failures += 1
            if start < SETUP_REPEATS - 1:
                gateway.report()
                stopping, gateway = gateway, None
                problems += stopping.stop()
        switch = (lambda: gateway.program.send("trace")) if trace else None
        records = _open_loop(
            client,
            requests,
            lambda request: predict(client, (request.input_index, request.seed)),
            workload.connections,
            seconds,
            switch,
        )
        report = gateway.report()
        segments_live = len(shm_segments() - gateway.shm_before)
    finally:
        if gateway is not None:
            problems += gateway.stop()

    # one operation per request, per warm-up request and per gateway shutdown
    ok = [
        status == 200 and exact(body, (request.input_index, request.seed))
        for request, (_, _, _, status, body) in zip(requests, records)
    ]
    attempted = len(requests) + 2 * SETUP_REPEATS
    failed = ok.count(False) + warm_failures + len(problems)
    latency = [done - due for due, _, done, _, _ in records]
    limit_s = workload.latency_limit_ms / 1e3
    met = sum(1 for good, value in zip(ok, latency) if good and value <= limit_s)
    late_ms = [(sent - due) * 1e3 for due, sent, *_ in records]
    outcome = {
        "attempted": attempted,
        "failed": failed,
        "detail": {"problems": problems + warm_errors, "requests": len(requests), "ok": sum(ok),
                   "generator_late_ms_p95": _percentile(late_ms, 95),
                   "setup_s": setup_s, "programs": report["tree"]},
    }
    if not trace:
        outcome["metrics"] = {
            "setup_s": statistics.median(setup_s),
            "op_ms_p95": _percentile(latency, 95) * 1e3,
            "slo_met_share": met / len(requests),
            "peak_rss_mb": report["tree"]["peak_rss_mb"],
        }
        return outcome

    half = seconds / 2
    traced = [i for i, request in enumerate(requests) if request.due_s >= half]
    untraced = [i for i, request in enumerate(requests) if request.due_s < half]
    spans, stats = report["spans"], report["stats"]
    n_traced = max(spans["requests"], 1)
    tiles = stats["tiles_executed"]
    sweeps = spans["calls"].get("core.sweep", 0)

    def stage_ms(stage: str) -> float:
        return spans["stage_s"].get(stage, 0.0) * 1e3 / n_traced

    client_ms = statistics.mean((records[i][2] - records[i][1]) * 1e3 for i in traced)
    untraced_s = records[untraced[-1]][2] - records[0][0]
    outcome["metrics"] = {
        "core.sweep_ms": _ratio(spans["inclusive_s"].get("core.sweep", 0.0) * 1e3, sweeps),
        "serve.admit_ms": stage_ms("admission"),
        "serve.queue_wait_ms": stage_ms("queue_wait"),
        "serve.execute_ms": stage_ms("execute"),
        "serve.serialize_ms": stage_ms("serialization"),
        "serve.wire_ms": client_ms - spans["request_s"] * 1e3 / n_traced,
        "serve.tile_rows_mean": stats["mean_rows_per_tile"] or 0.0,
        "serve.coalesced_share": _ratio(stats["coalescing"].get("multi_source_tiles", 0), tiles),
        "serve.fused_share": _ratio(stats["fusion"].get("fused_tiles", 0), tiles),
        "serve.eps_hit_ratio": 1.0 - _ratio(sweeps, spans["requests"]),
        "serve.shm_segments": segments_live,
        "serve.shed": sum(1 for record in records if record[3] == 429),
        "obs.spans_per_request": spans["request_spans"] / n_traced,
        "bench.op_ms_p50": _percentile([latency[i] for i in untraced], 50) * 1e3,
        "bench.mc_rows_per_s": workload.n_samples * workload.rows
        * sum(ok[i] for i in untraced) / untraced_s,
        "bench.gen_late_ms_p95": _percentile(late_ms, 95),
        "bench.trace_overhead": _ratio(
            _percentile([latency[i] for i in traced], 50),
            _percentile([latency[i] for i in untraced], 50),
        ),
        "bench.failed_share": _ratio(failed, attempted),
    }
    return outcome


# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns ``(result line, stamp line)``."""
    ticks_before = cpu_ticks()
    if name in TRAIN_WORKLOADS:
        outcome = run_training(name, seed, seconds, trace)
    else:
        outcome = run_serving(name, seed, seconds, trace)
    ticks_after = cpu_ticks()
    units = PER_LAYER if trace else END_TO_END
    metrics = {key: 0.0 for key in units}  # layers a workload never enters
    metrics.update(outcome["metrics"])
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {key: {"value": float(metrics[key]), "unit": units[key]} for key in units},
    }
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    stamp = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment_stamp(),
        "host_noise": {
            "cpu_steal_share": _ratio(
                ticks_after["steal"] - ticks_before["steal"],
                ticks_after["total"] - ticks_before["total"],
            ),
            "involuntary_ctx_switches": sum(u.ru_nivcsw for u in usage),
        },
        "detail": outcome["detail"],
    }
    return result, stamp


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no library source under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, abort_programs)
    if not args.all:
        if args.workload is None:
            parser.error("give --workload NAME or --all")
        try:
            result, stamp = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        except BenchmarkError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(stamp))
        print(json.dumps(result))
        return 0
    status = 0
    for name in WORKLOADS:
        try:
            result, _ = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchmarkError as exc:
            print(f"{name}: error: {exc}")
            status = 1
            continue
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for key, metric in result["metrics"].items():
            print(f"  {key:32s} {metric['value']:14.4f} {metric['unit']}")
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
