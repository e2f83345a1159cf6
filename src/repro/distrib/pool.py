"""One worker-process pool for the serving and training planes.

:class:`repro.serve.worker.WorkerPool` (inference tiles) and
:class:`repro.distrib.coordinator.DistributedBackend` (training tasks) both
run on :class:`ProcessPool`, the only code that creates worker processes:
start method, spawn with a per-worker FIFO task queue, the ``ready`` /
``fatal`` handshake under one deadline, placement candidates, retiring dead
workers and respawning within a :class:`RespawnBudget`, and shutdown.
Callers keep their message shapes, placement policy and what to do with
orphaned work.  The pool is not thread-safe; the serving pool drives it
under its own lock.

A worker runs ``target(rank, *spawn_args(), task_queue, result_queue)``: it
puts ``("ready", rank, payload)`` (or ``("fatal", rank, traceback)``) on the
result queue, then serves tasks until it reads ``None``.  Each worker's
results travel over a pipe of its own, which the parent reads as one queue
(:class:`_Results`): a shared ``multiprocessing.Queue`` guards its writers
with one cross-process lock, and a worker killed just after a write, before
its feeder thread released that lock, would block every other worker's
results for good.

Thread budget: on a host with ``C`` usable CPUs, ``N`` workers each running
OpenBLAS's default thread count spin ``N`` times more BLAS threads than
there are cores.  The pool therefore owns a CPU budget.  Every worker sets
its BLAS thread count to :func:`repro.core.blas.worker_budget` of the pool's
strength, in the child, before ``target`` builds anything; when a resize
changes the budget, :meth:`ProcessPool.rebalance` queues the new count to
every live worker, which applies it before its next task.  The parent's own
BLAS is never touched.

Recovery is bounded twice: ``max_respawns`` replacements per pool lifetime
(a model that kills every process it touches must fail loudly) and
``max_task_retries`` re-queues per work item.  Retrying is safe because
both workloads are deterministic in their payload -- a tile's epsilons
derive from the request's seed, a training shard's from the canonical
generator states shipped with the step, never from worker state.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from queue import Empty
from typing import Callable

from ..core import blas

__all__ = ["RespawnPolicy", "RespawnBudget", "ProcessPool", "PoolWorker", "send"]


@dataclass(frozen=True)
class RespawnPolicy:
    """Bounds on crash recovery: replacement processes per pool lifetime,
    and re-queues per work item before its callers see the failure."""

    max_respawns: int = 1
    max_task_retries: int = 1

    def __post_init__(self) -> None:
        if self.max_respawns < 0 or self.max_task_retries < 0:
            raise ValueError("respawn bounds must be non-negative")


class RespawnBudget:
    """Mutable consumption of a :class:`RespawnPolicy` by one pool instance."""

    def __init__(self, policy: RespawnPolicy) -> None:
        self.policy = policy
        self.respawns_used = 0
        self._task_retries: dict[object, int] = {}

    def try_respawn(self) -> bool:
        """Consume one respawn if any remain; ``True`` when granted."""
        if self.respawns_used >= self.policy.max_respawns:
            return False
        self.respawns_used += 1
        return True

    def try_retry(self, task_key: object) -> bool:
        """Consume one retry for ``task_key`` if any remain; ``True`` when granted."""
        used = self._task_retries.get(task_key, 0)
        if used >= self.policy.max_task_retries:
            return False
        self._task_retries[task_key] = used + 1
        return True

    def forget(self, task_key: object) -> None:
        """Drop the retry history of a completed work item."""
        self._task_retries.pop(task_key, None)


@dataclass
class PoolWorker:
    rank: int
    process: multiprocessing.process.BaseProcess
    task_queue: object
    ready: bool = False
    # work key -> caller item, so a dead worker's work can be handed back
    outstanding: dict = field(default_factory=dict)
    # BLAS threads the worker runs its next task with (None: no control)
    blas_threads: int | None = None


@dataclass(frozen=True)
class _ThreadBudget:
    """Task-queue control message: run the BLAS with ``threads`` threads."""

    threads: int


class _BudgetedTasks:
    """A worker's view of its task queue that applies thread-budget updates.

    Budget messages share the FIFO with the caller's tasks, so an update
    queued at a step boundary takes effect before every task queued after it.
    """

    def __init__(self, task_queue) -> None:
        self._task_queue = task_queue

    def get(self):
        while True:
            message = self._task_queue.get()
            if not isinstance(message, _ThreadBudget):
                return message
            blas.set_num_threads(message.threads)


class _ResultWriter:
    """A worker's end of its result pipe, with the queue's ``put``."""

    def __init__(self, conn) -> None:
        self._conn = conn

    def put(self, message) -> None:
        self._conn.send(message)


class _Results:
    """The parent's ends of every worker's result pipe, read as one queue.

    One reader at a time (the pool's caller is single-threaded or holds its
    own collector thread); a pipe whose worker is gone is dropped at EOF.
    """

    def __init__(self) -> None:
        self._conns: list = []
        self._pending: deque = deque()

    def add(self, conn) -> None:
        self._conns.append(conn)

    def get(self, timeout: float | None = None):
        """The next message from any worker; ``Empty`` after ``timeout``."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._pending:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise Empty
            for conn in wait(self._conns, remaining):
                try:
                    self._pending.append(conn.recv())
                except (EOFError, OSError):
                    self._conns.remove(conn)
                    conn.close()
        return self._pending.popleft()


def _worker_entry(
    target: Callable, blas_threads: int | None, rank: int, *args
) -> None:
    """Child-process body: apply the thread budget, then run ``target``."""
    if blas_threads is not None:
        blas.set_num_threads(blas_threads)
    *spawn_args, task_queue, result_conn = args
    target(
        rank, *spawn_args, _BudgetedTasks(task_queue), _ResultWriter(result_conn)
    )


class ProcessPool:
    """Spawn, watch, replace and stop worker processes.

    ``n_workers`` is the strength :meth:`reap` respawns up to (an elastic
    caller raises it through :meth:`grow` or lowers it after a
    :meth:`retire`, then calls :meth:`rebalance`); it also sizes every
    worker's BLAS thread budget.  ``error`` is what a failed startup raises.
    ``on_spawn`` / ``on_retire`` see every worker entering / leaving.
    """

    def __init__(
        self,
        target: Callable,
        n_workers: int,
        respawn: RespawnPolicy,
        spawn_args: Callable[[], tuple],
        on_spawn: Callable[[PoolWorker], None] | None = None,
        on_retire: Callable[[PoolWorker], None] | None = None,
        error: type[Exception] = RuntimeError,
    ) -> None:
        # fork is substantially cheaper where available; both callers start
        # their initial workers before any service thread exists, which
        # keeps the classic fork-with-threads hazards out of the picture
        available = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in available else available[0]
        )
        self._target = target
        self._spawn_args = spawn_args
        self._on_spawn = on_spawn
        self._on_retire = on_retire
        self._error = error
        self.n_workers = n_workers
        self.budget = RespawnBudget(respawn)
        self.workers: list[PoolWorker] = []
        self.retired: list[PoolWorker] = []
        self.result_queue: _Results | None = None
        self._next_rank = 0
        self._started = False
        self.stopped = False
        #: BLAS threads of the workers started or rebalanced last (None: the
        #: host's BLAS offers no thread control)
        self.blas_threads: int | None = None
        blas.num_threads()  # resolves the BLAS entry points once, before any fork

    @property
    def alive_workers(self) -> int:
        return len(self.live())

    @property
    def processes(self) -> list[multiprocessing.process.BaseProcess]:
        return [worker.process for worker in self.workers]

    @property
    def respawns_used(self) -> int:
        return self.budget.respawns_used

    def start(
        self,
        timeout: float,
        on_ready: Callable[[int, object], None] | None = None,
    ) -> None:
        """Spawn the workers and wait, ``timeout`` in all, until each is ready.

        A ``fatal`` report or the deadline aborts every child and raises
        ``error`` with the worker's traceback.
        """
        if self._started:
            raise RuntimeError("worker pool already started")
        self._started = True
        self.result_queue = _Results()
        for _ in range(self.n_workers):
            self.spawn()
        deadline = time.monotonic() + timeout
        ready = 0
        while ready < self.n_workers:
            try:
                kind, rank, payload = self.result_queue.get(
                    timeout=max(0.01, deadline - time.monotonic())
                )
            except Empty as exc:
                self.stop(abort=True)
                raise self._error(
                    f"only {ready}/{self.n_workers} workers became ready"
                ) from exc
            if kind == "fatal":
                self.stop(abort=True)
                raise self._error(f"worker failed to build its replica:\n{payload}")
            if kind == "ready":
                self.mark_ready(rank)
                if on_ready is not None:
                    on_ready(rank, payload)
                ready += 1

    def spawn(self) -> PoolWorker:
        """Start one more worker (it reports ``ready`` once built)."""
        rank = self._next_rank
        self._next_rank += 1
        task_queue = self._ctx.Queue()
        results, result_conn = self._ctx.Pipe(duplex=False)
        self.blas_threads = blas.worker_budget(self.n_workers)
        process = self._ctx.Process(
            target=_worker_entry,
            args=(
                self._target,
                self.blas_threads,
                rank,
                *self._spawn_args(),
                task_queue,
                result_conn,
            ),
            daemon=True,
        )
        process.start()
        # the worker holds the only write end: its exit is the pipe's EOF
        result_conn.close()
        self.result_queue.add(results)
        worker = PoolWorker(
            rank=rank,
            process=process,
            task_queue=task_queue,
            blas_threads=self.blas_threads,
        )
        if self._on_spawn is not None:
            self._on_spawn(worker)
        self.workers.append(worker)
        return worker

    def retire(self, worker: PoolWorker, shutdown: bool = False) -> None:
        """Take ``worker`` out of placement; ``shutdown`` also asks it to exit."""
        self.workers.remove(worker)
        self.retired.append(worker)
        if shutdown:
            send(worker, None)
        if self._on_retire is not None:
            self._on_retire(worker)

    def grow(self, n: int) -> None:
        """Add ``n`` workers, started under the grown strength's budget."""
        self.n_workers += n
        for _ in range(n):
            self.spawn()

    def rebalance(self) -> None:
        """Apply the thread budget of the current strength to live workers.

        A worker whose count differs gets the new one queued ahead of its
        next task (FIFO); the others are left alone.
        """
        self.blas_threads = blas.worker_budget(self.n_workers)
        for worker in self.live():
            if worker.blas_threads != self.blas_threads:
                send(worker, _ThreadBudget(self.blas_threads))
                worker.blas_threads = self.blas_threads

    def mark_ready(self, rank: int) -> None:
        for worker in self.workers:
            if worker.rank == rank:
                worker.ready = True

    def live(self) -> list[PoolWorker]:
        return [worker for worker in self.workers if worker.process.is_alive()]

    def candidates(self) -> list[PoolWorker]:
        """Live workers to place work on, preferring built ones (a fresh
        replacement is alive but still building; its queue drains later)."""
        alive = self.live()
        return [worker for worker in alive if worker.ready] or alive

    def assign(self, worker: PoolWorker, key: object, item: object) -> None:
        """Record ``key`` as ``worker``'s outstanding work (moved from any
        previous owner); ``item`` comes back from :meth:`reap` if it dies."""
        for other in self.workers:
            other.outstanding.pop(key, None)
        worker.outstanding[key] = item

    def release(self, key: object) -> None:
        """``key`` is finished or abandoned: drop it and its retry history."""
        for worker in self.workers + self.retired:
            worker.outstanding.pop(key, None)
        self.budget.forget(key)

    def needs_reap(self) -> bool:
        """A dead worker holds work, or could be replaced within the budget."""
        dead = [w for w in self.workers if not w.process.is_alive()]
        return bool(dead) and (
            any(worker.outstanding for worker in dead)
            or self.budget.respawns_used < self.budget.policy.max_respawns
        )

    def reap(self) -> list[tuple[object, object]]:
        """Retire dead workers, respawn to strength within the budget (not
        once stopped) and return their orphaned ``(key, item)`` work."""
        orphaned: list[tuple[object, object]] = []
        for worker in [w for w in self.workers if not w.process.is_alive()]:
            orphaned.extend(worker.outstanding.items())
            worker.outstanding.clear()
            self.retire(worker)
        while (
            not self.stopped
            and len(self.workers) < self.n_workers
            and self.budget.try_respawn()
        ):
            self.spawn()
        return orphaned

    def stop(self, abort: bool = False, timeout: float = 10.0) -> None:
        """Sentinel (draining) or terminate every live worker, then join,
        killing stragglers.  A second call is a no-op."""
        if self.stopped:
            return
        self.stopped = True
        workers = self.workers + self.retired
        for worker in workers:
            if not worker.process.is_alive():
                continue
            if abort:
                worker.process.terminate()
            else:
                send(worker, None)
        for worker in workers:
            worker.process.join(timeout=timeout)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.kill()
                worker.process.join(timeout=timeout)


def send(worker: PoolWorker, message: object) -> None:
    """Queue ``message`` for ``worker``; a torn-down queue drops it."""
    try:
        worker.task_queue.put(message)
    except Exception:  # pragma: no cover - queue already broken
        pass
