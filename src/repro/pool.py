"""One supervised worker-subprocess pool for sweeps and serving.

The sweep runner (:mod:`repro.eval.supervisor`) and the service
(:mod:`repro.serve.pool`) both run work on long-lived worker
subprocesses, each owning a private duplex pipe, dispatched
futures-over-pipes and supervised from one background thread.  An
adapter only picks the worker-side ``handler`` (``request -> ("ok",
result) | ("error", payload)``), whether timeouts are retried, and how
failures surface (it overrides :meth:`SupervisedPool.failure`).

The supervisor detects a dead worker by pipe EOF and retries its task
with capped exponential backoff up to ``retries`` extra attempts; kills
a worker whose task passed ``timeout_s`` (the task is retried when
``retry_timeouts``, else failed ``timeout``); respawns the pool back to
size, backing off on consecutive spawn failures so fd or process
exhaustion cannot fork-bomb the host; quarantines a ``poison_key`` whose
tasks killed ``poison_threshold`` workers; and applies an optional
:class:`repro.chaos.ChaosConfig` fault plan in the workers.  ``submit``,
``cancel`` and ``stop`` write to a wake socket in the supervisor's wait
set, and the wait also ends at the next deadline or due retry, so no
event waits out the scheduling tick.  ``stop`` sends idle workers a
sentinel (their exit hooks run), kills busy ones, and resolves every
outstanding future ``stopped``.

Thread discipline: caller-side methods only flip state under
``self._lock``; *all* process lifecycle — spawn, kill, pipe close —
happens in the supervisor thread, so no pipe fd is ever closed while
another thread selects on it.  The ``repro.analysis`` locks
(VIA301-VIA303) and lifecycle (VIA501-VIA504) families scan this module.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import socket
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.chaos import CHAOS_CRASH_EXIT, ChaosConfig, apply_start_fault
from repro.metrics import MetricsRegistry

#: supervisor scheduling quantum (seconds): the longest the loop waits
#: before re-checking the spawn watchdog; every other event ends the
#: wait by itself
_TICK = 0.05

#: retry backoff is capped so a long chain cannot stall the pool
_BACKOFF_CAP = 30.0

#: consecutive-spawn-failure backoff cap (crash-loop protection)
_SPAWN_BACKOFF_CAP = 5.0

#: worker bootstrap budget (warm imports + ready handshake), seconds
SPAWN_TIMEOUT_S = 60.0

#: worker-side task runner: ``request -> ("ok", result) | ("error", payload)``
Handler = Callable[[Any], Tuple[str, Any]]


def start_context() -> Any:
    """The worker start method: fork where available, else spawn."""
    return mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")


class PoolError(Exception):
    """Why a task did not complete: ``code`` is ``worker_crash``,
    ``poison_job``, ``timeout``, ``stopped``, ``cancelled``, or ``error``
    (an in-worker failure described by the handler's ``payload``)."""

    def __init__(self, message: str, *, code: str, payload: Any = None) -> None:
        super().__init__(message)
        self.code = code
        self.payload = payload


@dataclass(eq=False)
class PoolTask:
    """One task's dispatch state, carried across retries.

    ``future`` resolves exactly once with the handler's result or with
    :meth:`SupervisedPool.failure`; ``worker`` is the pid that ran the
    latest attempt.
    """

    request: Any
    future: "Future[Any]"
    timeout_s: Optional[float] = None
    poison_key: Optional[str] = None
    attempt: int = 1
    ready_at: float = 0.0
    started_at: float = 0.0
    worker: int = 0
    cancelled: bool = False
    history: List[str] = field(default_factory=list)


def _worker_main(
    conn: Any,
    handler: Handler,
    warm: Optional[Callable[[], None]],
    chaos: Optional[ChaosConfig],
) -> None:
    """Worker process: bootstrap, ready handshake, one task at a time.

    SIGINT is ignored so a terminal Ctrl-C (delivered to the process
    group) cannot kill workers behind the supervisor's back — shutdown is
    always the supervisor's decision (sentinel, EOF, or SIGKILL).
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover
        pass
    if warm is not None:
        warm()
    apply_start_fault(chaos)
    try:
        conn.send(("ready", os.getpid()))
    except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
        return
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            return
        if request is None:
            conn.close()
            return
        fault = None
        if chaos is not None:
            rule = chaos.job_fault(str(request.get("spec", {}).get("kind", "")))
            fault = rule.fault if rule is not None else None
            if fault == "crash":
                os._exit(CHAOS_CRASH_EXIT)
            if fault == "hang":
                time.sleep(rule.delay_s)
        reply = "chaos-corrupt-reply" if fault == "corrupt" else handler(request)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):  # supervisor went away
            return


class _WorkerHandle:
    """Supervisor-side view of one worker subprocess: constructing one
    spawns the worker, :meth:`kill`/:meth:`stop` reap it."""

    def __init__(self, ctx: Any, slot: int, args: Tuple[Any, ...]) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        try:
            self.proc = ctx.Process(
                target=_worker_main, args=(child_conn, *args), daemon=True
            )
            self.proc.start()
        except BaseException:
            # a failed spawn must not strand the pipe fds — under fd
            # exhaustion the leak would make every later spawn fail too
            parent_conn.close()
            child_conn.close()
            raise
        # close our copy of the child end or EOF detection never fires
        child_conn.close()
        self.conn = parent_conn
        self.slot = slot
        self.spawned_at = time.monotonic()
        self.ready = False
        self.task: Optional[PoolTask] = None
        self.deadline: Optional[float] = None
        self.jobs_done = 0

    def kill(self) -> None:
        try:
            self.proc.kill()
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass
        self.proc.join(timeout=2.0)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass

    def stop(self, gently: bool) -> None:
        """Reap the worker; ``gently`` first sends the exit sentinel so an
        idle worker leaves through its normal exit path."""
        if gently:
            try:
                self.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            self.proc.join(timeout=2.0)
        self.kill()  # no signal is sent to a worker that already exited


class SupervisedPool:
    """Lifecycle: :meth:`start` → :meth:`submit`/:meth:`cancel` → :meth:`stop`.

    Pool instruments (``pool_*``) register on ``metrics``, or on a
    private :class:`~repro.metrics.MetricsRegistry` when none is given.
    """

    def __init__(
        self,
        handler: Handler,
        *,
        workers: int,
        retries: int,
        backoff_s: float,
        retry_timeouts: bool,
        poison_threshold: int = 3,
        chaos: Optional[ChaosConfig] = None,
        warm: Optional[Callable[[], None]] = None,
        metrics: Optional[MetricsRegistry] = None,
        thread_name: str = "repro-pool",
    ):
        self.workers = workers
        self.retries = retries
        self.backoff_s = backoff_s
        self.retry_timeouts = retry_timeouts
        self.poison_threshold = poison_threshold
        self.thread_name = thread_name
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._ctx = start_context()
        self._chaos_tmp: Optional[tempfile.TemporaryDirectory] = None
        if chaos is not None and chaos.state_dir is None:
            # the token directory must be shared by every worker process
            self._chaos_tmp = tempfile.TemporaryDirectory(prefix="repro-pool-chaos-")
            chaos = chaos.with_state_dir(self._chaos_tmp.name)
        self._worker_args = (handler, warm, chaos)
        #: guards every piece of supervisor state shared between callers
        #: (submit/cancel/stop/health) and the supervisor thread;
        #: re-entrant so helpers compose without hand-off rules
        self._lock = threading.RLock()
        self._workers: Dict[int, Optional[_WorkerHandle]] = {}
        self._respawn_at: Dict[int, float] = {}
        self._spawn_failures = 0
        self._queue: Deque[PoolTask] = deque()
        self._waiting: List[PoolTask] = []
        self._crash_counts: Dict[str, int] = {}
        self._quarantined: Dict[str, int] = {}
        self._wake_r: Optional[socket.socket] = None
        self._wake_w: Optional[socket.socket] = None
        self._started = False
        self._stopped = False
        self._thread: Optional[threading.Thread] = None
        m = self.metrics
        self._m_restarts = m.counter(
            "pool_worker_restarts",
            "pool workers respawned after death, kill, or spawn failure",
        )
        self._m_timeout_kills = m.counter(
            "pool_timeout_kills", "workers SIGKILLed on per-job timeout"
        )
        self._m_retries = m.counter(
            "pool_retries", "job attempts re-queued after worker death"
        )
        self._m_corrupt = m.counter(
            "pool_corrupt_replies", "protocol-violating worker replies (worker replaced)"
        )
        self._m_poison = m.counter(
            "pool_poison_jobs", "jobs refused by the poison circuit breaker"
        )
        self._m_alive = m.gauge("pool_workers_alive", "workers past the ready handshake")
        self._m_respawn = m.histogram("pool_respawn_seconds", "worker spawn-to-ready latency")
        self._g_inflight = [
            m.gauge(f"pool_worker_{slot}_inflight", f"jobs in flight on pool worker slot {slot}")
            for slot in range(workers)
        ]

    # ------------------------------------------------------------------
    # caller-side API

    def start(self) -> None:
        """Spawn the workers and the supervisor thread (idempotent)."""
        with self._lock:
            if self._started:
                return
            self._started = True
            self._wake_r, self._wake_w = socket.socketpair()
            self._wake_w.setblocking(False)  # a full buffer means "awake"
            try:
                for slot in range(self.workers):
                    self._spawn(slot)
            except BaseException:
                # a failure on the Nth spawn must not strand the N-1 live
                # workers (or the wake socket)
                self._stopped = True
                self._teardown()
                raise
            self._thread = threading.Thread(
                target=self._supervise, name=self.thread_name, daemon=True
            )
            self._thread.start()

    def stop(self, timeout_s: float = 10.0) -> None:
        """Resolve every outstanding future and reap every worker.  Safe to
        call twice; blocks until the supervisor thread has torn everything
        down (bounded by ``timeout_s``)."""
        with self._lock:
            self._stopped = True
            self._wake()
            thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout_s)
        with self._lock:
            self._teardown()  # no-op unless never started or the join timed out
            if self._chaos_tmp is not None:
                self._chaos_tmp.cleanup()
                self._chaos_tmp = None

    def submit(
        self, request: Any, *, timeout_s: Optional[float] = None, poison_key: Optional[str] = None
    ) -> PoolTask:
        """Queue one task; returns its :class:`PoolTask` immediately.

        The future may already be resolved on return: a stopped pool fails
        it ``stopped``, a quarantined key ``poison_job`` (the circuit
        breaker rejecting without dispatch).
        """
        task = PoolTask(request, Future(), timeout_s=timeout_s, poison_key=poison_key)
        with self._lock:
            if self._stopped or not self._started:
                self._fail(task, "stopped", "worker pool is not accepting jobs")
            elif poison_key is not None and poison_key in self._quarantined:
                self._m_poison.inc()
                self._fail(
                    task,
                    "poison_job",
                    f"job key {poison_key} is quarantined after "
                    f"{self._quarantined[poison_key]} worker crash(es)",
                )
            else:
                self._queue.append(task)
                self._wake()
        return task

    def cancel(self, task: PoolTask) -> bool:
        """Cancel a task: a queued one resolves immediately; a running
        one's worker is killed as soon as the supervisor wakes.  ``False``
        when the task already reached a terminal state."""
        with self._lock:
            if task.future.done():
                return False
            if task in self._queue:
                self._queue.remove(task)
            elif task in self._waiting:
                self._waiting.remove(task)
            task.cancelled = True
            self._fail(task, "cancelled", "job cancelled while in the worker pool")
            self._wake()
            return True

    def health(self) -> Dict[str, Any]:
        """Point-in-time worker table + supervisor state snapshot."""
        with self._lock:
            workers: List[Dict[str, Any]] = []
            for slot, worker in sorted(self._workers.items()):
                if worker is None:
                    workers.append({"slot": slot, "state": "respawning"})
                    continue
                state = "busy" if worker.task is not None else "idle"
                workers.append({
                    "slot": slot,
                    "pid": worker.proc.pid,
                    "state": state if worker.ready else "spawning",
                    "jobs_done": worker.jobs_done,
                })
            return {
                "workers": workers,
                "queued": len(self._queue),
                "retry_waiting": len(self._waiting),
                "restarts": int(self._m_restarts.value),
                "quarantined_keys": sorted(self._quarantined),
            }

    def failure(self, code: str, message: str, payload: Any = None) -> BaseException:
        """The exception a failed task's future carries (see :class:`PoolError`)."""
        return PoolError(message, code=code, payload=payload)

    def _fail(self, task: PoolTask, code: str, message: str, payload: Any = None) -> None:
        task.future.set_exception(self.failure(code, message, payload))

    def _wake(self) -> None:
        """Make the supervisor's wait return now."""
        with self._lock:
            if self._wake_w is None:
                return
            try:
                self._wake_w.send(b"\0")
            except OSError:  # buffer full: a wake-up is already pending
                pass

    # ------------------------------------------------------------------
    # supervisor thread

    def _supervise(self) -> None:
        while not self._stop_requested():
            self._housekeep()
            self._assign()
            conns, timeout = self._wait_plan()
            try:
                readable = mp_connection.wait(conns, timeout=timeout)
            except OSError:  # pragma: no cover - fd raced a respawn
                readable = []
            for conn in readable:
                self._on_readable(conn)
            self._enforce_deadlines()
        self._teardown()

    def _stop_requested(self) -> bool:
        with self._lock:
            return self._stopped

    def _wait_plan(self) -> Tuple[List[Any], float]:
        """What to wait on, and for how long: until the nearest deadline,
        due retry or respawn, and never longer than one tick."""
        with self._lock:
            conns: List[Any] = [self._wake_r] if self._wake_r is not None else []
            due = [t.ready_at for t in self._waiting] + list(self._respawn_at.values())
            for worker in self._workers.values():
                if worker is not None:
                    conns.append(worker.conn)
                    if worker.deadline is not None:
                        due.append(worker.deadline)
            timeout = min([_TICK] + [max(t - time.monotonic(), 0.0) for t in due])
            return conns, timeout

    def _spawn(self, slot: int) -> None:
        """Start a fresh worker in ``slot`` (or schedule a retry)."""
        with self._lock:
            try:
                self._workers[slot] = _WorkerHandle(self._ctx, slot, self._worker_args)
            except OSError:
                # fd/process exhaustion: back off before retrying so a
                # broken environment cannot crash-loop; anything else
                # (pickling errors, interpreter shutdown) propagates
                self._spawn_failures += 1
                backoff = 0.1 * (2 ** (self._spawn_failures - 1))
                self._workers[slot] = None
                self._respawn_at[slot] = time.monotonic() + min(backoff, _SPAWN_BACKOFF_CAP)
                return
            self._respawn_at.pop(slot, None)

    def _housekeep(self) -> None:
        """Respawn empty slots whose backoff expired, reclaim wedged
        spawns and cancelled tasks' workers, re-queue due retries."""
        with self._lock:
            now = time.monotonic()
            for slot, due in list(self._respawn_at.items()):
                if self._workers.get(slot) is None and now >= due:
                    self._spawn(slot)
            for worker in list(self._workers.values()):
                if worker is None:
                    continue
                if not worker.ready and now - worker.spawned_at > SPAWN_TIMEOUT_S:
                    # bootstrap wedged (import deadlock, chaos slow_start
                    # past the budget): reclaim the slot
                    self._replace(worker)
                elif worker.task is not None and worker.task.cancelled:
                    self._replace(worker)
            self._queue.extend(t for t in self._waiting if t.ready_at <= now)
            self._waiting = [t for t in self._waiting if t.ready_at > now]

    def _assign(self) -> None:
        with self._lock:
            for worker in list(self._workers.values()):
                if worker is None or not worker.ready or worker.task is not None:
                    continue
                while self._queue and self._queue[0].future.done():
                    self._queue.popleft()  # cancelled or stopped while queued
                if not self._queue:
                    return
                task = self._queue.popleft()
                task.started_at = time.monotonic()
                task.worker = worker.proc.pid or 0
                try:
                    worker.conn.send(task.request)
                except (BrokenPipeError, OSError):
                    # the idle worker died between tasks; requeue + replace
                    self._queue.appendleft(task)
                    self._replace(worker)
                    continue
                worker.task = task
                if task.timeout_s is not None:
                    worker.deadline = task.started_at + task.timeout_s
                self._g_inflight[worker.slot].set(1)

    def _on_readable(self, conn: Any) -> None:
        with self._lock:
            if conn is self._wake_r:
                try:
                    conn.recv(4096)  # drain; the loop re-plans anyway
                except OSError:  # pragma: no cover - closed by a racing stop
                    pass
                return
            worker = next(
                (w for w in self._workers.values() if w is not None and w.conn is conn),
                None,
            )
            if worker is None:  # pragma: no cover - slot already respawned
                return
            try:
                msg = worker.conn.recv()
            except (EOFError, OSError):
                self._on_death(worker)
                return
            shaped = isinstance(msg, tuple) and len(msg) == 2
            if not worker.ready:
                if shaped and msg[0] == "ready":
                    worker.ready = True
                    self._spawn_failures = 0
                    self._m_alive.add(1)
                    self._m_respawn.observe(time.monotonic() - worker.spawned_at)
                else:  # pragma: no cover - garbled handshake
                    self._replace(worker)
                return
            task = worker.task
            if not (shaped and msg[0] in ("ok", "error")):
                # corrupted reply: the worker cannot be trusted any more —
                # replace it and retry the task as a transient failure
                self._m_corrupt.inc()
                self._replace(worker)
                if task is not None and not task.cancelled:
                    self._retry_or_fail(
                        task,
                        f"attempt {task.attempt}: worker returned a corrupted reply",
                        code="worker_crash",
                    )
                return
            worker.task = None
            worker.deadline = None
            worker.jobs_done += 1
            self._g_inflight[worker.slot].set(0)
            if task is None or task.future.done():
                # cancelled while the result was in the pipe: the future
                # is already resolved; the late result is discarded
                return
            status, payload = msg
            if status == "ok":
                if task.poison_key is not None:
                    # an eventual success is not poison: forgive history
                    self._crash_counts.pop(task.poison_key, None)
                task.future.set_result(payload)
            else:
                # deterministic in-worker failure: no retry
                self._fail(task, "error", "job failed in worker", payload)

    def _on_death(self, worker: _WorkerHandle) -> None:
        """A worker's pipe hit EOF — it exited or was killed externally."""
        with self._lock:
            task = worker.task
            pid = worker.proc.pid
            self._replace(worker)
            if task is None or task.future.done():
                return
            reason = (
                f"attempt {task.attempt}: worker {pid} died mid-task "
                f"(exitcode {worker.proc.exitcode})"
            )
            key = task.poison_key
            if key is not None:
                crashes = self._crash_counts.get(key, 0) + 1
                self._crash_counts[key] = crashes
                if crashes >= self.poison_threshold:
                    # circuit breaker: this key reliably kills workers
                    self._quarantined[key] = crashes
                    self._m_poison.inc()
                    task.history.append(reason)
                    self._fail(
                        task,
                        "poison_job",
                        f"job quarantined after {crashes} worker crash(es): "
                        f"{'; '.join(task.history)}",
                    )
                    return
            self._retry_or_fail(task, reason, code="worker_crash")

    def _enforce_deadlines(self) -> None:
        with self._lock:
            now = time.monotonic()
            for worker in list(self._workers.values()):
                if worker is None or worker.task is None or worker.deadline is None:
                    continue
                if now < worker.deadline or worker.conn.poll():
                    continue  # in time, or the result raced the deadline
                task = worker.task
                pid = worker.proc.pid
                self._m_timeout_kills.inc()
                self._replace(worker)
                if task.future.done():
                    continue
                if self.retry_timeouts:
                    self._retry_or_fail(
                        task,
                        f"attempt {task.attempt}: timed out after "
                        f"{task.timeout_s:.4g}s wall-clock (worker {pid} killed)",
                        code="timeout",
                    )
                else:
                    self._fail(
                        task,
                        "timeout",
                        f"job exceeded its {task.timeout_s:.4g}s execution "
                        f"timeout (worker {pid} killed)",
                    )

    def _retry_or_fail(self, task: PoolTask, reason: str, *, code: str) -> None:
        """Retry a transiently-failed task, or fail it ``code`` for good."""
        with self._lock:
            task.history.append(reason)
            if task.attempt <= self.retries:
                backoff = self.backoff_s * (2 ** (task.attempt - 1))
                task.attempt += 1
                task.ready_at = time.monotonic() + min(backoff, _BACKOFF_CAP)
                self._waiting.append(task)
                self._m_retries.inc()
                return
            what = "timed out" if code == "timeout" else "lost its worker"
            self._fail(
                task,
                code,
                f"job {what} on all {task.attempt} attempt(s): {'; '.join(task.history)}",
            )

    def _replace(self, worker: _WorkerHandle) -> None:
        """Kill + reap ``worker`` and spawn a successor in its slot."""
        with self._lock:
            if worker.ready:
                self._m_alive.add(-1)
            worker.task = None
            worker.deadline = None
            self._g_inflight[worker.slot].set(0)
            self._m_restarts.inc()
            worker.kill()
            self._spawn(worker.slot)

    def _teardown(self) -> None:
        """Resolve every outstanding future, reap every worker, close the
        wake socket.  Idempotent."""
        with self._lock:
            running = [w.task for w in self._workers.values() if w is not None]
            for task in list(self._queue) + self._waiting + running:
                if task is not None and not task.future.done():
                    self._fail(task, "stopped", "worker pool stopped")
            self._queue.clear()
            self._waiting.clear()
            for worker in self._workers.values():
                if worker is not None:
                    # busy or mid-bootstrap: no point being gentle
                    worker.stop(gently=worker.ready and worker.task is None)
            self._workers.clear()
            self._respawn_at.clear()
            self._m_alive.set(0)
            for gauge in self._g_inflight:
                gauge.set(0)
            for end in (self._wake_r, self._wake_w):
                if end is not None:
                    end.close()
            self._wake_r = self._wake_w = None
