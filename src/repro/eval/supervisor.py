"""Sweep adapter over the supervised worker pool (:mod:`repro.pool`).

:func:`run_supervised` submits every pending unit to a
:class:`~repro.pool.SupervisedPool` with the sweep policy hard-coded:
one unit in flight per worker, so every timeout, crash or OOM kill is
attributable to its unit; a unit past ``timeout_s`` has its worker
SIGKILLed and is retried like a worker death, because a hang may be
transient; transient failures retry with exponential backoff up to
``retries`` extra attempts; a unit that raises is deterministic —
:func:`execute_unit` captures the error and it is not retried.  No
poison keys and no chaos plan: those are serve policy.

Outcomes reach ``on_outcome`` on the caller's thread in completion order
(the runner reorders by unit index), and ``should_stop`` is polled while
waiting, so a SIGINT/SIGTERM handler can stop dispatch and still flush
everything already completed.  Nothing raises for unit-level problems;
if ``on_outcome`` raises, every worker is torn down first.
"""

from __future__ import annotations

import os
import queue
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.eval.units import WorkUnit, compute_unit
from repro.pool import PoolTask, SupervisedPool
from repro.sim.stats import SweepCounters

#: how often (seconds) ``should_stop`` is polled while no outcome arrives
_STOP_POLL_S = 0.05


def execute_unit(task: Tuple[int, "WorkUnit"]):
    """Run one unit in the current process; never raises.

    Returns ``(index, status, payload, wall_s, worker_pid)`` where status
    is ``ok`` (payload = SweepRecord or None for self-filtered units) or
    ``failed`` (payload = (error, traceback) strings).  Shared by the
    runner's inline path and the supervised workers.
    """
    index, unit = task
    start = time.perf_counter()
    try:
        record = compute_unit(unit)
        return index, "ok", record, time.perf_counter() - start, os.getpid()
    except Exception as exc:  # per-unit fault isolation
        tb = traceback.format_exc()
        return index, "failed", (repr(exc), tb), time.perf_counter() - start, os.getpid()


@dataclass
class UnitOutcome:
    """Final fate of one work unit under supervision."""

    index: int
    status: str  # "ok" | "failed"
    payload: object  # SweepRecord/None, or (error, traceback) strings
    wall_s: float
    worker: int
    attempts: int = 1
    history: List[str] = field(default_factory=list)
    transient: bool = False
    timed_out: bool = False


def _run_unit(task: Tuple[int, "WorkUnit"]) -> Tuple[str, Any]:
    """Worker-side handler (:func:`execute_unit` captures unit errors)."""
    return "ok", execute_unit(task)


def _outcome(task: PoolTask) -> UnitOutcome:
    """Turn one resolved pool task into the unit's final outcome."""
    failure = task.future.exception()
    if failure is None:
        # (index, status, payload, wall_s, worker) from execute_unit
        return UnitOutcome(
            *task.future.result(), attempts=task.attempt, history=list(task.history)
        )
    index = task.request[0]
    timed_out = getattr(failure, "code", None) == "timeout"
    what = "timed out" if timed_out else "lost its worker"
    error = f"SweepError('unit {index} {what} on all {task.attempt} attempt(s)')"
    return UnitOutcome(
        index=index,
        status="failed",
        payload=(error, ""),
        wall_s=time.monotonic() - task.started_at,
        worker=task.worker,
        attempts=task.attempt,
        history=list(task.history),
        transient=True,
        timed_out=timed_out,
    )


def run_supervised(
    pending: Sequence[Tuple[int, "WorkUnit"]],
    *,
    workers: int,
    timeout_s: Optional[float],
    retries: int,
    backoff_s: float,
    on_outcome: Callable[[UnitOutcome], None],
    should_stop: Optional[Callable[[], bool]] = None,
    counters: Optional[SweepCounters] = None,
) -> bool:
    """Run ``pending`` on a supervised pool; see the module docs.

    Returns ``True`` when every unit reached a final outcome, ``False``
    when ``should_stop`` ended dispatch early (outcomes already delivered
    stay delivered — the caller flushes them).  Every worker death or
    kill is added to ``counters.worker_deaths``.
    """
    if not pending:
        return True
    pool = SupervisedPool(
        _run_unit,
        workers=min(workers, len(pending)),
        retries=retries,
        backoff_s=backoff_s,
        retry_timeouts=True,
        thread_name="repro-sweep-pool",
    )
    resolved: "queue.Queue[PoolTask]" = queue.Queue()
    try:
        pool.start()
        for item in pending:
            task = pool.submit(item, timeout_s=timeout_s)
            task.future.add_done_callback(lambda _, task=task: resolved.put(task))
        remaining = len(pending)
        while remaining:
            if should_stop is not None and should_stop():
                return False
            try:
                task = resolved.get(timeout=_STOP_POLL_S)
            except queue.Empty:
                continue
            remaining -= 1
            on_outcome(_outcome(task))
        return True
    finally:
        pool.stop()
        if counters is not None:
            counters.worker_deaths += pool.health()["restarts"]
