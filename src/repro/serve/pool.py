"""Serve adapter over the supervised worker pool (:mod:`repro.pool`).

The scheduler runs every job on a :class:`WorkerPool`, the shared
subprocess pool with serve's policy hard-coded: a job past its
``timeout_s`` fails ``timeout`` at once (its worker is SIGKILLed and the
slot respawned; a timeout is deterministic, so it is not retried), jobs
carry their spec's poison key, and the optional
:class:`repro.chaos.ChaosConfig` plan arms the workers.  Workers preload
the execution stack (:func:`warm_imports`) before the ready handshake and
run :func:`repro.serve.execution.execute_request`.  Pool failures surface
as structured :class:`~repro.errors.ServeError` codes (``worker_crash``,
``poison_job``, ``timeout``, ``stopped``), a
:class:`~repro.errors.JobCancelled`, or the worker's own error payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.chaos import ChaosConfig
from repro.errors import JobCancelled, ServeError
from repro.metrics import MetricsRegistry
from repro.pool import SupervisedPool
from repro.serve.execution import execute_request, warm_imports
from repro.serve.jobs import error_payload


class WorkerCrashError(ServeError):
    """A job lost its worker (crash/OOM/corruption) on every attempt."""

    def __init__(self, message: str) -> None:
        super().__init__(message, code="worker_crash", retry_after_s=1.0)


class PoisonJobError(ServeError):
    """A job key crossed the crash threshold and is quarantined."""

    def __init__(self, message: str) -> None:
        super().__init__(message, code="poison_job")


class WorkerJobError(ServeError):
    """A job failed *inside* a worker; carries the worker's structured
    error payload (code + retry hint) across the pipe unchanged."""

    def __init__(self, payload: Dict[str, Any]) -> None:
        super().__init__(
            str(payload.get("reason", "job failed in worker")),
            code=str(payload.get("code", "internal")),
            retry_after_s=payload.get("retry_after_s"),
        )


@dataclass(frozen=True)
class PoolConfig:
    """Operating envelope of one worker pool.

    ``retries`` bounds extra attempts for transient (worker-death)
    failures; ``poison_threshold`` is the per-key crash budget before the
    circuit breaker opens.
    """

    workers: int = 2
    retries: int = 2
    backoff_s: float = 0.05
    poison_threshold: int = 3
    chaos: Optional[ChaosConfig] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServeError(f"workers must be >= 1, got {self.workers}")
        if self.retries < 0:
            raise ServeError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_s < 0:
            raise ServeError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.poison_threshold < 1:
            raise ServeError(
                f"poison_threshold must be >= 1, got {self.poison_threshold}"
            )


def _run_job(request: Dict[str, Any]) -> Tuple[str, Any]:
    """Worker-side handler: one job, its failure mapped to the wire payload."""
    try:
        return "ok", execute_request(request)
    except Exception as exc:  # per-job fault isolation
        return "error", error_payload(exc)


class WorkerPool(SupervisedPool):
    """The scheduler's supervised subprocess pool (see the module docs)."""

    def __init__(
        self,
        config: Optional[PoolConfig] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.config = config or PoolConfig()
        super().__init__(
            _run_job,
            workers=self.config.workers,
            retries=self.config.retries,
            backoff_s=self.config.backoff_s,
            retry_timeouts=False,
            poison_threshold=self.config.poison_threshold,
            chaos=self.config.chaos,
            warm=warm_imports,
            metrics=metrics,
            thread_name="repro-serve-pool",
        )

    def failure(self, code: str, message: str, payload: Any = None) -> BaseException:
        if code == "worker_crash":
            return WorkerCrashError(message)
        if code == "poison_job":
            return PoisonJobError(message)
        if code == "cancelled":
            return JobCancelled(message)
        if code == "error":
            return WorkerJobError(payload)
        return ServeError(
            message, code=code, retry_after_s=1.0 if code == "timeout" else None
        )
