"""``repro.serve`` — an always-on simulation service over the sweep engine.

The batch CLIs (``python -m repro.eval``, ``report_cli``) pay full startup
cost per invocation and serve exactly one caller.  This package turns the
same execution substrate — the supervised runner, the PR-1 result cache,
and the PR-2 record/replay store — into a long-running multi-tenant
service:

* :mod:`repro.serve.jobs` — typed, validated job specs (simulate / sweep /
  replay / report / sleep) with priorities, deadlines, and the structured
  error payloads every rejection or failure maps to;
* :mod:`repro.serve.scheduler` — an asyncio scheduler with a bounded
  admission queue (load shedding with ``retry_after_s``), per-request
  timeouts and cancellation, and a batching stage that groups compatible
  requests by recording key so one op-stream recording is replayed for a
  whole batch;
* :mod:`repro.serve.server` — a stdlib JSON-lines-over-TCP front end with
  graceful drain on SIGTERM (in-flight jobs complete, queued jobs report
  cancelled, waiters get their responses before sockets close);
* :mod:`repro.serve.client` — a blocking client library and the CLI behind
  ``python -m repro.serve``;
* :mod:`repro.metrics` — counters, gauges, and latency histograms
  (p50/p95/p99) exposed via the ``metrics`` request as JSON or a text dump.

Quickstart::

    python -m repro.serve serve --port 7341 &
    python -m repro.serve submit --port 7341 --kind simulate --kernel spmv
    python -m repro.serve metrics --port 7341 --text
"""

from repro.metrics import MetricsRegistry
from repro.serve.client import ServeClient, ServeRequestError
from repro.serve.jobs import Job, JobSpec, error_payload
from repro.serve.scheduler import Scheduler, ServiceConfig
from repro.serve.server import ViaServer

__all__ = [
    "Job",
    "JobSpec",
    "MetricsRegistry",
    "Scheduler",
    "ServeClient",
    "ServeRequestError",
    "ServiceConfig",
    "ViaServer",
    "error_payload",
]
