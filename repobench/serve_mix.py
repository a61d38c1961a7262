"""``serve_mix``: an open-loop request mix against one ``repro.serve`` server.

The load generator is one process with two threads (the sender and the
reader) and one pipelined JSON-lines connection; every request is a
``submit`` with ``wait: true`` and its reply is matched by ``id``.
Arrivals follow a Poisson process per class, conditioned on a fixed count
(arrival times are uniform order statistics over the window), and every
request is timed from when it was *due*, so a late sender or a stalled
server both show up as latency.  Three classes:

* ``sweep`` — a session of 8 ``replay`` requests (ports 1-8) for a fresh
  (kernel, seed) at ``max_n`` 128, all due at once; latency is the
  session's makespan.  Batching shares one recording across the session.
* ``unique`` — a ``simulate`` of 4 fresh matrices at ``max_n`` 1024 with
  the default kernel (SpMV, CSR); execution-dominated, shares nothing, so
  batching cannot help.
* ``estimate`` — the same shape as ``unique``, answered at admission by
  the cost model without a worker.

The end-to-end latency pools sweep sessions and unique requests (one
sample per user-visible request); estimates are reported per layer only,
because at a few milliseconds they are dominated by scheduling jitter.
The pooled and per-class 90th percentiles are per-layer figures too.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import SETUP_REPEATS, median, metric, percentile, peak_rss_mb, seed_stream
from repro.model.cost import JobCostEstimator
from repro.serve.client import ServeClient, read_ready_file
from repro.serve.execution import execute_request
from repro.serve.jobs import JobSpec
from tracing import Tracer, install, layer_table

#: Poisson arrival rates (events/s) per class.  With the default server (2
#: pool workers) on a 2-core host, latency stays flat up to about 16 events/s
#: per class and queues grow from 20-25; 10 per class is about half of that
RATES = {"sweep": 10.0, "unique": 10.0, "estimate": 10.0}
PORTS = tuple(range(1, 9))
SWEEP_KERNELS = ("spmv", "spma", "spmm")
#: a run whose sender fell behind its schedule by more than this at p99
#: measured the load generator, not the server: it is invalid
LAG_BOUND_MS = 25.0
REPLY_TIMEOUT_S = 60.0


def _fresh_seeds(rng, count: int, taken: set) -> List[int]:
    out = []
    while len(out) < count:
        s = int(rng.integers(1, 2**31 - 1))
        if s not in taken:
            taken.add(s)
            out.append(s)
    return out


def _unique_spec(seed: int, kind: str = "simulate") -> Dict[str, Any]:
    return {"kind": kind, "count": 4, "seed": seed, "max_n": 1024}


def _session_specs(kernel: str, seed: int) -> List[Dict[str, Any]]:
    return [
        {"kind": "replay", "kernel": kernel, "count": 1, "seed": seed,
         "max_n": 128, "ports": p}
        for p in PORTS
    ]


def make_schedule(seed: int, seconds: float, label: str) -> List[Tuple[float, str, List[dict]]]:
    """``[(due_s, class, [spec, ...]), ...]`` sorted by due time."""
    rng = seed_stream(seed, f"serve-{label}")
    taken: set = set()
    events = []
    for cls, rate in RATES.items():
        count = max(1, round(rate * seconds))
        dues = sorted(rng.uniform(0.0, seconds, count))
        # equal shares of each kernel, in seeded order, so runs differ in
        # matrices but not in how much of each kernel they ask for
        kernels = rng.permutation(
            [SWEEP_KERNELS[i % len(SWEEP_KERNELS)] for i in range(count)]
        )
        for due, s, kernel in zip(dues, _fresh_seeds(rng, count, taken), kernels):
            if cls == "sweep":
                specs = _session_specs(str(kernel), s)
            else:
                specs = [_unique_spec(s, "simulate" if cls == "unique" else "estimate")]
            events.append((float(due), cls, specs))
    events.sort(key=lambda e: e[0])
    return events


class Server:
    """``python -m repro.serve serve`` with default config on an ephemeral port."""

    def __init__(self, work: Path, src: Path):
        self.dir = Path(tempfile.mkdtemp(prefix="serve-", dir=work))
        ready = self.dir / "ready"
        env = dict(os.environ, PYTHONPATH=str(src), TMPDIR=str(work))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "serve", "--port", "0",
             "--ready-file", str(ready),
             "--cache-dir", str(self.dir / "cache"),
             "--record-dir", str(self.dir / "recordings")],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            self.addr = self._wait_ready(ready)
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, ready: Path) -> Dict[str, Any]:
        deadline = time.monotonic() + 60
        while not ready.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("serve process never became ready")
            time.sleep(0.005)
        addr = read_ready_file(str(ready))
        with ServeClient(**addr, timeout_s=30) as client:
            while True:
                workers = client.stats()["pool"]["workers"]
                if workers and all(w["state"] in ("idle", "busy") for w in workers):
                    return addr
                if time.monotonic() > deadline:
                    raise RuntimeError("pool workers never came up")
                time.sleep(0.005)

    def pids(self) -> List[int]:
        with ServeClient(**self.addr, timeout_s=30) as client:
            workers = client.stats()["pool"]["workers"]
        return [self.proc.pid] + [w["pid"] for w in workers if "pid" in w]

    def metrics(self) -> Dict[str, Any]:
        with ServeClient(**self.addr, timeout_s=30) as client:
            return client.metrics()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Request:
    __slots__ = ("rid", "cls", "event", "spec", "due", "sent", "recv", "reply")

    def __init__(self, rid: int, cls: str, event: int, spec: dict, due: float):
        self.rid, self.cls, self.event, self.spec, self.due = rid, cls, event, spec, due
        self.sent: Optional[float] = None
        self.recv: Optional[float] = None
        self.reply: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return bool(
            self.reply and self.reply.get("ok")
            and self.reply["job"]["state"] == "done"
        )


def drive(addr: Dict[str, Any], schedule) -> List[Request]:
    """Send ``schedule`` open loop over one connection; collect replies."""
    requests: List[Request] = []
    for event, (due, cls, specs) in enumerate(schedule):
        for spec in specs:
            requests.append(Request(len(requests), cls, event, spec, due))
    pending = {r.rid: r for r in requests}  # touched by the reader only
    done = threading.Event()

    with socket.create_connection((addr["host"], addr["port"])) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        reader_file = sock.makefile("rb")

        def reader() -> None:
            try:
                for line in reader_file:
                    now = time.perf_counter()
                    reply = json.loads(line)
                    req = pending.pop(reply.get("id"), None)
                    if req is not None:
                        req.recv, req.reply = now, reply
                    if not pending:
                        break
            finally:
                done.set()

        thread = threading.Thread(target=reader, name="loadgen-reader")
        thread.start()
        try:
            start = time.perf_counter() + 0.05
            i = 0
            while i < len(requests):
                due = start + requests[i].due
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                batch = []
                j = i
                while j < len(requests) and requests[j].event == requests[i].event:
                    req = requests[j]
                    req.due = due
                    batch.append(json.dumps({
                        "type": "submit", "id": req.rid, "spec": req.spec,
                        "wait": True, "wait_timeout_s": REPLY_TIMEOUT_S,
                    }))
                    j += 1
                sent = time.perf_counter()
                for req in requests[i:j]:
                    req.sent = sent
                sock.sendall(("\n".join(batch) + "\n").encode())
                i = j
            done.wait(REPLY_TIMEOUT_S)
        finally:
            with contextlib.suppress(OSError):  # the server may have gone
                sock.shutdown(socket.SHUT_RDWR)
            thread.join(30)
            reader_file.close()
    return requests


def _canon(value: Any) -> str:
    return json.dumps(value, sort_keys=True)


def _sim_view(payload: Dict[str, Any]) -> str:
    return _canon({k: payload.get(k) for k in ("records", "geomean_speedup")})


def check(requests: List[Request]) -> None:
    """Compare every reply with an in-process oracle; clear mismatches.

    Simulation replies are checked against a direct ``simulate`` of the
    same spec (replay is bit-identical to direct execution by contract);
    estimates against the in-process estimator.
    """
    estimator = JobCostEstimator()
    for req in requests:
        if not req.ok:
            continue
        result = req.reply["job"]["result"]
        if req.cls == "estimate":
            spec = JobSpec.from_payload(req.spec)
            want = estimator.estimate_workload(
                kernel=spec.kernel, count=spec.count, seed=spec.seed,
                min_n=spec.min_n, max_n=spec.max_n, formats=spec.formats,
                sram_kb=spec.sram_kb, ports=spec.ports,
            )
            want.pop("predict_s", None)
            same = _canon({k: v for k, v in result.items() if k != "predict_s"}) == _canon(want)
        else:
            want = execute_request({"spec": dict(req.spec, kind="simulate")})["payload"]
            same = _sim_view(result) == _sim_view(want)
        if not same:
            print(f"serve_mix: reply {req.rid} ({req.cls}) differs from the oracle",
                  file=sys.stderr)
            req.reply = None


def execute_times(requests: List[Request], work: Path) -> Dict[int, float]:
    """Seconds each pool job's spec takes through ``execute_request`` here.

    Replays record into one store per session, as the server's batch
    leader does, so followers replay.
    """
    stores: Dict[int, str] = {}
    exec_s: Dict[int, float] = {}
    for req in requests:
        if not req.ok or req.cls == "estimate":
            continue
        if req.cls == "sweep" and req.event not in stores:
            stores[req.event] = tempfile.mkdtemp(prefix="execute-", dir=work)
        start = time.perf_counter()
        execute_request({"spec": req.spec, "record_dir": stores.get(req.event)})
        exec_s[req.rid] = time.perf_counter() - start
    return exec_s


def _delta(after: Dict[str, Any], before: Dict[str, Any], name: str) -> float:
    a, b = after.get(name, 0), before.get(name, 0)
    if isinstance(a, dict):
        return (a["count"] - b.get("count", 0), a["sum"] - b.get("sum", 0.0))
    return a - b


def run(seed: int, seconds: float, trace: bool, work: Path, src: Path) -> dict:
    setups = []
    server: Optional[Server] = None
    try:
        for rep in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
                shutil.rmtree(server.dir)
            start = time.perf_counter()
            server = Server(work, src)
            warm = drive(server.addr, make_schedule(seed + rep, 0.0, "warmup"))
            setups.append(time.perf_counter() - start)
            if not all(r.ok for r in warm):
                raise RuntimeError("warm-up request failed")
        before = server.metrics()
        requests = drive(server.addr, make_schedule(seed, seconds, "timed"))
        after = server.metrics()
        rss = peak_rss_mb(server.pids())
    finally:
        if server is not None:
            server.stop()
    setup_s = median(setups)

    # artifacts the server wrote take seconds to unlink on some filesystems;
    # that I/O wait overlaps with the oracle's computation
    janitor = threading.Thread(target=shutil.rmtree, args=(server.dir,))
    janitor.start()
    try:
        check(requests)
        if trace:
            tracer = Tracer(work)
            install(tracer)
            exec_s = execute_times(requests, work)
    finally:
        janitor.join()

    events: Dict[int, List[Request]] = {}
    for req in requests:
        events.setdefault(req.event, []).append(req)
    latency: Dict[str, List[float]] = {"sweep": [], "unique": [], "estimate": []}
    for reqs in events.values():
        if all(r.ok for r in reqs):
            latency[reqs[0].cls].append(max(r.recv for r in reqs) - reqs[0].due)
    failed = sum(1 for r in requests if not r.ok)
    lag = [r.sent - r.due for r in requests]
    valid = percentile(lag, 99) * 1e3 <= LAG_BOUND_MS
    if not valid:
        print(f"serve_mix: invalid run, sender lag p99 {percentile(lag, 99) * 1e3:.1f} ms "
              f"exceeds {LAG_BOUND_MS} ms", file=sys.stderr)
    pooled = latency["sweep"] + latency["unique"]
    short = [c for c in ("sweep", "unique", "estimate") if len(latency[c]) < 100]
    if short:
        print(f"serve_mix: fewer than 100 samples in {short}", file=sys.stderr)

    per_layer: Dict[str, float] = {}
    ok_layers = True
    if trace:
        per_layer, ok_layers = _layer_metrics(
            requests, latency, exec_s, before, after, lag, tracer, len(exec_s)
        )
    return {
        "attempted": len(requests),
        "failed": failed,
        "correct": failed == 0 and valid and not short and ok_layers,
        "end_to_end": {
            "setup_s": metric(setup_s, "s"),
            "p50_ms": metric(median(pooled) * 1e3, "ms"),
            "p75_ms": metric(percentile(pooled, 75) * 1e3, "ms"),
            "peak_rss_mb": metric(rss, "MiB"),
            "ok_share": metric(1 - failed / len(requests), "share"),
        },
        "per_layer": per_layer,
    }


def _layer_metrics(requests, latency, exec_s, before, after, lag, tracer, n_exec):
    pool_jobs = [r for r in requests if r.ok and r.cls != "estimate"]
    jobs = {r.rid: r.reply["job"] for r in pool_jobs}
    sweeps = [r for r in pool_jobs if r.cls == "sweep"]
    uniques = [r for r in pool_jobs if r.cls == "unique"]
    first_of_session = {}
    for r in sweeps:
        prev = first_of_session.get(r.event)
        if prev is None or jobs[r.rid]["queue_wait_s"] < jobs[prev]["queue_wait_s"]:
            first_of_session[r.event] = r.rid
    followers = [r for r in sweeps if first_of_session[r.event] != r.rid]

    def ms(values):
        return [v * 1e3 for v in values]

    wait = ms(jobs[r.rid]["queue_wait_s"] for r in pool_jobs)
    service = ms(jobs[r.rid]["service_s"] for r in pool_jobs)
    reply = ms(
        (r.recv - r.due) - jobs[r.rid]["queue_wait_s"] - jobs[r.rid]["service_s"]
        for r in pool_jobs
    )
    estimates = [r for r in requests if r.ok and r.cls == "estimate"]
    covered = sum(jobs[r.rid]["queue_wait_s"] + jobs[r.rid]["service_s"] for r in pool_jobs)
    client = sum(r.recv - r.due for r in pool_jobs)
    batches, batch_jobs = _delta(after, before, "batch_size")
    completed = _delta(after, before, "jobs_completed")
    replay_hits = _delta(after, before, "replay_hits")
    replay_all = replay_hits + _delta(after, before, "replay_misses")
    cache_hits = _delta(after, before, "cache_hits")
    cache_all = cache_hits + _delta(after, before, "cache_misses")

    sweep_batch = [jobs[r.rid].get("batch_size", 0) for r in sweeps]
    unique_batch = [jobs[r.rid].get("batch_size", 0) for r in uniques]
    ok = True
    if not sweep_batch or sum(sweep_batch) / len(sweep_batch) <= 1:
        print("serve_mix layer prediction broken: sweep sessions were not batched",
              file=sys.stderr)
        ok = False
    if any(b != 1 for b in unique_batch):
        print("serve_mix layer prediction broken: a unique request was batched",
              file=sys.stderr)
        ok = False

    out = layer_table(tracer.merged(), n_exec)
    pooled = latency["sweep"] + latency["unique"]
    out.update({
        "serve.p90_ms": percentile(pooled, 90) * 1e3,
        "serve.sweep_p50_ms": median(latency["sweep"]) * 1e3,
        "serve.sweep_p90_ms": percentile(latency["sweep"], 90) * 1e3,
        "serve.unique_p50_ms": median(latency["unique"]) * 1e3,
        "serve.unique_p90_ms": percentile(latency["unique"], 90) * 1e3,
        "serve.queue_wait_p50_ms": median(wait),
        "serve.queue_wait_p90_ms": percentile(wait, 90),
        "serve.follower_queue_wait_p50_ms": median(ms(jobs[r.rid]["queue_wait_s"] for r in followers)),
        "serve.service_p50_ms": median(service),
        "serve.service_p90_ms": percentile(service, 90),
        "serve.execute_p50_ms": median(ms(exec_s[r.rid] for r in pool_jobs)),
        "serve.dispatch_overhead_p50_ms": median(
            ms(jobs[r.rid]["service_s"] - exec_s[r.rid] for r in pool_jobs)
        ),
        "serve.reply_p50_ms": median(reply),
        "serve.frontend_rtt_p50_ms": median(latency["estimate"]) * 1e3,
        "serve.frontend_rtt_p90_ms": percentile(latency["estimate"], 90) * 1e3,
        "model.predict_p50_ms": median(ms(r.reply["job"]["result"]["predict_s"] for r in estimates)),
        "serve.batch_size_mean": batch_jobs / batches if batches else 0.0,
        "serve.jobs_batched_share": _delta(after, before, "jobs_batched") / completed if completed else 0.0,
        "serve.replay_hit_ratio": replay_hits / replay_all if replay_all else 0.0,
        "serve.cache_hit_ratio": cache_hits / cache_all if cache_all else 0.0,
        "serve.pool_retries": _delta(after, before, "pool_retries"),
        "serve.worker_restarts": _delta(after, before, "pool_worker_restarts"),
        "serve.jobs_shed": _delta(after, before, "jobs_shed"),
        "loadgen.lag_p99_ms": percentile(lag, 99) * 1e3,
        "trace.overhead_share": 0.0,
        "trace.coverage_share": covered / client if client else 0.0,
        "bench.traced_ops": float(n_exec),
    })
    for cls in ("sweep", "unique", "estimate"):
        mine = [r for r in requests if r.cls == cls]
        good = sum(1 for r in mine if r.ok)
        out[f"loadgen.{cls}_sent"] = float(len(mine))
        out[f"loadgen.{cls}_succeeded"] = float(good)
        out[f"loadgen.{cls}_failed"] = float(len(mine) - good)
    out["loadgen.sent"] = float(len(requests))
    out["loadgen.succeeded"] = float(sum(1 for r in requests if r.ok))
    out["loadgen.failed"] = out["loadgen.sent"] - out["loadgen.succeeded"]
    return out, ok
