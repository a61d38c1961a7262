"""Load generator for the ``repro.serve`` simulation service.

Demonstrates the serving tentpole's headline claim: on a sweep-shaped
workload (one SpMA kernel evaluated at 8 SSPM port counts), routing the
requests through the **batched replay** path is strictly faster than
naive per-request simulation, because all 8 configurations share one
op-stream recording — the ports knob only re-prices the stream, it never
changes which operations execute (the PR-2 record/replay invariant).

Two load models, both stdlib-only:

* **closed loop** — ``--clients`` workers submit-and-wait in lockstep;
  measures service capacity (throughput at full utilisation);
* **open loop** — requests arrive on a fixed schedule at ``--rate``
  requests/second regardless of completions; measures latency under a
  target offered load (the model that exposes queueing delay honestly —
  closed loops self-throttle and hide it).

Each mode boots its own server process on an ephemeral port with fresh
cache/record directories, so trials never poison each other.  A third
trial repeats the batched replay workload under a ``--chaos`` fault plan
(workers crashed mid-job, one reply garbled) and reports the pool's
health metrics — restarts, retries, respawn latency — proving the
crash-isolation story under load rather than asserting it.  Run::

    PYTHONPATH=src python benchmarks/bench_serve.py --check

``--check`` exits non-zero unless batched replay beats naive simulation,
the metrics dump shows non-zero replay and cache hits, and the chaos
trial completes every job (zero lost responses) with at least one worker
restart — the PR's acceptance gate, also exercised by CI's serve smoke
job.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.serve.client import ServeClient, read_ready_file  # noqa: E402
from repro.metrics import percentile  # noqa: E402

PORT_SWEEP = (1, 2, 3, 4, 5, 6, 7, 8)  # the 8-config workload


# ----------------------------------------------------------------------
# server lifecycle


class ServerProcess:
    """A ``python -m repro.serve serve`` child on an ephemeral port."""

    def __init__(
        self, workdir: Path, *, max_queue: int = 256, extra_args: tuple = ()
    ):
        self.workdir = workdir
        ready = workdir / "ready"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve", "serve",
                "--host", "127.0.0.1", "--port", "0",
                "--ready-file", str(ready),
                "--max-queue", str(max_queue),
                "--cache-dir", str(workdir / "cache"),
                "--record-dir", str(workdir / "recordings"),
                *extra_args,
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 30
        while not ready.exists():
            if self.proc.poll() is not None:
                raise RuntimeError("serve process died during startup")
            if time.monotonic() > deadline:
                self.proc.kill()
                raise RuntimeError("serve process never became ready")
            time.sleep(0.02)
        self.addr = read_ready_file(ready)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


# ----------------------------------------------------------------------
# workloads


def sweep_specs(kind: str, *, seed: int, max_n: int) -> list:
    """The 8-config port sweep as individual requests of ``kind``."""
    return [
        {
            "kind": kind,
            "kernel": "spma",
            "count": 1,
            "seed": seed,
            "max_n": max_n,
            "ports": ports,
        }
        for ports in PORT_SWEEP
    ]


# ----------------------------------------------------------------------
# load models


def closed_loop(addr, specs, clients: int):
    """Submit-and-wait workers; returns (elapsed_s, latencies_s)."""
    latencies: list = []
    lock = threading.Lock()
    queue = list(enumerate(specs))

    def worker():
        while True:
            with lock:
                if not queue:
                    return
                _, spec = queue.pop(0)
            with ServeClient(**addr, timeout_s=600) as client:
                t0 = time.monotonic()
                job = client.submit(spec)
                done = client.result(job["job_id"], timeout_s=600)
                dt = time.monotonic() - t0
            if done["state"] != "done":
                raise RuntimeError(f"job failed: {done.get('error')}")
            with lock:
                latencies.append(dt)

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    start = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.monotonic() - start, latencies


def open_loop(addr, specs, rate_hz: float):
    """Fixed-schedule arrivals at ``rate_hz``; returns (elapsed, lats)."""
    latencies: list = []
    lock = threading.Lock()
    threads = []

    def fire(spec):
        with ServeClient(**addr, timeout_s=600) as client:
            t0 = time.monotonic()
            job = client.submit(spec)
            done = client.result(job["job_id"], timeout_s=600)
            dt = time.monotonic() - t0
        if done["state"] != "done":
            raise RuntimeError(f"job failed: {done.get('error')}")
        with lock:
            latencies.append(dt)

    start = time.monotonic()
    for i, spec in enumerate(specs):
        # arrivals are scheduled, not triggered by completions
        target = start + i / rate_hz
        delay = target - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        t = threading.Thread(target=fire, args=(spec,))
        t.start()
        threads.append(t)
    for t in threads:
        t.join()
    return time.monotonic() - start, latencies


# ----------------------------------------------------------------------
# reporting


def summarize(label: str, elapsed: float, latencies: list) -> dict:
    lats = sorted(latencies)
    row = {
        "label": label,
        "jobs": len(lats),
        "elapsed_s": round(elapsed, 3),
        "throughput_jobs_per_s": round(len(lats) / elapsed, 2),
        "p50_s": round(percentile(lats, 0.50), 3),
        "p95_s": round(percentile(lats, 0.95), 3),
        "p99_s": round(percentile(lats, 0.99), 3),
        "mean_s": round(statistics.mean(lats), 3),
    }
    print(
        f"  {label:<28} {row['jobs']:>3} jobs in {row['elapsed_s']:>6.3f}s"
        f"  ({row['throughput_jobs_per_s']:>6.2f} jobs/s)"
        f"  p50={row['p50_s']:.3f}s p95={row['p95_s']:.3f}s"
        f" p99={row['p99_s']:.3f}s"
    )
    return row


def run_mode(kind: str, label: str, args) -> dict:
    """One isolated server, closed- then open-loop over the sweep."""
    with tempfile.TemporaryDirectory(prefix=f"bench-serve-{kind}-") as tmp:
        with ServerProcess(Path(tmp)) as server:
            specs = sweep_specs(kind, seed=args.seed, max_n=args.max_n)
            closed = summarize(
                f"{label} (closed, c={args.clients})",
                *closed_loop(server.addr, specs, args.clients),
            )
            open_ = summarize(
                f"{label} (open, {args.rate}/s)",
                *open_loop(server.addr, specs, args.rate),
            )
            # a repeated request demonstrates the PR-1 result cache
            with ServeClient(**server.addr, timeout_s=600) as client:
                client.submit(
                    sweep_specs(kind, seed=args.seed, max_n=args.max_n)[0],
                    wait=True, wait_timeout_s=600,
                )
                metrics = client.metrics()
                text = client.metrics_text()
    return {"closed": closed, "open": open_, "metrics": metrics,
            "metrics_text": text}


def run_chaos_trial(args) -> dict:
    """The batched replay workload again, while chaos kills workers.

    The plan crashes two workers mid-job and garbles one reply; the pool
    must retry and respawn so that **every** job still completes — the
    crash-isolation acceptance claim, measured instead of asserted.
    """
    plan = "crash:times=2;corrupt:times=1"
    with tempfile.TemporaryDirectory(prefix="bench-serve-chaos-") as tmp:
        # retries cover the worst case of every fault landing on one job
        with ServerProcess(
            Path(tmp), extra_args=("--chaos", plan, "--pool-retries", "4")
        ) as server:
            specs = sweep_specs("replay", seed=args.seed, max_n=args.max_n)
            closed = summarize(
                f"replay under chaos (c={args.clients})",
                *closed_loop(server.addr, specs, args.clients),
            )
            with ServeClient(**server.addr, timeout_s=600) as client:
                metrics = client.metrics()
    pool = {
        name: metrics[name]
        for name in (
            "pool_worker_restarts", "pool_retries",
            "pool_corrupt_replies", "pool_timeout_kills",
            "pool_poison_jobs", "pool_workers_alive",
        )
    }
    print(f"  chaos plan: {plan}")
    print(f"  pool after chaos: restarts={pool['pool_worker_restarts']:g} "
          f"retries={pool['pool_retries']:g} "
          f"corrupt={pool['pool_corrupt_replies']:g} "
          f"alive={pool['pool_workers_alive']:g}")
    print("  respawn latency: "
          + " ".join(f"{k}={v:.3g}s" for k, v in
                     metrics["pool_respawn_seconds"].items()
                     if k in ("p50", "p95", "max")))
    return {
        "plan": plan,
        "closed": closed,
        "pool": pool,
        "respawn_seconds": metrics["pool_respawn_seconds"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=8,
                        help="closed-loop concurrency (default 8)")
    parser.add_argument("--rate", type=float, default=16.0,
                        help="open-loop arrival rate, req/s (default 16)")
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--max-n", type=int, default=128,
                        help="matrix size cap (default 128: fast, CI-safe)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless batched replay wins "
                             "and replay/cache hits are non-zero")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the summary as JSON")
    args = parser.parse_args(argv)

    print(f"workload: spma port sweep over {len(PORT_SWEEP)} configs "
          f"(seed={args.seed}, max_n={args.max_n})")

    print("\nnaive per-request simulation (no shared recording):")
    naive = run_mode("simulate", "simulate", args)

    print("\nbatched replay (one recording, re-priced per config):")
    batched = run_mode("replay", "replay", args)

    print("\nbatched replay under chaos (workers crashed mid-load):")
    chaos = run_chaos_trial(args)

    n_tput = naive["closed"]["throughput_jobs_per_s"]
    b_tput = batched["closed"]["throughput_jobs_per_s"]
    speedup = b_tput / n_tput if n_tput else float("inf")
    replay_hits = batched["metrics"]["replay_hits"]
    cache_hits = batched["metrics"]["cache_hits"]

    print(f"\nclosed-loop speedup (batched replay / naive): {speedup:.2f}x")
    print(f"replay hits: {replay_hits}  cache hits: {cache_hits}  "
          f"batches: {batched['metrics']['batches_executed']}")
    print("\nserver metrics after the batched trial:")
    print("\n".join("  " + line
                    for line in batched["metrics_text"].splitlines()))

    summary = {
        "workload": {"configs": list(PORT_SWEEP), "seed": args.seed,
                     "max_n": args.max_n},
        "naive": {k: naive[k] for k in ("closed", "open", "metrics")},
        "batched": {k: batched[k] for k in ("closed", "open", "metrics")},
        "chaos": chaos,
        "closed_loop_speedup": round(speedup, 3),
    }
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=2) + "\n")
        print(f"\nwrote {args.json}")

    if args.check:
        failures = []
        if b_tput <= n_tput:
            failures.append(
                f"batched throughput {b_tput} <= naive {n_tput}"
            )
        if replay_hits <= 0:
            failures.append("no replay hits recorded")
        if cache_hits <= 0:
            failures.append("no cache hits recorded")
        if chaos["closed"]["jobs"] != len(PORT_SWEEP):
            failures.append(
                f"chaos trial lost responses: {chaos['closed']['jobs']} "
                f"of {len(PORT_SWEEP)} jobs completed"
            )
        if chaos["pool"]["pool_worker_restarts"] < 1:
            failures.append(
                "chaos plan never fired (no worker restarts recorded)"
            )
        if failures:
            print("\nCHECK FAILED: " + "; ".join(failures), file=sys.stderr)
            return 1
        print("\nCHECK PASSED: batched replay strictly faster, "
              "replay/cache hits non-zero, chaos trial lost nothing")
    return 0


if __name__ == "__main__":
    sys.exit(main())
