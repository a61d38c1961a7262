"""The three Fig. 9 DSE workloads: ``dse_cold``, ``dse_warm``, ``dse_parallel``.

One op is one complete ``run_dse`` over :func:`common.dse_collection` in
record/replay mode:

* ``dse_cold`` records into a fresh empty store every op, inline;
* ``dse_warm`` replays a store recorded during set-up, in the same
  process, so the artifact load memo is warm;
* ``dse_parallel`` is ``dse_cold`` through ``RunnerConfig(workers=2)``,
  the supervised worker pool.

The oracle is a direct (non-replay) ``run_dse`` of the same collection,
computed after the timed window; every op's cycle table must equal it.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional

from common import SETUP_REPEATS, dse_collection, median, metric, peak_rss_mb, percentile
from repro.eval.dse import run_dse
from repro.eval.runner import RunnerConfig, code_version
from repro.sim.ops import load_recordings
from tracing import Tracer, install, layer_table

WORKERS = 2


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*.npz"))


def _count_ops(store: Path) -> int:
    total = 0
    for path in store.rglob("*.npz"):
        recordings, _ = load_recordings(path)
        total += sum(len(rec.columnar()) for rec in recordings.values())
    return total


class DseWorkload:
    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.work = work
        self.seed = seed
        self.journal: Optional[Path] = None
        self.collection = None
        self.store: Optional[Path] = None

    def _runner(self):
        if self.name != "dse_parallel":
            return None
        return RunnerConfig(
            workers=WORKERS,
            capture_errors=False,
            journal_path=str(self.journal) if self.journal else None,
        )

    def _fresh(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="store-", dir=self.work))

    def op(self) -> tuple:
        """Run one DSE; returns (seconds, cycles, store dir or None)."""
        store = self.store if self.name == "dse_warm" else self._fresh()
        start = time.perf_counter()
        result = run_dse(self.collection, record_dir=str(store), runner=self._runner())
        elapsed = time.perf_counter() - start
        return elapsed, result.cycles, None if self.name == "dse_warm" else store

    def setup_once(self) -> float:
        if self.store is not None:
            shutil.rmtree(self.store)
        start = time.perf_counter()
        self.collection = dse_collection(self.seed)
        if self.name == "dse_warm":
            self.store = self._fresh()
            run_dse(self.collection, record_dir=str(self.store))
        _, _, spent = self.op()
        elapsed = time.perf_counter() - start
        if spent is not None:
            shutil.rmtree(spent)
        return elapsed


def _timed_loop(wl: DseWorkload, seconds: float, tracer: Optional[Tracer], after_op: Callable):
    times: List[float] = []
    tables: List[Optional[dict]] = []
    deadline = time.perf_counter() + seconds
    while not tables or time.perf_counter() < deadline:
        try:
            if tracer is None:
                elapsed, cycles, spent = wl.op()
            else:
                with tracer.span("bench.op"):
                    elapsed, cycles, spent = wl.op()
        except Exception:  # a failed op is counted, not fatal
            traceback.print_exc()
            tables.append(None)
            continue
        times.append(elapsed)
        tables.append(cycles)
        after_op(spent)
    return times, tables


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path, started: float) -> dict:
    """One run; ``started`` is the process's first timestamp (imports count)."""
    code_version()  # lazy init: the source fingerprint every store key embeds
    import_s = time.perf_counter() - started
    wl = DseWorkload(workload, seed, work)
    setups = [wl.setup_once() for _ in range(SETUP_REPEATS)]
    setup_s = import_s + median(setups)

    written: List[int] = []
    recorded_ops: List[int] = []
    measuring = False

    def after_op(spent: Optional[Path]) -> None:
        if spent is None:
            return
        if measuring:
            written.append(_dir_bytes(spent))
            if not recorded_ops:
                recorded_ops.append(_count_ops(spent))
        shutil.rmtree(spent)

    if not trace:
        times, tables = _timed_loop(wl, seconds, None, after_op)
        traced: Dict[str, float] = {}
    else:
        # first half untraced (the overhead baseline), second half traced
        base_times, tables = _timed_loop(wl, seconds / 2, None, after_op)
        measuring = True
        tracer = Tracer(work)
        install(tracer)
        if workload == "dse_parallel":
            wl.journal = work / "journal.jsonl"
        store_before = _dir_bytes(wl.store) if wl.store else 0
        times, more = _timed_loop(wl, seconds / 2, tracer, after_op)
        tables += more
        totals = tracer.merged()
        if wl.store is not None:
            written.append(_dir_bytes(wl.store) - store_before)
            recorded_ops.append(_count_ops(wl.store))
        traced = _layer_metrics(workload, totals, times, base_times, written, recorded_ops, wl.journal)

    print(f"{workload}: op seconds {[round(t, 4) for t in times]}", file=sys.stderr)
    rss = peak_rss_mb([os.getpid()])
    direct = run_dse(wl.collection).cycles  # the oracle, outside every window
    failed = sum(1 for table in tables if table != direct)
    if failed:
        print(f"{workload}: {failed} DSE op(s) disagree with the direct run", file=sys.stderr)
    if wl.store is not None:
        shutil.rmtree(wl.store)

    ok = True
    if trace and workload == "dse_warm":
        for name in ("matrices.build_calls", "via.execute_calls", "eval.store_put_calls"):
            if traced[name] != 0:
                print(f"dse_warm layer prediction broken: {name} = {traced[name]}", file=sys.stderr)
                ok = False
    attempted = len(tables)
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and ok,
        "end_to_end": {
            "setup_s": metric(setup_s, "s"),
            "p50_ms": metric(median(times) * 1e3, "ms"),
            "p75_ms": metric(percentile(times, 75) * 1e3, "ms"),
            "peak_rss_mb": metric(rss, "MiB"),
            "ok_share": metric(1 - failed / attempted, "share"),
        },
        "per_layer": traced,
    }


def _layer_metrics(workload, totals, times, base_times, written, recorded_ops, journal) -> Dict[str, float]:
    n = len(times)
    out = layer_table(totals, n)
    run_units_s = totals["eval.run_units"][1] / n
    workers, busy, pids = 1, out["eval.worker_busy_s"], 1.0
    if journal is not None:  # dse_parallel: units ran in forked workers
        lines = [json.loads(line) for line in journal.read_text().splitlines()]
        workers = WORKERS
        busy = sum(line["wall_s"] for line in lines) / n
        pids = len({line["worker"] for line in lines}) / n
    op_total, op_self = totals["bench.op"][1], totals["bench.op"][2]
    out.update({
        "sim.host_ns_per_op": median(base_times) * 1e9 / recorded_ops[0],
        "eval.store_bytes": median(written),
        "eval.runner_overhead_s": run_units_s - busy / workers,
        "eval.worker_busy_s": busy,
        "eval.pool_idle_share": 1 - busy / (workers * run_units_s),
        "eval.worker_pids": pids,
        "trace.overhead_share": median(times) / median(base_times) - 1,
        "trace.coverage_share": 1 - op_self / op_total,
        "bench.traced_ops": float(n),
        "bench.untraced_ops": float(len(base_times)),
    })
    return out
