"""Span recorder installed around the program's public layer entry points.

Nothing under ``src/`` knows about it: :func:`install` swaps module and
class attributes for timing wrappers from benchmark code, so the traced
run executes exactly the production call graph plus one wrapper frame per
call.  Every wrapped call is a span; a span's *self time* is its duration
minus the part of it that child spans cover.  Spans are aggregated in
memory per layer name (calls, total seconds, self seconds).

Sweep workers are forked from the traced process, so they inherit the
wrappers.  A forked child starts from empty totals and writes them to
``<spill_dir>/spans-<pid>-<start>.json`` when it exits normally (a
``multiprocessing`` finalizer); :meth:`Tracer.merged` folds those files into
the parent's totals.  Writing once per worker, not once per span, keeps the
trace's own file I/O out of the measured sweep.
"""

from __future__ import annotations

import functools
import json
import os
import time
from multiprocessing.util import Finalize
from pathlib import Path
from typing import Any, Callable, Dict, List

#: layer name -> [calls, total_s, self_s]
Totals = Dict[str, List[float]]


class Tracer:
    """Per-process span aggregator (single-threaded callers only)."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = spill_dir
        self.pid = os.getpid()
        self.totals: Totals = {}
        self._stack: List[List[float]] = []

    def _enter(self) -> List[float]:
        if os.getpid() != self.pid:  # first span in a forked worker
            self.pid = os.getpid()
            self.totals = {}
            self._stack = []
            # pids get reused; the start time keeps each worker's file apart
            path = self.spill_dir / f"spans-{self.pid}-{time.perf_counter_ns()}.json"
            Finalize(None, self._spill, args=(path,), exitpriority=10)
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: List[float]) -> None:
        duration = time.perf_counter() - frame[0]
        self._stack.pop()
        row = self.totals.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += duration
        row[2] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration

    def _spill(self, path: Path) -> None:
        path.write_text(json.dumps(self.totals))

    def count(self, name: str) -> None:
        """Count an event that has no duration of its own."""
        self.totals.setdefault(name, [0, 0.0, 0.0])[0] += 1

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, frame)

        return traced

    def span(self, name: str) -> "_Span":
        """Context manager for a span the benchmark itself opens."""
        return _Span(self, name)

    def patch(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (function, method or classmethod)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(name, raw.__func__)))
        else:
            setattr(owner, attr, self.wrap(name, raw))

    def merged(self) -> Totals:
        """Parent totals plus every forked worker's spilled totals."""
        out: Totals = {k: list(v) for k, v in self.totals.items()}
        for path in sorted(self.spill_dir.glob("spans-*.json")):
            for name, row in json.loads(path.read_text()).items():
                acc = out.setdefault(name, [0, 0.0, 0.0])
                for i in range(3):
                    acc[i] += row[i]
        return out


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        self.frame = self.tracer._enter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer._exit(self.name, self.frame)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the layer map names (for good)."""
    from repro.eval import recordings, runner, supervisor, units
    from repro.formats.csb import CSBMatrix
    from repro.formats.csc import CSCMatrix
    from repro.formats.csr import CSRMatrix
    from repro.kernels import spma, spmm, spmv
    from repro.matrices.collection import MatrixSpec
    from repro.sim import backends, columnar
    from repro.via.engine import ViaDevice

    tracer.patch(MatrixSpec, "build", "matrices.build")
    for cls in (CSRMatrix, CSBMatrix, CSCMatrix):
        tracer.patch(cls, "from_coo", "formats.from_coo")
    for mod in (spmv, spma, spmm):
        for attr in sorted(vars(mod)):
            if callable(getattr(mod, attr)) and attr.endswith(("_via", "_baseline")):
                side = "via" if attr.endswith("_via") else "baseline"
                tracer.patch(mod, attr, f"kernels.{side}")
    # the SpMV unit plan looks its kernels up in this table, not the module
    for fmt, (base_fn, via_fn) in list(spmv.SPMV_VARIANTS.items()):
        spmv.SPMV_VARIANTS[fmt] = (
            getattr(spmv, base_fn.__name__), getattr(spmv, via_fn.__name__)
        )
    tracer.patch(ViaDevice, "execute", "via.execute")
    tracer.patch(columnar, "price_flush", "sim.flush")
    tracer.patch(backends, "replay_recording", "sim.replay")
    tracer.patch(units, "replay_recording", "sim.replay")
    tracer.patch(recordings.RecordingStore, "put", "eval.store_put")
    tracer.patch(recordings, "load_recordings", "eval.store_load")
    tracer.patch(runner, "run_units", "eval.run_units")
    tracer.patch(supervisor, "compute_unit", "eval.compute_unit")

    get = recordings.RecordingStore.get

    def counted_get(store, key):
        found = get(store, key)
        if found is not None:
            tracer.count("eval.store_found")
        return found

    recordings.RecordingStore.get = tracer.wrap("eval.store_get", counted_get)


def layer_table(totals: Totals, n: int) -> Dict[str, float]:
    """Per-op layer figures from span totals over ``n`` ops.

    ``_calls`` are calls per op and ``_s`` are seconds per op, summed over
    every process that ran the layer; ``_self_s`` excludes child spans.
    """
    n = max(n, 1)

    def get(name: str, i: int) -> float:
        return totals.get(name, [0, 0.0, 0.0])[i] / n

    found = get("eval.store_found", 0)
    loads = get("eval.store_load", 0)
    return {
        "matrices.build_calls": get("matrices.build", 0),
        "matrices.build_s": get("matrices.build", 1),
        "formats.from_coo_s": get("formats.from_coo", 1),
        "kernels.via_self_s": get("kernels.via", 2),
        "kernels.baseline_self_s": get("kernels.baseline", 2),
        "via.execute_calls": get("via.execute", 0),
        "via.execute_s": get("via.execute", 1),
        "sim.flush_calls": get("sim.flush", 0),
        "sim.flush_s": get("sim.flush", 1),
        "sim.replay_calls": get("sim.replay", 0),
        "sim.replay_s": get("sim.replay", 1),
        "eval.store_put_calls": get("eval.store_put", 0),
        "eval.store_put_s": get("eval.store_put", 1),
        "eval.store_load_s": get("eval.store_load", 1),
        "eval.store_memo_hit_ratio": (found - loads) / found if found else 0.0,
        "eval.runner_overhead_s": get("eval.run_units", 1) - get("eval.compute_unit", 1),
        "eval.worker_busy_s": get("eval.compute_unit", 1),
    }
