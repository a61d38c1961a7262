"""Pricing backends for the op-stream IR.

Narration reaches a backend in one of two shapes.  Batch-capable backends
(:attr:`Backend.batch_capable`) receive whole
:class:`~repro.sim.columnar.FlushBatch` column blocks from the core's
narration buffer via :meth:`Backend.flush` — the hot path, no per-op
objects.  Batch-incapable backends (tracing) and directly-injected ops
arrive one :class:`~repro.sim.ops.Op` at a time through
:meth:`Backend.handle`, priced by :meth:`Op.apply`.  Both shapes mutate
the same core counters and are bit-identical.

* :class:`DirectBackend` — price immediately and retain nothing (the
  default);
* :class:`RecorderBackend` — capture the stream *and* price it, so a
  recording run produces both the artifact and the baseline result in one
  pass.  Batched narration is captured as the column blocks themselves:
  the recording is born columnar, with no ``from_ops`` conversion and no
  per-op materialization;
* :class:`TraceBackend` — log a :class:`~repro.sim.trace.TraceEvent` per
  op and delegate to an inner backend (installed by
  :class:`~repro.sim.trace.TracedCore`; not batch-capable, which is what
  keeps the trace op-by-op);
* :class:`InvariantBackend` — delegate, then assert the model's
  conservation laws (gem5-style runtime self-checking): monotone
  non-negative counters, cache hit totals that account for every line
  access, bounded branch mispredicts, SSPM occupancy within capacity.
  Per-op narration is checked op by op; flushes are validated at
  batch granularity — structurally via
  :func:`~repro.sim.columnar.check_columnar_invariants` plus the same
  counter-delta laws over the whole batch.

Replay is not a backend but a driver: :func:`replay_recording` re-prices a
recorded stream under the target machine/VIA pair on fresh caches, through
the columnar kernels.  Because direct execution prices ops through the very
same kernels, replayed results are bit-identical by construction.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from typing import TYPE_CHECKING, List, Optional, Union

from repro.errors import InvariantError
from repro.sim.config import MachineConfig
from repro.sim.ops import (
    Op,
    PricedState,
    Recording,
    ReplayMismatchError,
    stream_shape_key,
)
from repro.sim.stats import OpCounters

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.columnar import ColumnarOps, ColumnarPriced, FlushBatch
    from repro.sim.core import Core
    from repro.sim.stats import KernelResult
    from repro.sim.trace import Trace
    from repro.via.config import ViaConfig


class Backend:
    """Base backend: price each op as it is narrated.

    Subclasses advertising :attr:`batch_capable` receive buffered
    narration as :meth:`flush` calls instead of per-op :meth:`handle`
    calls, and must implement :meth:`flush`.
    """

    #: whether this backend accepts whole flush batches; cores only build
    #: a narration buffer for backends that do
    batch_capable: bool = False

    def handle(self, op: Op, core: "Core") -> None:
        op.apply(core)

    def flush(self, batch: "FlushBatch", core: "Core") -> None:
        """Price one narration batch (batch-capable backends only)."""
        raise NotImplementedError

    def on_finalize(self, core: "Core", name: str, output: object) -> None:
        """Called by :meth:`Core.finalize` before the result is built."""


class DirectBackend(Backend):
    """Price immediately, retain nothing; flushes go through the columnar
    kernels (:func:`~repro.sim.columnar.price_flush`)."""

    batch_capable = True

    def flush(self, batch: "FlushBatch", core: "Core") -> None:
        from repro.sim.columnar import price_flush

        price_flush(batch, core)


class RecorderBackend(Backend):
    """Capture the op stream while pricing it.

    After the kernel calls ``finalize``, :attr:`recording` holds the
    complete :class:`~repro.sim.ops.Recording` (stream + configurations +
    functional output), ready for :func:`~repro.sim.ops.save_recordings`.

    Batched narration is captured as the flushed column blocks and
    stitched with :func:`~repro.sim.columnar.concat_columnar` at finalize,
    so the recording carries native struct-of-arrays columns end to end —
    no ``Op`` object is ever built on this path.  Ops injected directly
    (batch-incapable subclasses, tests) are captured per-op and converted
    to columns at finalize, in stream order.
    """

    def __init__(self) -> None:
        self._events: List[Union[Op, "ColumnarOps"]] = []
        self.recording: Optional[Recording] = None

    batch_capable = True

    def handle(self, op: Op, core: "Core") -> None:
        self._events.append(op)
        op.apply(core)

    def flush(self, batch: "FlushBatch", core: "Core") -> None:
        from repro.sim.columnar import price_flush

        self._events.append(batch.cols)
        price_flush(batch, core)

    def on_finalize(self, core: "Core", name: str, output: object) -> None:
        from repro.sim.columnar import ColumnarOps, concat_columnar

        via_cfg = core.via.config if core.via is not None else None
        blocks: List[ColumnarOps] = []
        run: List[Op] = []
        for event in self._events:
            if isinstance(event, Op):
                run.append(event)
                continue
            if run:
                blocks.append(ColumnarOps.from_ops(run))
                run = []
            blocks.append(event)
        if run:
            blocks.append(ColumnarOps.from_ops(run))
        self.recording = Recording(
            name=name,
            machine=core.machine,
            via_config=via_cfg,
            columnar=concat_columnar(blocks),
            output=output,
            priced=PricedState(
                counters=dataclasses.replace(core.counters),
                dram_occupancy_cycles=core.memory.dram.occupancy_cycles(),
                dram_traffic_bytes=core.memory.dram.traffic_bytes,
                dram_lines=core.memory.dram.stats.lines,
                cache_stats=core.memory.level_stats(),
            ),
        )


class TraceBackend(Backend):
    """Log every op to a :class:`~repro.sim.trace.Trace`, then delegate.

    Deliberately not batch-capable: installing it flips the core back to
    per-op narration, which is what keeps the trace a faithful op-by-op
    log (DESIGN.md §10 — tracing is when ``Op`` objects still materialize).
    """

    def __init__(self, trace: "Trace", inner: Optional[Backend] = None) -> None:
        self.trace = trace
        self.inner = inner if inner is not None else DirectBackend()

    def handle(self, op: Op, core: "Core") -> None:
        self.trace.add(op.kind, op.describe(), op.trace_count)
        self.inner.handle(op, core)

    def on_finalize(self, core: "Core", name: str, output: object) -> None:
        self.inner.on_finalize(core, name, output)


#: integer counters that classify where each line access was served; their
#: deltas must sum to the delta of ``mem_line_accesses`` on every op
_CACHE_LEVEL_FIELDS = ("l1_hits", "l2_hits", "l3_hits", "dram_fills")

#: slack for float-accumulated counters (mispredicts, latencies)
_FLOAT_SLACK = 1e-9


def _counters_violation(before: OpCounters, after: OpCounters) -> Optional[str]:
    """First conservation-law violation in a counter delta, or ``None``.

    The laws checked are the ones every op must preserve regardless of its
    kind — they are how :func:`repro.sim.core.build_result` prices results:

    * every counter is monotone (ops only ever add work) and finite;
    * cache accounting conserves lines: each new line access is served by
      exactly one of L1/L2/L3/DRAM;
    * branch mispredicts cannot exceed the branches that produced them.
    """
    for name in before.__dataclass_fields__:
        b, a = getattr(before, name), getattr(after, name)
        if not math.isfinite(a):
            return f"counter {name} became non-finite ({a!r})"
        if a < b - _FLOAT_SLACK:
            return f"counter {name} decreased from {b!r} to {a!r}"
    d_lines = after.mem_line_accesses - before.mem_line_accesses
    d_served = sum(
        getattr(after, f) - getattr(before, f) for f in _CACHE_LEVEL_FIELDS
    )
    if d_served != d_lines:
        return (
            f"cache conservation broken: {d_lines} new line accesses but "
            f"{d_served} served (l1+l2+l3+dram)"
        )
    d_branches = after.branches - before.branches
    d_mispredicts = after.branch_mispredicts - before.branch_mispredicts
    if d_mispredicts > d_branches + _FLOAT_SLACK:
        return (
            f"{d_mispredicts} new branch mispredicts exceed "
            f"{d_branches} new branches"
        )
    return None


def _sspm_violation(core: "Core") -> Optional[str]:
    """SSPM occupancy bound, when a VIA device is attached."""
    via = core.via
    if via is None:
        return None
    occupancy = via.sspm.element_count
    capacity = via.config.cam_entries
    if not (0 <= occupancy <= capacity):
        return (
            f"SSPM occupancy {occupancy} outside [0, {capacity}] "
            f"({via.config.name})"
        )
    return None


def check_result_invariants(result: "KernelResult") -> "KernelResult":
    """Validate a finished :class:`~repro.sim.stats.KernelResult`.

    Used by validating replays (whose fast path is pure arithmetic over a
    stored :class:`~repro.sim.ops.PricedState`, so there are no per-op
    deltas to check) and by :meth:`InvariantBackend.on_finalize`: the
    cycle breakdown's priced components must all be finite and
    non-negative, and the total must dominate every component — the
    model's cycle-conservation law.
    """
    zero = OpCounters()
    problem = _counters_violation(zero, result.counters)
    if problem is not None:
        raise InvariantError(f"{result.name}: {problem}")
    breakdown = result.breakdown.as_dict()
    total = result.breakdown.total_cycles
    for name, value in breakdown.items():
        if name == "bottleneck":
            continue
        if not math.isfinite(value):
            raise InvariantError(
                f"{result.name}: cycle component {name} is non-finite ({value!r})"
            )
        if value < 0:
            raise InvariantError(
                f"{result.name}: cycle component {name} is negative ({value!r})"
            )
        if name not in ("total_cycles",) and value > total + _FLOAT_SLACK * max(
            1.0, total
        ):
            raise InvariantError(
                f"{result.name}: cycle component {name}={value!r} exceeds "
                f"total_cycles={total!r}"
            )
    if not math.isfinite(result.energy_pj) or result.energy_pj < 0:
        raise InvariantError(
            f"{result.name}: energy {result.energy_pj!r} is not a "
            "finite non-negative number"
        )
    return result


class InvariantBackend(Backend):
    """Delegate to ``inner``, then assert the model's conservation laws.

    Stateless between ops: each :meth:`handle` snapshots the counters,
    prices the op through the inner backend, and checks the delta — so the
    first op that corrupts the model raises
    :class:`~repro.errors.InvariantError` with itself attached, not some
    later observer.  Batched narration validates at flush granularity:
    :meth:`flush` first runs
    :func:`~repro.sim.columnar.check_columnar_invariants` over the batch's
    columns (structural laws, SSPM footprint vs capacity), then checks the
    same counter-delta laws over the whole batch.  Wrap any backend:
    ``InvariantBackend()`` validates direct pricing,
    ``InvariantBackend(RecorderBackend())`` validates while recording.
    """

    def __init__(self, inner: Optional[Backend] = None) -> None:
        self.inner = inner if inner is not None else DirectBackend()
        # validate in whatever shape the inner backend consumes
        self.batch_capable = self.inner.batch_capable

    def handle(self, op: Op, core: "Core") -> None:
        before = dataclasses.replace(core.counters)
        self.inner.handle(op, core)
        problem = _counters_violation(before, core.counters)
        if problem is None:
            problem = _sspm_violation(core)
        if problem is not None:
            raise InvariantError(
                f"op {op.kind!r} violated a model invariant: {problem}",
                op=op,
            )

    def flush(self, batch: "FlushBatch", core: "Core") -> None:
        from repro.sim.columnar import check_columnar_invariants

        n = len(batch.cols)
        try:
            capacity = (
                core.via.config.cam_entries if core.via is not None else None
            )
            check_columnar_invariants(batch.cols, capacity=capacity)
        except InvariantError as exc:
            raise InvariantError(
                f"flush of {n} narrated ops violated a model invariant: {exc}"
            ) from exc
        before = dataclasses.replace(core.counters)
        self.inner.flush(batch, core)
        problem = _counters_violation(before, core.counters)
        if problem is None:
            problem = _sspm_violation(core)
        if problem is not None:
            raise InvariantError(
                f"flush of {n} narrated ops violated a model invariant: "
                f"{problem}"
            )

    def on_finalize(self, core: "Core", name: str, output: object) -> None:
        self.inner.on_finalize(core, name, output)
        problem = _counters_violation(OpCounters(), core.counters)
        if problem is None:
            problem = _sspm_violation(core)
        if problem is not None:
            raise InvariantError(f"finalize({name!r}): {problem}")


#: guards every Recording's ``_machine_memo``: the recording store's load
#: memo hands the *same* Recording object to concurrent serve executor
#: threads, so the per-machine pricing memo is cross-thread shared state
_MEMO_LOCK = threading.Lock()

def replay_recording(
    recording: Recording,
    *,
    machine: Optional[MachineConfig] = None,
    via_config: Optional["ViaConfig"] = None,
    validate: bool = False,
) -> "KernelResult":
    """Re-price a recorded op stream under a target configuration.

    No functional numpy runs: the recorded stream is priced as whole
    columns (:mod:`repro.sim.columnar`) on fresh cold caches with the same
    bump-allocated address space, and the recorded functional output is
    attached to the result.  The target must be stream-shape compatible
    with the recording (same vector lanes, L1 latency, and SSPM capacity —
    see :func:`~repro.sim.ops.stream_shape_key`); anything else, notably
    SSPM *port* counts and all pure-pricing machine knobs, may differ
    freely.

    Raises :class:`~repro.sim.ops.ReplayMismatchError` if the target would
    have produced a different op stream.

    Two cost tiers, both bit-identical to direct execution:

    * **same machine** (the Fig. 9 port sweep): the record run's stored
      :class:`~repro.sim.ops.PricedState` already holds every counter the
      ports cannot touch, so only the VIA ops are re-priced — pure
      arithmetic, no cache simulation;
    * **different machine**: the machine-dependent ops replay through
      :func:`~repro.sim.columnar.price_columnar` (memoized per target
      machine on the recording), and the VIA-op totals are added on top —
      VIA ops never touch the memory hierarchy, so the split is exact.

    With ``validate=True`` the replay self-checks: the stream runs through
    :func:`repro.sim.columnar.check_columnar_invariants` (and a
    cross-machine memory pass checks its finished counters too), and
    every path runs :func:`check_result_invariants` over the finished
    result — so a corrupt or mis-priced artifact raises
    :class:`~repro.errors.InvariantError` instead of producing a silently
    wrong number.  Validation never changes the result.
    """
    from repro.sim.columnar import (
        check_columnar_invariants,
        columnar_via_totals,
        price_columnar,
    )
    from repro.sim.core import build_result

    if machine is None:
        machine = recording.machine
    if via_config is None:
        via_config = recording.via_config
    target_key = stream_shape_key(machine, via_config)
    if target_key != recording.shape_key:
        raise ReplayMismatchError(
            f"cannot replay {recording.name!r}: recorded stream shape "
            f"{recording.shape_key} != target {target_key}"
        )
    name = recording.name
    if (
        recording.via_config is not None
        and via_config is not None
        and via_config.name != recording.via_config.name
    ):
        # kernel names embed the config they ran under; retarget the label
        name = name.replace(recording.via_config.name, via_config.name)
    if via_config is not None:
        from repro.via import area

        via_leak = area.leakage_mw(via_config)
    else:
        via_leak = 0.0
    cols = recording.columnar()
    via_side = columnar_via_totals(cols, via_config)
    if validate:
        check_columnar_invariants(cols)
    state: Union[PricedState, "ColumnarPriced"]
    if recording.priced is not None and machine == recording.machine:
        # the stored state already counts the VIA ops; only their port
        # occupancy depends on the target
        state = recording.priced
        counters = dataclasses.replace(state.counters)
        counters.sspm_busy_cycles = via_side.sspm_busy_cycles
    else:
        with _MEMO_LOCK:
            memo = recording._machine_memo.get(machine)
        if memo is None:
            memo = price_columnar(cols, machine, validate=validate)
            with _MEMO_LOCK:
                # recordings are shared across serve executor threads via
                # the store's load memo; a concurrent pricer may have won
                # the race to populate this machine's entry — keep the
                # first pass so every thread reads the same one
                memo = recording._machine_memo.setdefault(machine, memo)
        state = memo
        counters = dataclasses.replace(state.counters)
        counters.via_instructions += via_side.via_instructions
        counters.vector_uops += via_side.vector_uops
        counters.sspm_accesses += via_side.sspm_accesses
        counters.cam_searches += via_side.cam_searches
        counters.sspm_busy_cycles += via_side.sspm_busy_cycles
    result = build_result(
        name=name,
        machine=machine,
        counters=counters,
        dram_occupancy_cycles=state.dram_occupancy_cycles,
        dram_traffic_bytes=state.dram_traffic_bytes,
        dram_lines=state.dram_lines,
        cache_stats={k: dict(v) for k, v in state.cache_stats.items()},
        via_leakage_mw=via_leak,
        output=recording.output,
    )
    return check_result_invariants(result) if validate else result
