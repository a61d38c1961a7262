"""Scalar reference pricing: the independent oracle for the columnar engine.

Production prices every op stream through the columnar kernels
(:mod:`repro.sim.columnar`), on the record path and on replay.  This
module keeps the reference those kernels must reproduce bit for bit —
:meth:`~repro.sim.ops.Op.apply` walked one op at a time on a live core —
so the differential and property suites (and
``benchmarks/bench_columnar.py``) can compare production against it.
Nothing under ``src/`` imports it.

* :func:`via_totals` — the VIA side of a stream, accumulated op by op;
* :func:`replay_scalar` — :func:`repro.sim.backends.replay_recording`
  recomputed the scalar way: the record run's stored priced state on the
  record machine, a per-op memory pass through a fresh
  :class:`~repro.sim.core.Core` on any other machine;
* :func:`execute_ops` — direct execution of a bare op stream on a live
  core with a VIA device attached, for synthetic streams no kernel
  narrates;
* :class:`PerOpDirect` / :class:`PerOpRecorder` — batch-incapable
  backends, so a core built with one narrates op by op through
  ``Op.apply`` instead of buffering columnar flushes;
  :func:`per_op_narration` switches the stock backends the same way for
  whole-pipeline comparisons (``run_dse``, sweep units).
"""

from __future__ import annotations

import contextlib
import dataclasses
import weakref
from typing import Iterator, List, Optional, cast

from repro.errors import ReplayMismatchError, SimulationError
from repro.sim import calibration as cal
from repro.sim.backends import (
    DirectBackend,
    InvariantBackend,
    RecorderBackend,
    check_result_invariants,
)
from repro.sim.config import MachineConfig
from repro.sim.core import Core, build_result
from repro.sim.ops import Op, Recording, ViaOpRecord, stream_shape_key
from repro.sim.stats import KernelResult, OpCounters
from repro.via import area
from repro.via.config import ViaConfig
from repro.via.engine import ViaDevice


class PerOpDirect(DirectBackend):
    """Price each narrated op through ``Op.apply``; retain nothing."""

    batch_capable = False


class PerOpRecorder(RecorderBackend):
    """Record and price each narrated op through ``Op.apply``."""

    batch_capable = False


@contextlib.contextmanager
def per_op_narration() -> Iterator[None]:
    """Make every core built inside the block narrate op by op.

    Flips ``batch_capable`` off on the stock direct and recorder backends
    (an :class:`~repro.sim.backends.InvariantBackend` copies it from its
    inner backend), so a whole pipeline — kernels, sweep units, the DSE —
    prices through ``Op.apply`` without any production switch.
    """
    saved = [(cls, cls.batch_capable) for cls in (DirectBackend, RecorderBackend)]
    for cls, _ in saved:
        cls.batch_capable = False
    try:
        yield
    finally:
        for cls, value in saved:
            cls.batch_capable = value


#: per-op records of each recording, materialized once (replays reuse them)
_OPS: "weakref.WeakKeyDictionary[Recording, List[Op]]" = weakref.WeakKeyDictionary()


def stream_ops(recording: Recording) -> List[Op]:
    """The recording's stream as op records, materialized once."""
    ops = _OPS.get(recording)
    if ops is None:
        ops = _OPS[recording] = recording.columnar().to_ops()
    return ops


def via_totals(ops: List[Op], via_config: Optional[ViaConfig]) -> OpCounters:
    """Counter contributions of a stream's VIA ops under a port configuration.

    Accumulates exactly what each :class:`ViaOpRecord` would add to a live
    core's counters, in stream order, starting from zero — so the sums are
    bit-identical to direct execution's (``sspm_busy_cycles`` receives
    contributions from VIA ops only, and integer counters commute exactly).
    """
    totals = OpCounters()
    for op in ops:
        if not isinstance(op, ViaOpRecord):
            continue
        port_cycles = op.port_cycles
        if port_cycles is None:
            if via_config is None:
                raise SimulationError(
                    "cannot price a VIA op without a VIA configuration"
                )
            from repro.via.fivu import FivuTiming

            port_cycles = FivuTiming(
                sspm_elements=op.sspm_elements,
                cam_searches=op.cam_searches,
                # __post_init__ guarantees port_passes when port_cycles is None
                port_passes=cast(int, op.port_passes),
            ).port_cycles(via_config)
        totals.via_instructions += op.count
        totals.vector_uops += op.count
        totals.sspm_accesses += op.sspm_elements * op.count
        totals.cam_searches += op.cam_searches * op.count
        totals.sspm_busy_cycles += (
            float(port_cycles) + cal.COMMIT_ISSUE_OVERHEAD
        ) * op.count
    return totals


def replay_scalar(
    recording: Recording,
    *,
    machine: Optional[MachineConfig] = None,
    via_config: Optional[ViaConfig] = None,
    validate: bool = False,
    ops: Optional[List[Op]] = None,
) -> KernelResult:
    """Re-price a recording by walking its ops one at a time.

    Same contract as :func:`repro.sim.backends.replay_recording`: a
    same-machine replay re-prices only the VIA ops on top of the stored
    :class:`~repro.sim.ops.PricedState`; any other machine replays the
    non-VIA ops through ``Op.apply`` on a fresh core (per-op checked by an
    :class:`~repro.sim.backends.InvariantBackend` under ``validate``) and
    adds the VIA totals on top.  ``ops`` overrides the stream with op
    records that may not survive a trip through columns (deliberately
    corrupted ones).
    """
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
        name = name.replace(recording.via_config.name, via_config.name)
    via_leak = area.leakage_mw(via_config) if via_config is not None else 0.0
    if ops is None:
        ops = stream_ops(recording)
    via_side = via_totals(ops, via_config)
    if recording.priced is not None and machine == recording.machine:
        p = recording.priced
        counters = dataclasses.replace(p.counters)
        counters.sspm_busy_cycles = via_side.sspm_busy_cycles
        result = build_result(
            name=name,
            machine=machine,
            counters=counters,
            dram_occupancy_cycles=p.dram_occupancy_cycles,
            dram_traffic_bytes=p.dram_traffic_bytes,
            dram_lines=p.dram_lines,
            cache_stats={k: dict(v) for k, v in p.cache_stats.items()},
            via_leakage_mw=via_leak,
            output=recording.output,
        )
        return check_result_invariants(result) if validate else result
    backend = InvariantBackend(PerOpDirect()) if validate else PerOpDirect()
    core = Core(machine, backend=backend)
    for op in ops:
        if not isinstance(op, ViaOpRecord):
            backend.handle(op, core)
    counters = dataclasses.replace(core.counters)
    counters.via_instructions += via_side.via_instructions
    counters.vector_uops += via_side.vector_uops
    counters.sspm_accesses += via_side.sspm_accesses
    counters.cam_searches += via_side.cam_searches
    counters.sspm_busy_cycles += via_side.sspm_busy_cycles
    result = build_result(
        name=name,
        machine=machine,
        counters=counters,
        dram_occupancy_cycles=core.memory.dram.occupancy_cycles(),
        dram_traffic_bytes=core.memory.dram.traffic_bytes,
        dram_lines=core.memory.dram.stats.lines,
        cache_stats=core.memory.level_stats(),
        via_leakage_mw=via_leak,
        output=recording.output,
    )
    return check_result_invariants(result) if validate else result


def execute_ops(
    ops: List[Op],
    name: str,
    *,
    machine: MachineConfig,
    via_config: Optional[ViaConfig],
    validate: bool = False,
) -> KernelResult:
    """Run a bare op stream on a live core, op by op, and finalize it.

    The direct-execution side for synthetic streams: one core with the VIA
    device attached prices memory and VIA ops together, in stream order —
    no replay split into a memory pass plus VIA totals.
    """
    via = ViaDevice(via_config) if via_config is not None else None
    backend = InvariantBackend(PerOpDirect()) if validate else PerOpDirect()
    core = Core(machine, via=via, backend=backend)
    for op in ops:
        core._emit(op)
    return core.finalize(name)
