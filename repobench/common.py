"""Helpers shared by the workloads: seeded inputs, quantiles, memory."""

from __future__ import annotations

import dataclasses
import json
import statistics
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np
from repro.matrices.collection import MatrixCollection, small_collection

HERE = Path(__file__).resolve().parent

#: seeds, workload rationale and the per-layer -> end-to-end map
LAYERS = json.loads((HERE / "layers.json").read_text())

#: set-ups per run; ``setup_s`` reports their median
SETUP_REPEATS = 3


def seed_stream(seed: int, label: str) -> np.random.Generator:
    """An independent, reproducible generator per (workload seed, purpose)."""
    salt = int.from_bytes(label.encode(), "little") % (2**32)
    return np.random.default_rng([seed, salt])


def dse_collection(seed: int):
    """The DSE input: a fixed six-matrix shape, seeded structure.

    Domains, dimensions and generator parameters are the draw
    ``small_collection(6, shape_seed, max_n=512)`` makes; the workload
    seed redraws every matrix's generator seed.  With the shape free, DSE
    cost varies 2x from seed to seed (0.45-1.06 s per cold DSE over seeds
    0-9), far more than any change a benchmark run should resolve.
    """
    shape = small_collection(6, LAYERS["dse_shape_seed"], max_n=512).specs
    rng = seed_stream(seed, "dse")
    return MatrixCollection(
        specs=[
            dataclasses.replace(spec, seed=int(rng.integers(1, 2**31 - 1)))
            for spec in shape
        ]
    )


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], pct: int) -> float:
    """``pct``-th percentile, interpolated between the nearest samples."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=100, method="inclusive")[pct - 1])


def peak_rss_mb(pids: List[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over live processes, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}
