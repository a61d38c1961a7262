"""Repository benchmark: Fig. 9 DSE (cold, warm, parallel) and a serve mix.

Run from the root of a checkout::

    python3 repobench/run.py --workload dse_cold --seed 2021 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs span
wrappers around each layer's public entry points (from this directory;
nothing under ``src/`` changes) and prints the per-layer metrics that
``repobench/layers.json`` maps onto end-to-end metrics and workloads.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every op is checked against
an oracle computed outside the timed and set-up windows.  The program
sees only inputs generated from ``--seed``, never the seed itself.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("dse_cold", "dse_warm", "dse_parallel", "serve_mix")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"imported repro from {repro.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    # every file the run writes (stores, journals, spilled spans, the
    # server's directories) lives inside the checkout and is removed at exit
    runs_root = ROOT / ".bench_run"
    runs_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs_root))
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    try:
        from common import LAYERS

        if args.workload == "serve_mix":
            import serve_mix

            result = serve_mix.run(args.seed, args.seconds, bool(args.trace), work, SRC)
        else:
            import dse

            result = dse.run(args.workload, args.seed, args.seconds, bool(args.trace), work, T0)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        names = LAYERS["per_layer"]
        unknown = set(result["per_layer"]) - set(names)
        if unknown:
            raise RuntimeError(f"per-layer metrics missing from layers.json: {sorted(unknown)}")
        metrics = {
            name: {"value": float(result["per_layer"].get(name, 0.0)), "unit": spec["unit"]}
            for name, spec in names.items()
        }
    else:
        metrics = result["end_to_end"]
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
