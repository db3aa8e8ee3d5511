#!/usr/bin/env python3
"""The repository's benchmark: simulator and service, end to end and by layer.

Run from the repository root::

    python3 perfbench/run.py --workload sim-int --seed 1 --seconds 15 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``sim-int`` / ``sim-mem`` -- ``simulate()`` over pre-generated traces of
  the paper's moderate-ILP INT programs / memory-bound MLP programs, each
  under SWQUE and AGE (see ``simload.py``);
* ``service-single`` / ``service-fleet`` -- two closed-loop
  ``ServiceClient`` threads against the single-node service / a queue
  frontend plus one worker node (see ``serviceload.py``).

``--trace 0`` measures and prints the end-to-end metrics; ``--trace 1``
is a separate run that records spans around every call the benchmark
makes into the program, prints the per-layer metrics, and writes the
spans as Chrome ``trace_event`` JSON (open it in Perfetto) under
``.perfbench/traces/``.  Every run checks the program's outputs; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units
are the ones ``BENCHMARK.json`` lists.  The exit code is 0 only when
every check passed.

The program under test is the ``src/repro`` package next to this
directory, imported from source; without it the benchmark exits 1.
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import sys
import time
import traceback
from pathlib import Path

from common import (LAYERS, ROOT, SOURCE, Checks, Tracer, emit, select,
                    stop_children, write_trace)

OUTPUT = ROOT / ".perfbench"

WORKLOADS = ("sim-int", "sim-mem", "service-single", "service-fleet")


def _import_program() -> None:
    """Import every layer the benchmark drives, from ``src``."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SOURCE}/repro")
    sys.path.insert(0, str(SOURCE))
    for name in LAYERS:
        importlib.import_module(name)
    repro = sys.modules["repro"]
    if Path(repro.__file__).resolve().parent != (SOURCE / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SOURCE}")


def _log(line: str) -> None:
    print(line, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    if args.workload.startswith("sim-"):
        import simload as load
    else:
        import serviceload as load

    traced = bool(args.trace)
    checks = Checks()
    tracer = Tracer(enabled=traced)
    scratch = OUTPUT / f"work-{args.workload}-{args.seed}-{int(time.time() * 1e6)}"
    scratch.mkdir(parents=True)
    try:
        values = load.run(args.workload, args.seed, args.seconds, traced,
                          scratch, checks, tracer, _log)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        left = stop_children()
        checks.expect(not left, f"{len(left)} child processes were still "
                                f"running after the run and were stopped")
        shutil.rmtree(scratch, ignore_errors=True)

    if traced:
        values["checks.error_rate"] = (
            checks.failed / checks.attempted if checks.attempted else 0.0
        )
        values["trace.spans"] = len(tracer.spans)
        path = write_trace(
            tracer,
            OUTPUT / "traces" / f"{args.workload}-seed{args.seed}.trace.json",
            {"workload": args.workload, "seed": args.seed},
        )
        _log(f"  {len(tracer.spans)} spans -> {path.relative_to(ROOT)}")
        selfs = sorted(tracer.self_seconds().items(), key=lambda kv: -kv[1])
        _log("  self time by span: " + ", ".join(
            f"{name} {seconds:.3f}s" for name, seconds in selfs))
    selected = select(values, traced)
    for name, (value, unit) in selected.items():
        _log(f"  {name:<34} {value:>14.6g} {unit}")
    _log(f"  checks: {checks.attempted} attempted, {checks.failed} failed")
    emit(checks, selected)
    return 0 if checks.correct else 1


if __name__ == "__main__":
    sys.exit(main())
