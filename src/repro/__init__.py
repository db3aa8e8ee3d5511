"""SWQUE reproduction: a mode-switching issue queue with a priority-correcting
circular queue (Ando, MICRO-52 2019).

Quickstart::

    from repro import simulate
    age = simulate("deepsjeng", "age")
    swq = simulate("deepsjeng", "swque")
    print(f"SWQUE speedup: {swq.ipc / age.ipc - 1:+.1%}")

Public surface:

* :func:`repro.sim.simulate` -- run one workload under one IQ policy.
* :mod:`repro.sim.harness` -- fault-tolerant sweeps: isolated workers,
  timeouts, retry with backoff, checkpoint/resume.
* :mod:`repro.core` -- the IQ organizations (SHIFT/RAND/AGE/CIRC/CIRC-PC/SWQUE).
* :mod:`repro.workloads` -- the SPEC2017-like synthetic workload suite.
* :mod:`repro.power` -- energy / area / delay models for the IQ circuits.
* :mod:`repro.sim.experiments` -- one function per paper figure and table.
* :mod:`repro.verify` -- golden-model lockstep validation, checksummed
  state snapshots with bit-identical resume, and failure replay.
* :mod:`repro.telemetry` -- interval time series, structured event
  tracing with Chrome/Perfetto export, and simulator-throughput
  profiling.
* :mod:`repro.service` -- simulation-as-a-service: content-addressed
  result cache and admission control in front of a durable job queue
  with single-flight dedup, run by supervised worker nodes, and the
  ``python -m repro serve`` HTTP API.
"""

from repro._version import __version__
from repro.config import LARGE, MEDIUM, ProcessorConfig, SwqueParams
from repro.sim.results import FailedResult, SimResult, geomean, speedup
from repro.sim.simulator import simulate
from repro.sim.harness import SweepJob, SweepReport, make_grid, run_sweep
from repro.telemetry import Telemetry, TelemetryConfig, export_run
from repro.verify import (
    ArchitecturalMismatch,
    GoldenModel,
    Snapshot,
    load_snapshot,
    replay,
    write_snapshot,
)

__all__ = [
    "ArchitecturalMismatch",
    "GoldenModel",
    "Snapshot",
    "load_snapshot",
    "replay",
    "write_snapshot",
    "LARGE",
    "MEDIUM",
    "ProcessorConfig",
    "SwqueParams",
    "FailedResult",
    "SimResult",
    "SweepJob",
    "SweepReport",
    "Telemetry",
    "TelemetryConfig",
    "export_run",
    "geomean",
    "speedup",
    "simulate",
    "make_grid",
    "run_sweep",
    "__version__",
]
