"""Telemetry: interval time series, event tracing, and host profiling.

The observability layer of the reproduction.  Four pieces:

* :mod:`repro.telemetry.probes` — the probe registry the pipeline, SWQUE
  controller, IQ policies, and memory hierarchy publish into: interval
  samples (IPC / MPKI / FLPI / occupancy histogram / stall breakdown /
  mode state) with near-zero cost when disabled.
* :mod:`repro.telemetry.events` — discrete, structured events (mode
  switches with their triggering metrics, flushes, near-stalls, fault
  injections).
* :mod:`repro.telemetry.export` — JSONL and Chrome/Perfetto
  ``trace_event`` exporters plus the trace schema validator.
* :mod:`repro.telemetry.profile` — simulator-throughput measurement
  (cycles/sec, per-stage wall-time shares, ``BENCH_swque.json``).

Quickstart::

    from repro import simulate
    from repro.telemetry import Telemetry, TelemetryConfig, export_run

    tel = Telemetry(TelemetryConfig(interval=2_000))
    result = simulate("xz", "swque", telemetry=tel)
    export_run(tel, "telemetry/", "xz-swque")   # JSONL + Perfetto trace
"""

from repro.telemetry.events import (
    EV_FAULT,
    EV_IQ_FLUSH,
    EV_MODE_SWITCH,
    EV_MODE_SWITCH_DECIDED,
    EV_NEAR_STALL,
    EV_WARMUP_RESET,
    TelemetryEvent,
)
from repro.telemetry.metrics import CounterSet
from repro.telemetry.export import (
    chrome_trace,
    export_run,
    read_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_events_jsonl,
    write_interval_jsonl,
)
from repro.telemetry.probes import (
    TELEMETRY_SCHEMA_VERSION,
    IntervalSample,
    Telemetry,
    TelemetryConfig,
    resolve_telemetry,
)
from repro.telemetry.profile import (
    StageProfiler,
    ThroughputResult,
    bench_payload,
    host_info,
    measure_throughput,
)

__all__ = [
    "EV_FAULT",
    "EV_IQ_FLUSH",
    "EV_MODE_SWITCH",
    "EV_MODE_SWITCH_DECIDED",
    "EV_NEAR_STALL",
    "EV_WARMUP_RESET",
    "CounterSet",
    "IntervalSample",
    "StageProfiler",
    "TELEMETRY_SCHEMA_VERSION",
    "Telemetry",
    "TelemetryConfig",
    "TelemetryEvent",
    "ThroughputResult",
    "bench_payload",
    "chrome_trace",
    "export_run",
    "host_info",
    "measure_throughput",
    "read_jsonl",
    "resolve_telemetry",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_events_jsonl",
    "write_interval_jsonl",
]
