"""Host-side profiling: how fast does the *simulator itself* run?

The ROADMAP's "fast as the hardware allows" goal needs a measured
baseline before any hot-path PR can be judged.  This layer provides:

* :class:`StageProfiler` — sampled per-stage wall-time attribution.  The
  pipeline times one cycle out of every ``sample_every`` through the
  profiled stage path (complete/commit/issue/dispatch/tick/guards), so
  the share estimates cost ~1% overhead instead of 6 timer calls per
  cycle.
* :func:`measure_throughput` — run one simulation under the wall clock
  and report cycles/sec and instructions/sec, optionally with telemetry
  attached (to measure its overhead) and stage shares.
* :func:`bench_payload` — assemble the ``BENCH_swque.json`` document the
  throughput benchmark writes at the repo root.
"""

from __future__ import annotations

import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.config import MEDIUM, ProcessorConfig
from repro.telemetry.probes import TELEMETRY_SCHEMA_VERSION, Telemetry

#: Stage labels the pipeline's profiled step path reports.
PIPELINE_STAGES = (
    "complete",
    "commit",
    "issue",
    "dispatch",
    "iq_tick",
    "guards",
)


class StageProfiler:
    """Sampled wall-time attribution across pipeline stages.

    ``sample_every`` is prime by default so sampling never phase-locks
    with the telemetry interval or periodic microarchitectural behaviour
    (a power-of-two stride would always observe the same cycle flavour).
    """

    def __init__(self, sample_every: int = 97) -> None:
        if sample_every <= 0:
            raise ValueError(f"sample_every must be positive, got {sample_every}")
        self.sample_every = sample_every
        self.stage_seconds: Dict[str, float] = {name: 0.0 for name in PIPELINE_STAGES}
        self.sampled_cycles = 0

    def record(self, stage: str, seconds: float) -> None:
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds

    def shares(self) -> Dict[str, float]:
        """Fraction of sampled stage time spent in each stage."""
        total = sum(self.stage_seconds.values())
        if total <= 0.0:
            return {name: 0.0 for name in self.stage_seconds}
        return {name: seconds / total for name, seconds in self.stage_seconds.items()}


@dataclass
class ThroughputResult:
    """One wall-clock throughput measurement of the simulator."""

    workload: str
    policy: str
    config: str
    num_instructions: int
    cycles: int
    seconds: float
    cycles_per_sec: float
    instructions_per_sec: float
    ipc: float
    telemetry_enabled: bool
    #: Per-stage wall-time shares (empty unless stage profiling was on).
    stage_shares: Dict[str, float] = field(default_factory=dict)

    @property
    def cell_key(self) -> str:
        """The (config, policy) trajectory-cell identity.

        The ``/reference`` suffix names the simulator's one engine; it
        keeps the keys of earlier ``BENCH_swque.json`` documents, and so
        their regression gates and history, comparable.
        """
        return f"{self.config}/{self.policy}/reference"

    def as_dict(self) -> dict:
        payload = {
            "workload": self.workload,
            "policy": self.policy,
            "config": self.config,
            "num_instructions": self.num_instructions,
            "cycles": self.cycles,
            "seconds": round(self.seconds, 4),
            "cycles_per_sec": round(self.cycles_per_sec, 1),
            "instructions_per_sec": round(self.instructions_per_sec, 1),
            "ipc": round(self.ipc, 4),
            "telemetry_enabled": self.telemetry_enabled,
        }
        if self.stage_shares:
            # Only emitted when stage profiling actually ran: an empty
            # {} in sub-records used to masquerade as a measurement.
            payload["stage_shares"] = {
                name: round(share, 4) for name, share in self.stage_shares.items()
            }
        return payload


def measure_throughput(
    workload: str = "exchange2",
    policy: str = "swque",
    config: ProcessorConfig = MEDIUM,
    num_instructions: int = 30_000,
    seed: Optional[int] = None,
    telemetry: Optional[Telemetry] = None,
    profile_stages: bool = False,
    repeats: int = 1,
) -> ThroughputResult:
    """Time ``repeats`` full simulations; report the fastest.

    Best-of-N because host-side noise (scheduler, GC, turbo) only ever
    slows a run down; the fastest repeat is the closest estimate of what
    the simulator code itself costs.  Warmup is disabled so the stats
    cycle count equals the wall-clock-covered cycle count exactly.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    from repro.core.factory import build_issue_queue
    from repro.cpu.pipeline import Pipeline
    from repro.cpu.stats import PipelineStats
    from repro.workloads.generator import generate_trace
    from repro.workloads.spec2017 import get_profile

    trace = generate_trace(get_profile(workload), num_instructions, seed=seed)
    best: Optional[ThroughputResult] = None
    for _ in range(repeats):
        stats = PipelineStats()
        iq = build_issue_queue(policy, config, stats=stats, trace=trace)
        pipeline = Pipeline(trace, config, iq, stats=stats)
        profiler = StageProfiler() if profile_stages else None
        pipeline.profiler = profiler
        run_telemetry = telemetry
        if run_telemetry is not None:
            # A fresh run needs fresh sample state; clone the config.
            run_telemetry = Telemetry(telemetry.config, enabled=telemetry.enabled)
            run_telemetry.attach(pipeline)
        started = time.perf_counter()
        pipeline.run(warmup_instructions=0)
        seconds = time.perf_counter() - started
        result = ThroughputResult(
            workload=workload,
            policy=policy,
            config=config.name,
            num_instructions=num_instructions,
            cycles=stats.cycles,
            seconds=seconds,
            cycles_per_sec=stats.cycles / seconds if seconds > 0 else 0.0,
            instructions_per_sec=stats.committed / seconds if seconds > 0 else 0.0,
            ipc=stats.ipc,
            telemetry_enabled=run_telemetry is not None and run_telemetry.enabled,
            stage_shares=profiler.shares() if profiler is not None else {},
        )
        if best is None or result.cycles_per_sec > best.cycles_per_sec:
            best = result
    return best


def host_info() -> dict:
    """The machine identity a throughput number is only valid on."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
    }


#: Trajectory history entries kept in ``BENCH_swque.json`` (append-style;
#: the oldest runs age out so the artifact stays reviewable).
HISTORY_LIMIT = 50


def bench_payload(
    baseline: ThroughputResult,
    with_telemetry: Optional[ThroughputResult] = None,
    smoke: bool = False,
    stage_shares: Optional[Dict[str, float]] = None,
    cells: Optional[Dict[str, ThroughputResult]] = None,
    history: Optional[list] = None,
) -> dict:
    """Assemble the ``BENCH_swque.json`` document (repo-root artifact).

    ``baseline`` must be an *unperturbed* run (no telemetry, no stage
    profiler); per-stage shares come from their own profiled run via
    ``stage_shares``, because even the sampled profiler's per-cycle
    modulo check costs enough to bias the headline rate.

    ``cells`` turns the document into a multi-config trajectory: a map of
    ``config/policy/engine`` -> measurement, each its own regression-gate
    cell.  ``history`` is the previously recorded trajectory (a list of
    per-run summaries); this run is appended, bounded by
    :data:`HISTORY_LIMIT`.
    """
    recorded_at = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    payload = {
        "benchmark": "simulator-throughput",
        "telemetry_schema_version": TELEMETRY_SCHEMA_VERSION,
        "smoke": smoke,
        "host": host_info(),
        "recorded_at": recorded_at,
        "cycles_per_sec": round(baseline.cycles_per_sec, 1),
        "telemetry_off": baseline.as_dict(),
    }
    if with_telemetry is not None:
        payload["telemetry_on"] = with_telemetry.as_dict()
        if baseline.cycles_per_sec > 0:
            payload["telemetry_overhead"] = round(
                1.0 - with_telemetry.cycles_per_sec / baseline.cycles_per_sec, 4
            )
    if stage_shares is not None:
        payload["stage_shares"] = {
            name: round(share, 4) for name, share in stage_shares.items()
        }
    if cells is not None:
        payload["cells"] = {
            key: result.as_dict() for key, result in sorted(cells.items())
        }
        entry = {
            "recorded_at": recorded_at,
            "smoke": smoke,
            "cells": {
                key: round(result.cycles_per_sec, 1)
                for key, result in sorted(cells.items())
            },
        }
        payload["history"] = (list(history) if history else [])[
            -(HISTORY_LIMIT - 1):
        ] + [entry]
    return payload
