"""Top-level simulation entry point.

:func:`simulate` wires a workload, an IQ policy, and a processor
configuration into a pipeline and runs it to completion:

    >>> from repro.sim import simulate
    >>> result = simulate("deepsjeng", "swque", num_instructions=5000)
    >>> result.ipc > 0
    True

Robustness hooks (all off by default):

* ``verify=True`` attaches the golden reference model
  (:class:`repro.verify.GoldenModel`), cross-checking every committed
  instruction against the trace's architectural semantics in lockstep.
* ``snapshot_dir``/``snapshot_interval`` write periodic checksummed
  state snapshots a run can be resumed from bit-identically.
* ``failure_snapshot_dir`` keeps a rolling pre-crash snapshot in memory
  and writes it only when the run dies, attaching its path to the
  exception (``exc.snapshot_path``) — every failure becomes replayable
  via ``python -m repro replay``.

Every result records its provenance: the effective workload seed (even
when the caller passed none), a content hash of the full processor
configuration, the package version, and the streaming commit-stream
digest.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro._version import __version__
from repro.config import MEDIUM, ProcessorConfig, config_digest
from repro.core.factory import build_issue_queue
from repro.core.swque import SwitchingQueue
from repro.cpu.pipeline import DEFAULT_WATCHDOG_INTERVAL, Pipeline
from repro.cpu.stats import PipelineStats
from repro.cpu.trace import Trace
from repro.sim.faults import FaultInjector, FaultSpec
from repro.sim.results import SimResult
from repro.telemetry.events import EV_SNAPSHOT
from repro.telemetry.probes import Telemetry, TelemetryConfig, resolve_telemetry
from repro.verify.oracle import GoldenModel
from repro.verify.snapshot import (
    SNAPSHOT_SUFFIX,
    snapshot_bytes,
    write_bytes_atomic,
    write_snapshot,
)
from repro.workloads.generator import generate_trace
from repro.workloads.profile import WorkloadProfile
from repro.workloads.spec2017 import get_profile

#: Default trace length: long enough for several SWQUE switch intervals.
DEFAULT_INSTRUCTIONS = 30_000

#: Default cadence of periodic/rolling snapshots, in cycles.
DEFAULT_SNAPSHOT_INTERVAL = 5_000

WorkloadLike = Union[str, WorkloadProfile, Trace]


def _resolve_trace(
    workload: WorkloadLike, num_instructions: int, seed: Optional[int]
) -> Trace:
    if isinstance(workload, Trace):
        return workload
    if isinstance(workload, str):
        workload = get_profile(workload)
    if isinstance(workload, WorkloadProfile):
        return generate_trace(workload, num_instructions, seed=seed)
    raise TypeError(f"cannot interpret workload of type {type(workload).__name__}")


def _effective_seed(workload: WorkloadLike, seed: Optional[int]) -> Optional[int]:
    """The seed the trace generator actually used.

    ``seed=None`` is *not* nondeterministic: the generator falls back to
    the profile's own fixed seed.  Recording the resolved value means a
    result can always be regenerated, whatever the caller passed.  A
    pre-built trace carries its own generator seed (None for hand-built
    traces, where no seed exists).
    """
    if isinstance(workload, Trace):
        return workload.seed
    if seed is not None:
        return seed
    if isinstance(workload, str):
        workload = get_profile(workload)
    return workload.seed


def result_from_pipeline(pipeline: Pipeline) -> SimResult:
    """Package a finished pipeline into a :class:`SimResult`.

    Used by :func:`simulate` and by snapshot resume
    (:func:`repro.verify.snapshot.resume_to_result`), so an interrupted
    run continues into the *same* result shape, provenance included.
    """
    provenance = pipeline.run_provenance or {}
    stats = pipeline.stats
    mode_fractions = {}
    mode_switches = 0
    if isinstance(pipeline.iq, SwitchingQueue):
        mode_fractions = pipeline.iq.mode_cycle_fractions()
        mode_switches = stats.mode_switches
    return SimResult(
        workload=provenance.get("workload") or (pipeline.trace.name or "custom"),
        policy=provenance.get("policy") or pipeline.iq.name,
        config=provenance.get("config") or pipeline.config.name,
        num_instructions=len(pipeline.trace),
        stats=stats,
        mode_fractions=mode_fractions,
        mode_switches=mode_switches,
        seed=provenance.get("seed"),
        config_hash=config_digest(pipeline.config),
        version=__version__,
        commit_digest=pipeline.commit_digest.hexdigest(),
        telemetry=getattr(pipeline, "telemetry", None),
    )


def simulate(
    workload: WorkloadLike,
    policy: str = "age",
    config: ProcessorConfig = MEDIUM,
    num_instructions: int = DEFAULT_INSTRUCTIONS,
    seed: Optional[int] = None,
    max_cycles: Optional[int] = None,
    warmup_instructions: Optional[int] = None,
    faults: Optional[Union[FaultInjector, FaultSpec]] = None,
    verify: bool = False,
    watchdog_interval: Optional[int] = DEFAULT_WATCHDOG_INTERVAL,
    snapshot_interval: Optional[int] = None,
    snapshot_dir: Optional[Union[str, Path]] = None,
    failure_snapshot_dir: Optional[Union[str, Path]] = None,
    telemetry: Union[None, bool, TelemetryConfig, Telemetry] = None,
) -> SimResult:
    """Run one workload under one IQ policy and return the result.

    ``workload`` may be a benchmark name (see
    :data:`repro.workloads.SPEC2017_PROFILES`), a
    :class:`~repro.workloads.profile.WorkloadProfile`, or a pre-built
    :class:`~repro.cpu.trace.Trace` (in which case ``num_instructions``
    and ``seed`` are ignored).

    ``warmup_instructions`` (default: a quarter of the trace) are executed
    to warm caches and predictors before measurement starts, mirroring the
    paper's 16B-instruction skip.  Pass 0 to measure from a cold machine.

    ``faults`` injects one chaos fault (see :mod:`repro.sim.faults`) —
    used by the robustness tests and the sweep harness's failure drills.

    ``verify`` runs the golden reference model in lockstep;
    ``watchdog_interval`` bounds how many cycles may pass without a
    commit before :class:`~repro.cpu.pipeline.CommitStall` fires (None
    disables the watchdog); ``snapshot_dir`` writes a snapshot every
    ``snapshot_interval`` cycles; ``failure_snapshot_dir`` writes a
    pre-crash snapshot only when the run fails (see module docstring).

    ``telemetry`` enables the observability subsystem
    (:mod:`repro.telemetry`): pass ``True`` for the default interval
    sampler, a :class:`~repro.telemetry.TelemetryConfig` to tune it, or
    a prepared :class:`~repro.telemetry.Telemetry` sink.  The sink comes
    back on ``result.telemetry`` (and on ``exc.telemetry`` when the run
    fails), ready for :func:`repro.telemetry.export_run`.
    """
    if not isinstance(workload, Trace) and num_instructions <= 0:
        raise ValueError(
            f"num_instructions must be positive, got {num_instructions}; "
            "the trace generator needs at least one instruction to render"
        )
    if max_cycles is not None and max_cycles <= 0:
        raise ValueError(
            f"max_cycles must be positive (or None for the default "
            f"divergence limit), got {max_cycles}"
        )
    if warmup_instructions is not None and warmup_instructions < 0:
        raise ValueError(
            f"warmup_instructions must be >= 0, got {warmup_instructions}"
        )
    if snapshot_interval is not None and snapshot_interval <= 0:
        raise ValueError(
            f"snapshot_interval must be positive, got {snapshot_interval}"
        )
    if isinstance(faults, FaultSpec):
        faults = FaultInjector(faults)
    trace = _resolve_trace(workload, num_instructions, seed)
    if warmup_instructions is None:
        # Cover at least two SWQUE switch intervals so cold-cache MPKI and
        # the initial mode shakeout stay out of the measurement.
        warmup_instructions = min(20_000, len(trace) // 2)
    stats = PipelineStats()
    iq = build_issue_queue(policy, config, stats=stats, trace=trace)
    pipeline = Pipeline(
        trace,
        config,
        iq,
        stats=stats,
        faults=faults,
        oracle=GoldenModel(trace) if verify else None,
        watchdog_interval=watchdog_interval,
    )
    pipeline.run_provenance = {
        "workload": trace.name or "custom",
        "policy": policy,
        "config": config.name,
        "seed": _effective_seed(workload, seed),
        "num_instructions": len(trace),
    }
    tel = resolve_telemetry(telemetry)
    if tel is not None:
        tel.attach(pipeline)

    periodic_dir = Path(snapshot_dir) if snapshot_dir is not None else None
    failure_dir = (
        Path(failure_snapshot_dir) if failure_snapshot_dir is not None else None
    )
    cell = f"{pipeline.run_provenance['workload']}-{policy}-{config.name}"
    rolling: dict = {}
    if periodic_dir is not None or failure_dir is not None:
        pipeline.snapshot_interval = snapshot_interval or DEFAULT_SNAPSHOT_INTERVAL

        def sink(p: Pipeline) -> None:
            data = snapshot_bytes(p)
            path: Optional[Path] = None
            if periodic_dir is not None:
                path = write_bytes_atomic(
                    data, periodic_dir / f"{cell}-c{p.cycle}{SNAPSHOT_SUFFIX}"
                )
            if failure_dir is not None:
                rolling["bytes"] = data
                rolling["cycle"] = p.cycle
            if p.telemetry is not None:
                p.telemetry.event(
                    EV_SNAPSHOT,
                    category="verify",
                    kind="periodic" if path is not None else "rolling",
                    bytes=len(data),
                    path=str(path) if path is not None else None,
                )

        pipeline.snapshot_sink = sink

    try:
        pipeline.run(
            max_cycles=max_cycles, warmup_instructions=warmup_instructions
        )
    except Exception as exc:
        # Any failure — structured diagnostics (InvariantViolation,
        # ArchitecturalMismatch, SimulationDiverged) and raw crashes
        # alike — leaves its pre-crash state behind for replay.
        if failure_dir is not None and "bytes" in rolling:
            path = write_bytes_atomic(
                rolling["bytes"],
                failure_dir
                / f"{cell}-c{rolling['cycle']}-failed{SNAPSHOT_SUFFIX}",
            )
            exc.snapshot_path = str(path)
        if pipeline.telemetry is not None:
            # Whatever was sampled before the failure is itself evidence;
            # close the last interval so it is not silently dropped.
            pipeline.telemetry.finish(pipeline.cycle)
            exc.telemetry = pipeline.telemetry
        raise
    if periodic_dir is not None:
        # Final state too, so `resume_to_result` on the last periodic
        # snapshot and the uninterrupted run can be compared directly.
        write_snapshot(
            pipeline, periodic_dir / f"{cell}-c{pipeline.cycle}{SNAPSHOT_SUFFIX}"
        )
    return result_from_pipeline(pipeline)
