"""Top-level simulation entry point.

:func:`simulate` wires a workload, an IQ policy, and a processor
configuration into a pipeline and runs it to completion:

    >>> from repro.sim import simulate
    >>> result = simulate("deepsjeng", "swque", num_instructions=5000)
    >>> result.ipc > 0
    True

``verify=True`` attaches the golden reference model
(:class:`repro.verify.GoldenModel`), cross-checking every committed
instruction against the trace's architectural semantics in lockstep.
A run is deterministic in its inputs, so a failing run reproduces by
running the same inputs again: :func:`repro.verify.replay` builds its
pipeline through :func:`build_pipeline`, the same code ``simulate``
uses, and steps it with per-cycle tracing.

Every result records its provenance: the effective workload seed (even
when the caller passed none), a content hash of the full processor
configuration, the package version, and the streaming commit-stream
digest.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from repro._version import __version__
from repro.config import MEDIUM, ProcessorConfig, config_digest
from repro.core.factory import build_issue_queue
from repro.core.swque import SwitchingQueue
from repro.cpu.pipeline import DEFAULT_WATCHDOG_INTERVAL, Pipeline
from repro.cpu.stats import PipelineStats
from repro.cpu.trace import Trace
from repro.sim.faults import FaultInjector, FaultSpec
from repro.sim.results import SimResult
from repro.telemetry.probes import Telemetry, TelemetryConfig, resolve_telemetry
from repro.verify.oracle import GoldenModel
from repro.workloads.generator import generate_trace
from repro.workloads.profile import WorkloadProfile
from repro.workloads.spec2017 import get_profile

#: Default trace length: long enough for several SWQUE switch intervals.
DEFAULT_INSTRUCTIONS = 30_000

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
    """Package a finished pipeline into a :class:`SimResult`."""
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


def build_pipeline(
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
    telemetry: Union[None, bool, TelemetryConfig, Telemetry] = None,
) -> Tuple[Pipeline, int]:
    """Check a run's inputs and build its pipeline, ready to run.

    Takes :func:`simulate`'s arguments and returns the pipeline with the
    warmup instruction count it resolved; :func:`simulate` runs it and
    :func:`repro.verify.replay` steps it cycle by cycle.
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
    return pipeline, warmup_instructions


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
    telemetry: Union[None, bool, TelemetryConfig, Telemetry] = None,
) -> SimResult:
    """Run one workload under one IQ policy and return the result.

    ``workload`` may be a benchmark name (see
    :data:`repro.workloads.SPEC2017_PROFILES`), a
    :class:`~repro.workloads.profile.WorkloadProfile`, or a pre-built
    :class:`~repro.cpu.trace.Trace` (in which case ``num_instructions``
    and ``seed`` are ignored).

    ``warmup_instructions`` (default: half the trace, at most 20,000) run
    to warm caches and predictors before measurement starts, mirroring the
    paper's 16B-instruction skip.  Pass 0 to measure from a cold machine.

    ``faults`` injects one chaos fault (see :mod:`repro.sim.faults`) —
    used by the robustness tests and the sweep harness's failure drills.

    ``verify`` runs the golden reference model in lockstep;
    ``watchdog_interval`` bounds how many cycles may pass without a
    commit before :class:`~repro.cpu.pipeline.CommitStall` fires (None
    disables the watchdog).

    ``telemetry`` enables the observability subsystem
    (:mod:`repro.telemetry`): pass ``True`` for the default interval
    sampler, a :class:`~repro.telemetry.TelemetryConfig` to tune it, or
    a prepared :class:`~repro.telemetry.Telemetry` sink.  The sink comes
    back on ``result.telemetry`` (and on ``exc.telemetry`` when the run
    fails), ready for :func:`repro.telemetry.export_run`.
    """
    pipeline, warmup_instructions = build_pipeline(
        workload, policy, config, num_instructions, seed, max_cycles,
        warmup_instructions, faults, verify, watchdog_interval, telemetry,
    )
    try:
        pipeline.run(
            max_cycles=max_cycles, warmup_instructions=warmup_instructions
        )
    except Exception as exc:
        if pipeline.telemetry is not None:
            # Whatever was sampled before the failure is itself evidence;
            # close the last interval so it is not silently dropped.
            pipeline.telemetry.finish(pipeline.cycle)
            exc.telemetry = pipeline.telemetry
        raise
    return result_from_pipeline(pipeline)
