"""Rerun a job with per-cycle event tracing.

The simulator is deterministic in its inputs -- workload, policy,
config, budgets, seed and fault -- so a failure reproduces by running
the same inputs again.  ``replay`` takes a job spec (the
:func:`~repro.sim.harness.job_spec` form a failed sweep cell carries on
``FailedResult.job``), builds its pipeline through the code
:func:`~repro.sim.simulator.simulate` uses, always with the golden model
attached, and steps it from cycle 0: silently up to ``from_cycle``, then
with one trace line per cycle (commits/issues/dispatches that cycle, ROB
and IQ occupancy, the ready-set size, and the IQ mode).  The recorded
failure reproduces at exactly the same cycle -- a failure report becomes
a debuggable run instead of a lost traceback.  Exposed as
``python -m repro replay``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, TYPE_CHECKING, Union

from repro.telemetry.probes import Telemetry, TelemetryConfig
from repro.verify.oracle import ArchitecturalMismatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.harness import SweepJob

#: Replay windows are short and under the microscope: sample at full
#: resolution by default (vs the normal 10k-cycle interval).
DEFAULT_REPLAY_TELEMETRY_INTERVAL = 500

#: Counters whose per-cycle change a trace line reports.
_WATCH = (
    "committed", "issued", "dispatched", "llc_misses",
    "branch_mispredicts", "mode_switches", "squashed_instructions",
)


@dataclass
class ReplayOutcome:
    """What happened when the job was rerun."""

    #: ``"completed"`` (trace retired), ``"failed"`` (a guard/oracle/
    #: watchdog diagnostic fired), or ``"stopped"`` (cycle budget hit).
    status: str
    #: Cycles run in the traced window, which starts at ``from_cycle``.
    cycles_run: int
    final_cycle: int
    committed: int
    commit_digest: str
    error: Optional[BaseException] = None
    #: The rerun's telemetry sink (full-resolution by default); export
    #: it with :func:`repro.telemetry.export_run`.
    telemetry: Optional[Telemetry] = None

    @property
    def ok(self) -> bool:
        return self.status != "failed"

    def summary(self) -> str:
        line = (
            f"replay {self.status} after {self.cycles_run} cycles "
            f"(at cycle {self.final_cycle}, {self.committed} committed, "
            f"digest={self.commit_digest})"
        )
        if self.error is not None:
            line += f"\n{type(self.error).__name__}: {self.error}"
        return line


def _trace_line(pipeline, before: dict) -> str:
    stats = pipeline.stats
    deltas = []
    for label, key in (("c", "committed"), ("i", "issued"), ("d", "dispatched")):
        delta = getattr(stats, key) - before[key]
        deltas.append(f"+{label}{delta}" if delta else f" {label}-")
    events = []
    if stats.llc_misses > before["llc_misses"]:
        events.append(f"llc-miss x{stats.llc_misses - before['llc_misses']}")
    if stats.branch_mispredicts > before["branch_mispredicts"]:
        events.append("mispredict")
    if stats.mode_switches > before["mode_switches"]:
        events.append("mode-switch")
    if stats.squashed_instructions > before["squashed_instructions"]:
        events.append(
            f"squash x{stats.squashed_instructions - before['squashed_instructions']}"
        )
    head = pipeline.rob.head()
    head_desc = f"head=#{head.seq}" if head is not None else "rob-empty"
    mode = getattr(pipeline.iq, "mode", None)
    return (
        f"cyc {pipeline.cycle - 1:>8} | {' '.join(deltas)} | "
        f"rob {len(pipeline.rob):>3} iq {pipeline.iq.occupancy:>3} "
        f"ready {len(pipeline.iq.ready):>2} | "
        f"{head_desc}"
        + (f" | mode={mode}" if mode is not None else "")
        + (" | " + ", ".join(events) if events else "")
    )


def replay(
    job: Union["SweepJob", dict],
    cycles: Optional[int] = None,
    from_cycle: int = 0,
    trace: bool = True,
    out: Callable[[str], None] = print,
    telemetry: bool = True,
    telemetry_interval: int = DEFAULT_REPLAY_TELEMETRY_INTERVAL,
) -> ReplayOutcome:
    """Rerun ``job`` from cycle 0, tracing each cycle from ``from_cycle``.

    ``job`` is a :class:`~repro.sim.harness.SweepJob` or its spec dict
    (:func:`~repro.sim.harness.job_spec`; a malformed spec raises
    ``ValueError``/``KeyError`` naming the field).  The loop applies the
    divergence limit and the warmup counter reset exactly as
    :meth:`Pipeline.run <repro.cpu.pipeline.Pipeline.run>` does, so a
    healthy job ends at the cycle and commit digest :func:`simulate
    <repro.sim.simulator.simulate>` gives it.  ``cycles`` stops the run
    after that many cycles of the traced window (status ``"stopped"``);
    ``None`` runs until the trace retires, a diagnostic fires, or the
    divergence limit is hit.  Every failure -- the structured
    diagnostics (:class:`~repro.core.base.InvariantViolation`,
    :class:`~repro.verify.oracle.ArchitecturalMismatch`, the
    divergence/watchdog family) and raw crashes alike -- is caught and
    returned in the outcome rather than re-raised.

    ``telemetry`` (default on) samples the run at ``telemetry_interval``
    cycles; the sink lands on ``outcome.telemetry``.
    """
    # Imported here: the simulator imports this package (import cycle).
    from repro.core.base import InvariantViolation
    from repro.cpu.pipeline import SimulationDiverged
    from repro.sim.harness import job_from_spec
    from repro.sim.simulator import build_pipeline

    if cycles is not None and cycles <= 0:
        raise ValueError(f"replay cycle budget must be positive, got {cycles}")
    if from_cycle < 0:
        raise ValueError(f"replay from_cycle must be >= 0, got {from_cycle}")
    if isinstance(job, dict):
        job = job_from_spec(job)
    pipeline, warmup = build_pipeline(
        job.workload, job.policy, job.config, job.num_instructions,
        job.seed, job.max_cycles, job.warmup_instructions, job.fault,
        verify=True,
        telemetry=TelemetryConfig(interval=telemetry_interval) if telemetry else None,
    )
    pipeline.start(job.max_cycles, warmup)
    out(
        f"replay {job.key}"
        + (f" fault={job.fault}" if job.fault is not None else "")
        + f", tracing from cycle {from_cycle}"
    )
    stats = pipeline.stats
    status = "completed"
    error: Optional[BaseException] = None
    try:
        while pipeline.rob or pipeline.frontend.has_more():
            cycle = pipeline.cycle
            if cycles is not None and cycle - from_cycle >= cycles:
                status = "stopped"
                break
            if cycle > pipeline.run_limit:
                raise SimulationDiverged(
                    f"no convergence after {cycle} cycles "
                    f"(committed {stats.committed}/{len(pipeline.trace)})",
                    partial_stats=stats,
                    cycles=cycle,
                )
            if not trace or cycle < from_cycle:
                pipeline.step()
                pipeline.end_warmup()
                continue
            before = {key: getattr(stats, key) for key in _WATCH}
            pipeline.step()
            line = _trace_line(pipeline, before)
            if pipeline.end_warmup():
                line += " | warmup done, stats reset"
            out(line)
        else:
            pipeline.oracle.check_final(stats.committed)
    except Exception as exc:
        # Catch every failure, not only the structured diagnostics: the
        # job being replayed usually *exists because* the run died, and
        # the point is to observe that death, not re-crash.
        if isinstance(exc, (InvariantViolation, ArchitecturalMismatch)) and (
            exc.cycle is None or exc.cycle < 0
        ):
            exc.cycle = pipeline.cycle  # as run() fills it in
        status = "failed"
        error = exc
        if trace:
            out(f"!! {type(exc).__name__}: {exc}")
            if isinstance(exc, ArchitecturalMismatch):
                out("last commits before divergence:")
                out(exc.recent_summary())
    tel = pipeline.telemetry
    if tel is not None:
        # The run loop's own finish never happens here; close the last
        # partial interval.
        tel.finish(pipeline.cycle)
    return ReplayOutcome(
        status=status,
        cycles_run=max(0, pipeline.cycle - from_cycle),
        final_cycle=pipeline.cycle,
        committed=stats.committed,
        commit_digest=pipeline.commit_digest.hexdigest(),
        error=error,
        telemetry=tel,
    )
