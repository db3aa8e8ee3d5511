"""Replay a snapshot window with per-cycle event tracing.

``replay`` restores a snapshot (typically the pre-crash artifact the
sweep harness saved for a failed cell) and re-executes it cycle by
cycle, emitting one trace line per cycle: commits/issues/dispatches that
cycle, ROB and IQ occupancy, the ready-set size, and the IQ mode.  The
re-run is deterministic, so the recorded failure reproduces at exactly
the same cycle -- a failure report becomes a debuggable artifact instead
of a lost traceback.  Exposed as ``python -m repro replay``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

from repro.telemetry.probes import Telemetry, TelemetryConfig
from repro.verify.oracle import ArchitecturalMismatch
from repro.verify.snapshot import Snapshot, load_snapshot

#: Replay windows are short and under the microscope: sample at full
#: resolution by default (vs the normal 10k-cycle interval).
DEFAULT_REPLAY_TELEMETRY_INTERVAL = 500


@dataclass
class ReplayOutcome:
    """What happened when the snapshot window was re-executed."""

    #: ``"completed"`` (trace retired), ``"failed"`` (a guard/oracle/
    #: watchdog diagnostic fired), or ``"stopped"`` (cycle budget hit).
    status: str
    cycles_run: int
    final_cycle: int
    committed: int
    commit_digest: str
    error: Optional[BaseException] = None
    #: The replay window's telemetry sink (full-resolution by default);
    #: export it with :func:`repro.telemetry.export_run`.
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
    snapshot: Union[Snapshot, str, Path],
    cycles: Optional[int] = None,
    trace: bool = True,
    out: Callable[[str], None] = print,
    telemetry: bool = True,
    telemetry_interval: int = DEFAULT_REPLAY_TELEMETRY_INTERVAL,
) -> ReplayOutcome:
    """Re-run ``snapshot`` for up to ``cycles`` cycles, tracing each one.

    ``cycles=None`` runs until the trace retires, a diagnostic fires, or
    the run's divergence limit is hit.  Every failure — the structured
    diagnostics (:class:`~repro.core.base.InvariantViolation`,
    :class:`~repro.verify.oracle.ArchitecturalMismatch`, the
    divergence/watchdog family) and raw crashes alike — is caught and
    returned in the outcome rather than re-raised.

    ``telemetry`` (default on) ensures the replayed window is sampled at
    full resolution (``telemetry_interval`` cycles): if the snapshot
    already carries a telemetry sink it is kept as-is (so a resumed run's
    interval alignment stays bit-identical); otherwise a fresh
    fine-grained one is attached.  The sink lands on
    ``outcome.telemetry``.
    """
    from repro.cpu.pipeline import SimulationDiverged  # import cycle guard

    if cycles is not None and cycles <= 0:
        raise ValueError(f"replay cycle budget must be positive, got {cycles}")
    if not isinstance(snapshot, Snapshot):
        snapshot = load_snapshot(snapshot)
    pipeline = snapshot.pipeline
    if telemetry and getattr(pipeline, "telemetry", None) is None:
        Telemetry(TelemetryConfig(interval=telemetry_interval)).attach(pipeline)
    if trace:
        out(snapshot.meta.summary())
    _watch = (
        "committed", "issued", "dispatched", "llc_misses",
        "branch_mispredicts", "mode_switches", "squashed_instructions",
    )
    start_cycle = pipeline.cycle
    status = "completed"
    error: Optional[BaseException] = None
    try:
        while pipeline.rob or pipeline.frontend.has_more():
            if cycles is not None and pipeline.cycle - start_cycle >= cycles:
                status = "stopped"
                break
            if pipeline.cycle > pipeline.run_limit:
                raise SimulationDiverged(
                    f"no convergence after {pipeline.cycle} cycles "
                    f"(committed {pipeline.stats.committed})",
                    partial_stats=pipeline.stats,
                    cycles=pipeline.cycle,
                )
            before = {key: getattr(pipeline.stats, key) for key in _watch}
            pipeline.step()
            if trace:
                out(_trace_line(pipeline, before))
    except Exception as exc:
        # Catch every failure, not only the structured diagnostics:
        # the snapshot being replayed usually *exists because* the run
        # died, and the point is to observe that death, not re-crash.
        status = "failed"
        error = exc
        if trace:
            out(f"!! {type(exc).__name__}: {exc}")
            if isinstance(exc, ArchitecturalMismatch):
                out("last commits before divergence:")
                out(exc.recent_summary())
    tel = getattr(pipeline, "telemetry", None)
    if tel is not None:
        # replay() drives step() directly, so the run loop's own finish
        # never happens; close the last partial interval here.
        tel.finish(pipeline.cycle)
    return ReplayOutcome(
        status=status,
        cycles_run=pipeline.cycle - start_cycle,
        final_cycle=pipeline.cycle,
        committed=pipeline.stats.committed,
        commit_digest=pipeline.commit_digest.hexdigest(),
        error=error,
        telemetry=tel,
    )
