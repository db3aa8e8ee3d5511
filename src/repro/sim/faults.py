"""Fault injection for chaos-testing the pipeline guards and the harness.

A :class:`FaultSpec` is a small picklable description of one fault; the
pipeline consults a :class:`FaultInjector` built from it at two hook
points (once per cycle, and on every completion-driven wakeup).  The
supported kinds exercise the failure paths the robustness layer must
handle:

``drop-wakeup``
    Suppress one tag broadcast.  The consumer never becomes ready, the
    pipeline stops making progress, and the divergence watchdog fires —
    proving :class:`~repro.cpu.pipeline.SimulationDiverged` carries the
    partial stats.
``corrupt-ready``
    Set the "ready bit" of an instruction whose operands are still
    pending (wake it up early).  The issue-stage guard catches it as an
    ``issue-unready`` invariant violation.
``readd-issued``
    Re-dispatch and wake up an already-issued, not-yet-completed
    instruction, leaving it marked issued; the ``double-issue`` guard
    must fire.
``force-switch``
    (see below)

The ready-set kinds also have a **stealth** form (``stealth=True``)
modelling the scarier version of the same hardware bug: the corruption
is *self-consistent*, so every occupancy/flag guard passes and the run
completes without a single invariant firing — silently wrong.  Only the
golden reference model (``verify=True``) catches it, as an
:class:`~repro.verify.oracle.ArchitecturalMismatch`:

* stealth ``corrupt-ready`` clears the victim's pending-source count
  *and* detaches it from its producers' consumer lists (the bookkeeping
  a real lost-SRAM-bit leaves consistent), so the victim issues before
  its producer completes — a dataflow-order violation only the oracle
  sees.
* stealth ``readd-issued`` re-dispatches an in-flight instruction and
  clears its issued flag, so it executes twice; the duplicate completion
  broadcast wrongly decrements consumers still waiting on a *different*
  producer, which then issue early — again caught only at the oracle's
  commit-time dataflow check.
``force-switch``
    Flip SWQUE's mode label without reconfiguring the sub-queues, the
    exact corruption the ``swque-mode`` consistency guard watches for.
``crash``
    Raise :class:`InjectedFault` (or ``os._exit`` when ``hard`` is set,
    emulating a segfaulting worker) — exercises the harness's
    crashed-worker path.
``hang``
    Sleep inside the cycle loop — exercises the harness's wall-clock
    timeout and kill path.

Every kind arms at ``at_cycle`` and fires at most ``count`` times; kinds
that need a victim instruction keep trying each cycle until one exists.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.telemetry.events import EV_FAULT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cpu.dyninst import DynInst
    from repro.cpu.pipeline import Pipeline

#: Fault kinds accepted by :class:`FaultSpec`.
FAULT_KINDS = (
    "drop-wakeup",
    "corrupt-ready",
    "readd-issued",
    "force-switch",
    "crash",
    "hang",
)


class InjectedFault(RuntimeError):
    """Deliberate failure raised by the ``crash`` fault kind."""


@dataclass(frozen=True)
class FaultSpec:
    """Picklable description of one injected fault (see module docstring)."""

    kind: str
    at_cycle: int = 100
    count: int = 1
    #: ``hang`` only: how long the victim cycle sleeps.
    hang_seconds: float = 3600.0
    #: ``crash`` only: die via ``os._exit`` (no traceback, like a segfault).
    hard: bool = False
    #: ``corrupt-ready``/``readd-issued`` only: make the corruption
    #: self-consistent so the structural guards pass and only the golden
    #: model catches it (see module docstring).
    stealth: bool = False

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if self.stealth and self.kind not in ("corrupt-ready", "readd-issued"):
            raise ValueError(
                f"stealth only applies to the ready-set fault kinds, "
                f"not {self.kind!r}"
            )
        if self.at_cycle < 0:
            raise ValueError("fault at_cycle must be >= 0")
        if self.count < 1:
            raise ValueError("fault count must be >= 1")


class FaultInjector:
    """Stateful executor of one :class:`FaultSpec` against a pipeline."""

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.fired = 0

    @property
    def exhausted(self) -> bool:
        return self.fired >= self.spec.count

    def _armed(self, cycle: int) -> bool:
        return cycle >= self.spec.at_cycle and not self.exhausted

    def _note_fired(self, pipeline: "Pipeline", **args) -> None:
        """Put the fired fault on the telemetry timeline (if attached)."""
        telemetry = getattr(pipeline, "telemetry", None)
        if telemetry is not None:
            telemetry.event(
                EV_FAULT,
                category="fault",
                kind=self.spec.kind,
                stealth=self.spec.stealth,
                fired=self.fired,
                **args,
            )

    # -- hooks called by the pipeline -----------------------------------------------

    def on_cycle(self, pipeline: "Pipeline", cycle: int) -> None:
        """Cycle-granularity faults; called at the top of every cycle."""
        spec = self.spec
        if spec.kind in ("drop-wakeup",) or not self._armed(cycle):
            return
        if spec.kind == "crash":
            self.fired += 1
            self._note_fired(pipeline, cycle=cycle)
            if spec.hard:  # pragma: no cover - kills the (worker) process
                os._exit(13)
            raise InjectedFault(f"injected crash at cycle {cycle}")
        if spec.kind == "hang":
            self.fired += 1
            self._note_fired(pipeline, cycle=cycle)
            time.sleep(spec.hang_seconds)
            return
        if spec.kind == "force-switch":
            self._corrupt_mode(pipeline)
            return
        if spec.kind == "corrupt-ready":
            if spec.stealth:
                self._stealth_corrupt_ready(pipeline)
            else:
                self._corrupt_ready(pipeline, want_pending=True)
            return
        if spec.kind == "readd-issued":
            if spec.stealth:
                self._stealth_readd_issued(pipeline)
            else:
                self._corrupt_ready(pipeline, want_pending=False)

    def drop_wakeup(self, inst: "DynInst") -> bool:
        """``drop-wakeup`` hook: True means *suppress* this tag broadcast."""
        if self.spec.kind != "drop-wakeup" or self.exhausted:
            return False
        self.fired += 1
        return True

    # -- fault bodies -----------------------------------------------------------------

    def _corrupt_mode(self, pipeline: "Pipeline") -> None:
        from repro.core.swque import MODE_AGE, MODE_CIRC_PC, SwitchingQueue

        iq = pipeline.iq
        if not isinstance(iq, SwitchingQueue):
            raise ValueError("force-switch fault needs a SWQUE issue queue")
        self.fired += 1
        self._note_fired(pipeline, from_mode=iq.mode)
        # Flip the label only: the active sub-queue no longer matches.
        iq.mode = MODE_AGE if iq.mode == MODE_CIRC_PC else MODE_CIRC_PC

    def _corrupt_ready(self, pipeline: "Pipeline", want_pending: bool) -> None:
        """Flip a "ready bit": wake up an ineligible instruction.

        The corruption goes through the queue's own API, so the ready set
        and the queue's ready matrix stay in step and the victim reaches
        select (and the grant guards) like any ready instruction.
        """
        iq = pipeline.iq
        if not want_pending and not iq.can_dispatch():
            return  # readd-issued: retry when the queue has room
        for inst in pipeline.rob:
            if inst.squashed:
                continue
            if want_pending:  # corrupt-ready: operands still unresolved
                eligible = inst.in_iq and inst.pending_sources > 0
            else:  # readd-issued: already left the queue, not yet complete
                eligible = inst.issued and not inst.completed
            if eligible:
                self.fired += 1
                self._note_fired(pipeline, victim_seq=inst.seq)
                if not want_pending:
                    iq.dispatch(inst)
                iq.wakeup(inst)
                return
        # No victim this cycle; stay armed and retry next cycle.

    def _stealth_corrupt_ready(self, pipeline: "Pipeline") -> None:
        """Self-consistent early-ready corruption; only the oracle sees it.

        The victim's pending-source count is cleared *and* it is removed
        from its producers' consumer lists, so no guard ever observes an
        inconsistency: no double wakeup, no negative pending count, no
        issue-unready.  The victim simply issues before its producer has
        produced -- an architectural dataflow violation.
        """
        for inst in pipeline.rob:
            if inst.squashed or inst.wrong_path or not inst.in_iq or inst.issued:
                continue
            if inst.pending_sources <= 0:
                continue
            # Prefer a victim whose producer has not even issued yet, so
            # the producer is guaranteed to complete strictly after the
            # victim's (corrupted) issue.  Wrong-path victims never
            # commit, so the oracle would never see the damage.
            producers = [
                p for p in pipeline.rob
                if not p.squashed and not p.completed and inst in p.consumers
            ]
            if not any(not p.issued for p in producers):
                continue
            self.fired += 1
            self._note_fired(pipeline, victim_seq=inst.seq)
            for producer in producers:
                producer.consumers.remove(inst)
            inst.pending_sources = 0
            pipeline.iq.wakeup(inst)
            return
        # No victim this cycle; stay armed and retry next cycle.

    def _stealth_readd_issued(self, pipeline: "Pipeline") -> None:
        """Self-consistent double-issue corruption; only the oracle sees it.

        An in-flight instruction is re-dispatched with its issued flag
        cleared, so it executes (and broadcasts) twice without tripping
        the double-issue guard.  The duplicate broadcast decrements
        consumers that still wait on a *different* producer; they go
        "ready" with an operand missing and issue early -- caught only by
        the oracle's commit-time dataflow check.
        """
        if not pipeline.iq.can_dispatch():
            return  # retry when the queue has room

        def slow_producer(consumer: "DynInst", fast: "DynInst") -> bool:
            # A second producer that has not even issued (and is itself
            # still waiting on operands) completes long after the
            # duplicate broadcast wakes `consumer` -- guaranteeing the
            # early issue is architecturally illegal, and late enough
            # that `consumer` has left the queue before its pending
            # count is driven negative (which a guard would notice).
            return any(
                q is not fast
                and not q.squashed
                and not q.wrong_path
                and not q.issued
                and q.pending_sources > 0
                and consumer in q.consumers
                for q in pipeline.rob
            )

        blocked = False  # an un-issued older instruction precedes the victim
        for inst in pipeline.rob:
            if inst.squashed:
                continue
            if not inst.issued:
                blocked = True
            if inst.wrong_path or not inst.issued or inst.completed:
                continue
            # Commit must stay blocked until both completions have
            # broadcast (commit severs the consumer edges), so the victim
            # needs an older instruction that has not even issued yet.
            if not blocked:
                continue
            # The dataflow damage needs a consumer that waits on this
            # instruction AND one other (slow) in-flight producer.  Keep
            # to the right path: wrong-path instructions never commit, so
            # damage there is invisible to the oracle.
            if not any(
                not c.squashed
                and not c.wrong_path
                and c.pending_sources == 2
                and slow_producer(c, inst)
                for c in inst.consumers
            ):
                continue
            self.fired += 1
            self._note_fired(pipeline, victim_seq=inst.seq)
            inst.issued = False
            pipeline.iq.dispatch(inst)
            pipeline.iq.wakeup(inst)
            return
        # No victim this cycle; stay armed and retry next cycle.
