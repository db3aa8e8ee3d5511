"""The cycle-level out-of-order pipeline loop.

Each simulated cycle processes, in order:

1. **complete** -- instructions finishing execution wake their consumers
   (tag broadcast); a resolving mispredicted branch restarts fetch.
2. **commit** -- up to ``width`` completed instructions retire in order
   from the ROB head; the IQ's commit hook drives SWQUE's interval logic.
3. **issue** -- the IQ's wakeup-select picks ready instructions in policy
   priority order under function-unit constraints; loads/stores probe the
   memory hierarchy for their completion time.
4. **dispatch** -- rename up to ``width`` fetched instructions into
   ROB/IQ/LSQ, stopping at the first structural hazard.
5. **flush check** -- a queue-requested flush (SWQUE mode switch) squashes
   the window, mispredict-style.

Completing before issuing lets a 1-cycle producer's consumer issue the very
next cycle (back-to-back wakeup); dispatching after issuing enforces the
one-cycle minimum IQ residency of real wakeup-select loops.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.config import ProcessorConfig
from repro.core.base import (
    GUARD_MODES,
    GUARD_SAMPLE_PERIOD,
    InvariantViolation,
    IssueQueue,
)
from repro.cpu.branch import BranchUnit
from repro.cpu.dyninst import DynInst
from repro.cpu.frontend import FetchUnit
from repro.cpu.fu import FunctionUnitPool
from repro.cpu.isa import OpClass
from repro.cpu.lsq import LoadStoreQueue
from repro.cpu.rename import RenameUnit
from repro.cpu.rob import ReorderBuffer
from repro.cpu.stats import PipelineStats
from repro.cpu.trace import Trace
from repro.memory.hierarchy import MemoryHierarchy
from repro.telemetry.events import EV_FAULT, EV_IQ_FLUSH, EV_NEAR_STALL
from repro.verify.oracle import ArchitecturalMismatch, CommitDigest, GoldenModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.faults import FaultInjector
    from repro.telemetry.probes import Telemetry
    from repro.telemetry.profile import StageProfiler

#: Forward-progress watchdog default: the longest commit-free stretch a
#: healthy run can plausibly produce (deep dependent-miss chains stall for
#: hundreds of cycles; 20k is an order of magnitude beyond any legitimate
#: stall yet far below the divergence cycle limit, so livelocks surface as
#: a diagnostic instead of a silent ``max_cycles`` timeout).
DEFAULT_WATCHDOG_INTERVAL = 20_000


class SimulationDiverged(RuntimeError):
    """The pipeline stopped making progress (an internal-model bug).

    Carries the run's partial :class:`~repro.cpu.stats.PipelineStats` and
    the cycle count at abort, so callers (and the sweep harness) can see
    how far the simulation got instead of losing the whole run.
    """

    def __init__(
        self,
        message: str,
        partial_stats: Optional[PipelineStats] = None,
        cycles: int = 0,
    ) -> None:
        super().__init__(message)
        self.partial_stats = partial_stats
        self.cycles = cycles


class CommitStall(SimulationDiverged):
    """The forward-progress watchdog fired: no commit for N cycles.

    A commit stall is a livelock or deadlock *diagnosed at the moment it
    is happening*, with the evidence attached: per-stage occupancy
    (``diagnostics``), a description of the oldest ROB entry and what it
    is waiting for (``oldest``), and the IQ mode.  Subclassing
    :class:`SimulationDiverged` keeps every existing caller working, but
    the harness treats it as *permanent* (deterministic stalls do not go
    away on retry), unlike a budget-dependent divergence timeout.
    """

    def __init__(
        self,
        message: str,
        diagnostics: Dict[str, object],
        oldest: str,
        stall_cycles: int,
        partial_stats: Optional[PipelineStats] = None,
        cycles: int = 0,
    ) -> None:
        super().__init__(message, partial_stats=partial_stats, cycles=cycles)
        self.diagnostics = diagnostics
        self.oldest = oldest
        self.stall_cycles = stall_cycles


class Pipeline:
    """One core: trace in, :class:`~repro.cpu.stats.PipelineStats` out."""

    def __init__(
        self,
        trace: Trace,
        config: ProcessorConfig,
        iq: IssueQueue,
        hierarchy: Optional[MemoryHierarchy] = None,
        stats: Optional[PipelineStats] = None,
        faults: Optional["FaultInjector"] = None,
        oracle: Optional[GoldenModel] = None,
        watchdog_interval: Optional[int] = DEFAULT_WATCHDOG_INTERVAL,
        guards: Optional[str] = None,
    ) -> None:
        if watchdog_interval is not None and watchdog_interval <= 0:
            raise ValueError(
                f"watchdog_interval must be positive (or None to disable), "
                f"got {watchdog_interval}"
            )
        if guards is not None and guards not in GUARD_MODES:
            raise ValueError(
                f"guards must be one of {GUARD_MODES} (or None for the "
                f"default), got {guards!r}"
            )
        self.trace = trace
        self.config = config
        self.iq = iq
        self.stats = stats if stats is not None else iq.stats
        if self.stats is not iq.stats:
            raise ValueError("pipeline and issue queue must share one stats object")
        self.hierarchy = hierarchy or MemoryHierarchy(config, self.stats)
        self.branch_unit = BranchUnit(config.branch)
        self.frontend = FetchUnit(trace, config, self.branch_unit, self.hierarchy, self.stats)
        self.rename = RenameUnit(config.int_regs, config.fp_regs)
        self.rob = ReorderBuffer(config.rob_entries)
        self.lsq = LoadStoreQueue(config.lsq_entries)
        self.fu_pool = FunctionUnitPool(config)
        #: completion cycle -> instructions finishing then.
        self._events: Dict[int, List[DynInst]] = {}
        self.cycle = 0
        #: Optional chaos hook (see :mod:`repro.sim.faults`).
        self.faults = faults
        #: Optional golden-model lockstep hook (see :mod:`repro.verify.oracle`).
        self.oracle = oracle
        #: Guard mode for the invariant layer.  The default is "full" when
        #: a fault injector is attached (chaos tests need same-cycle
        #: detection) and "sampled" otherwise (1 in
        #: :data:`~repro.core.base.GUARD_SAMPLE_PERIOD`; the lockstep
        #: oracle and commit digest still catch any semantic corruption).
        self.guards = guards if guards is not None else (
            "full" if faults is not None else "sampled"
        )
        iq.guards = self.guards
        #: Always-on streaming fingerprint of the commit stream.
        self.commit_digest = CommitDigest()
        #: Forward-progress watchdog horizon in cycles (None disables).
        self.watchdog_interval = watchdog_interval
        self._last_commit_cycle = 0
        #: Telemetry sink (:class:`repro.telemetry.Telemetry`); set by
        #: ``Telemetry.attach``.  ``None`` keeps every probe site at one
        #: attribute test per cycle.
        self.telemetry: Optional["Telemetry"] = None
        #: Host-side stage profiler (:mod:`repro.telemetry.profile`);
        #: when set, one cycle in ``sample_every`` runs the timed path.
        self.profiler: Optional["StageProfiler"] = None
        # One near-stall event per commit-free episode (telemetry only).
        self._near_stall_noted = False
        # Guard state: sequence number of the last committed instruction.
        self._last_commit_seq = -1
        #: Caller-attached run identity (workload/policy/seed), recorded in
        #: results for provenance.  Set by ``simulate``.
        self.run_provenance: Dict[str, object] = {}
        # Run parameters, fixed by start(): the bulk advance reads the
        # cycle limit, and a caller that drives step() itself (replay)
        # reads both the limit and the warmup bookkeeping.
        self._run_started = False
        self._run_limit = 0
        self._warm_pending = False
        self._warmup_target = 0
        #: Cycles :meth:`run` advanced in bulk as idle (see
        #: :meth:`_advance_idle`); they are simulated cycles all the same.
        self.ff_skipped_cycles = 0

    # -- top level ----------------------------------------------------------------

    @property
    def run_limit(self) -> int:
        """Divergence cycle limit of the active run."""
        return self._run_limit

    def run(
        self,
        max_cycles: Optional[int] = None,
        warmup_instructions: int = 0,
    ) -> PipelineStats:
        """Simulate until the whole trace commits; returns the stats.

        ``warmup_instructions`` commits that many instructions first and
        then resets the counters, so the reported stats describe warm-cache,
        warm-predictor steady state (the paper skips 16B instructions for
        the same reason).
        """
        self.start(max_cycles, warmup_instructions)
        return self._run_loop()

    def start(
        self,
        max_cycles: Optional[int] = None,
        warmup_instructions: int = 0,
    ) -> None:
        """Fix the run's divergence limit and warmup (see :meth:`run`).

        :meth:`run` calls it; a caller that drives :meth:`step` itself
        calls it first and then applies :meth:`end_warmup` after every
        cycle, as :meth:`run` does.
        """
        if self._run_started:
            raise RuntimeError(
                "this pipeline's run already started (run parameters are "
                "fixed at the first call)"
            )
        self._run_limit = (
            max_cycles if max_cycles is not None else 120 * len(self.trace) + 50_000
        )
        self._warm_pending = 0 < warmup_instructions < len(self.trace)
        self._warmup_target = warmup_instructions
        self._run_started = True

    def end_warmup(self) -> bool:
        """Reset the counters once the warmup has committed; True on the
        cycle that resets.  :meth:`run`'s loop does the same inline."""
        if self._warm_pending and self.stats.committed >= self._warmup_target:
            self.stats.reset()
            self._warm_pending = False
            return True
        return False

    def _run_loop(self) -> PipelineStats:
        rob_entries = self.rob._entries
        frontend = self.frontend
        trace_len = len(self.trace)
        events = self._events
        stats = self.stats
        # Per-cycle observers see every cycle through step().  Without
        # them the loop runs the stage sequence directly and advances
        # idle stretches in bulk; the oracle only sees commits and the
        # profiler only samples, so neither needs every cycle.
        every_cycle = self.faults is not None or self.telemetry is not None
        stepped = every_cycle or self.profiler is not None
        try:
            while rob_entries or frontend.fetch_seq < trace_len:
                cycle = self.cycle
                if cycle > self._run_limit:
                    raise SimulationDiverged(
                        f"no convergence after {cycle} cycles "
                        f"(committed {stats.committed}/{trace_len})",
                        partial_stats=stats,
                        cycles=cycle,
                    )
                if (
                    not every_cycle
                    and cycle not in events
                    and not (rob_entries and rob_entries[0].completed)
                    and self._advance_idle(cycle)
                ):
                    continue
                if stepped:
                    self.step()
                else:
                    self._step_stages(cycle)
                    self.cycle = cycle + 1
                    stats.cycles += 1
                if self._warm_pending and stats.committed >= self._warmup_target:
                    stats.reset()
                    self._warm_pending = False
            if self.telemetry is not None:
                # Flush the final partial interval.
                self.telemetry.finish(self.cycle)
            if self.oracle is not None:
                self.oracle.check_final(stats.committed)
        except (InvariantViolation, ArchitecturalMismatch) as exc:
            # Fill in the run context before the violation escapes, so the
            # harness can report how far the simulation got.
            if exc.cycle is None or exc.cycle < 0:
                exc.cycle = self.cycle
            if exc.committed is None:
                exc.committed = stats.committed
            if exc.partial_stats is None:
                exc.partial_stats = stats
            raise
        return stats

    def _advance_idle(self, cycle: int) -> int:
        """Advance over idle cycles from ``cycle`` in one step.

        A cycle is idle when it completes nothing (no completion event),
        commits nothing (the ROB head is not completed), has no pending
        flush, its select would grant nothing and change nothing, and its
        dispatch only records why it stalled: fetch is stalled, or the
        ROB or IQ is full in front of an instruction that needs no fetch
        work, or there is nothing to fetch.  The caller checked the first
        two.  Such a cycle leaves the machine as it found it, so every
        later cycle is idle too until the next completion event, the end
        of the fetch stall, the watchdog deadline or the run limit.  The
        stretch up to the earliest of those is applied as counts: cycles,
        the one stall counter, the IQ's per-cycle tick and, on the wrong
        path, the junk draws the stalled dispatches would have made.

        Returns the number of cycles advanced (0 when ``cycle`` is not
        idle or nothing can be skipped); the cycle it stops at then runs
        normally.
        """
        iq = self.iq
        frontend = self.frontend
        if (
            frontend._resolved is not None
            or iq.wants_flush
            or not iq.select_idle()
        ):
            return 0
        stats = self.stats
        stall = None
        junk = False
        if cycle < frontend.resume_cycle:
            stall = "fetch_stall_cycles"
            target = frontend.resume_cycle
        else:
            target = self._run_limit + 1
            wrong_path = frontend.blocked_branch is not None
            if wrong_path and not self.config.wrong_path_fetch:
                pass  # stall-on-mispredict: nothing to fetch, nothing counted
            elif not wrong_path and not frontend.has_more():
                pass  # trace exhausted: only the window drains
            elif not (wrong_path or frontend.line_fetched()):
                return 0  # the next peek accesses the I-cache
            elif self.rob.is_full:
                stall = "dispatch_stall_rob"
                junk = wrong_path
            elif not iq.can_dispatch():
                stall = "dispatch_stall_iq"
                junk = wrong_path
            elif wrong_path:
                return 0  # whether the junk fits depends on what it draws
            else:
                nxt = frontend._insts[frontend.fetch_seq]
                dest = nxt.dest
                rename = self.rename
                if nxt.mem_addr is not None and self.lsq.is_full:
                    stall = "dispatch_stall_lsq"
                elif dest is not None and (
                    rename.free_int <= 0 if dest < 32 else rename.free_fp <= 0
                ):
                    stall = "dispatch_stall_regs"
                else:
                    return 0
        if self._events:
            target = min(target, min(self._events))
        if self.watchdog_interval is not None:
            target = min(target, self._last_commit_cycle + self.watchdog_interval)
        target = min(target, self._run_limit + 1)
        # Structural guards are side-effect free and see the same state on
        # every idle cycle, so one check stands for all the skipped ones;
        # a violation stops the advance at the first cycle that checks.
        first_check = cycle
        if self.guards != "full":  # the next multiple of the sample period
            first_check = -(-cycle // GUARD_SAMPLE_PERIOD) * GUARD_SAMPLE_PERIOD
        if first_check < target:
            try:
                self._check_structure(first_check)
            except InvariantViolation:
                target = first_check
        count = target - cycle
        if count <= 0:
            return 0
        stats.cycles += count
        if stall is not None:
            setattr(stats, stall, getattr(stats, stall) + count)
        if junk:
            frontend.skip_junk(count)
        iq.tick(cycle, count)
        self.cycle = target
        self.ff_skipped_cycles += count
        return count

    def step(self) -> None:
        """Advance the pipeline by one cycle."""
        cycle = self.cycle
        if self.faults is not None:
            self.faults.on_cycle(self, cycle)
        profiler = self.profiler
        if profiler is not None and cycle % profiler.sample_every == 0:
            self._step_stages_timed(cycle, profiler)
        else:
            self._step_stages(cycle)
        self.cycle += 1
        self.stats.cycles += 1
        if self.telemetry is not None:
            self.telemetry.on_cycle(self.cycle, self.iq.occupancy)

    def _step_stages(self, cycle: int) -> None:
        """The per-cycle stage sequence (the hot path).

        Complete runs only on a cycle with a completion event (or a
        resolved branch to recover from), commit only when the ROB head
        is completed, and the guard layer only when one of its checks is
        due: each skipped call would have done nothing.

        Mirrored by :meth:`_step_stages_timed`; any stage added or
        reordered here must change there identically.
        """
        if cycle in self._events or self.frontend._resolved is not None:
            self._complete(cycle)
        entries = self.rob._entries
        if entries and entries[0].completed:
            self._commit(cycle)
        self._issue(cycle)
        self._dispatch(cycle)
        iq = self.iq
        iq.tick(cycle)
        if iq.wants_flush:
            self._flush(iq.flush_penalty)
        # The guard layer's gate, inline: a structural check is due, or
        # the commit-free stretch reached half the watchdog horizon (from
        # there on the near-stall marker and the watchdog itself apply).
        horizon = self.watchdog_interval
        if (
            self.guards == "full"
            or not cycle & (GUARD_SAMPLE_PERIOD - 1)
            or (horizon is not None and cycle - self._last_commit_cycle >= horizon >> 1)
        ):
            self._check_invariants(cycle)

    def _step_stages_timed(self, cycle: int, profiler: "StageProfiler") -> None:
        """:meth:`_step_stages` with per-stage wall-clock attribution.

        Runs for one sampled cycle out of every ``profiler.sample_every``,
        so the six timer reads never sit on the hot path.
        """
        clock = time.perf_counter
        t0 = clock()
        if cycle in self._events or self.frontend._resolved is not None:
            self._complete(cycle)
        t1 = clock()
        entries = self.rob._entries
        if entries and entries[0].completed:
            self._commit(cycle)
        t2 = clock()
        self._issue(cycle)
        t3 = clock()
        self._dispatch(cycle)
        t4 = clock()
        iq = self.iq
        iq.tick(cycle)
        if iq.wants_flush:
            self._flush(iq.flush_penalty)
        t5 = clock()
        horizon = self.watchdog_interval
        if (
            self.guards == "full"
            or not cycle & (GUARD_SAMPLE_PERIOD - 1)
            or (horizon is not None and cycle - self._last_commit_cycle >= horizon >> 1)
        ):
            self._check_invariants(cycle)
        t6 = clock()
        profiler.record("complete", t1 - t0)
        profiler.record("commit", t2 - t1)
        profiler.record("issue", t3 - t2)
        profiler.record("dispatch", t4 - t3)
        profiler.record("iq_tick", t5 - t4)
        profiler.record("guards", t6 - t5)
        profiler.sampled_cycles += 1

    # -- invariant guards ------------------------------------------------------------

    def _check_invariants(self, cycle: int) -> None:
        """Guard layer, run at the end of a cycle when a check is due
        (the stage sequences gate the call inline).

        The structural checks (ROB occupancy, IQ self-check) catch state
        corruption -- a model bug or an injected fault -- at the cycle it
        happens instead of cycles later as a bogus result or a divergence
        timeout.  They are side-effect free, so the "sampled" guard mode
        runs them one cycle in :data:`~repro.core.base.GUARD_SAMPLE_PERIOD`
        ("full" checks every cycle, as chaos tests require).  The
        forward-progress watchdog stays always-on: it has semantics (it
        terminates livelocked runs) and is a couple of integer compares.
        """
        if self.guards == "full" or not cycle & (GUARD_SAMPLE_PERIOD - 1):
            self._check_structure(cycle)
        if self.watchdog_interval is not None:
            stall = cycle - self._last_commit_cycle
            if stall >= self.watchdog_interval:
                raise self._commit_stall(cycle)
            if (
                self.telemetry is not None
                and not self._near_stall_noted
                and stall >= self.watchdog_interval // 2
            ):
                # Halfway to the watchdog firing: a near-stall worth a
                # timeline marker even if the run later recovers.
                self._near_stall_noted = True
                self.telemetry.event(
                    EV_NEAR_STALL,
                    cycle=cycle,
                    category="pipeline",
                    stall_cycles=stall,
                    watchdog_interval=self.watchdog_interval,
                    rob=len(self.rob),
                    iq=self.iq.occupancy,
                    iq_ready=len(self.iq.ready),
                )

    def _check_structure(self, cycle: int) -> None:
        """The structural half of the guard layer (side-effect free)."""
        if len(self.rob) > self.rob.capacity:
            raise InvariantViolation(
                "rob-occupancy",
                f"{len(self.rob)} entries in a {self.rob.capacity}-entry ROB",
                cycle=cycle,
            )
        self.iq.check_invariants()

    # -- forward-progress watchdog ----------------------------------------------------

    def _describe_oldest(self) -> str:
        """The oldest ROB entry and its unsatisfied wait conditions."""
        head = self.rob.head()
        if head is None:
            return (
                "ROB empty: the front end is not delivering instructions "
                f"(fetch_seq={self.frontend.fetch_seq}/{len(self.trace)}, "
                f"resume_cycle={self.frontend.resume_cycle}, "
                f"wrong_path={self.frontend.wrong_path_mode})"
            )
        desc = f"#{head.seq} {head.op.value} dispatched at {head.dispatch_cycle}"
        if head.completed:
            return desc + " is completed but was not committed (commit logic stuck)"
        if head.issued:
            finish = next(
                (c for c, insts in self._events.items() if head in insts), None
            )
            if finish is None:
                return desc + (
                    f" issued at {head.issue_cycle} but has NO pending "
                    "completion event (lost in flight)"
                )
            return desc + f" issued at {head.issue_cycle}, completes at {finish}"
        if head.pending_sources:
            producers = [
                f"#{p.seq}({'done' if p.completed else 'in-flight'})"
                for p in self.rob
                if head in p.consumers
            ]
            return desc + (
                f" waits on {head.pending_sources} operand(s); known "
                f"producers: {', '.join(producers) if producers else 'NONE IN ROB'}"
            )
        in_ready = any(candidate is head for candidate in self.iq.ready)
        return desc + (
            " is ready "
            + ("and in the ready set" if in_ready else "but NOT in the ready set")
            + f" (in_iq={head.in_iq}); it is never being selected"
        )

    def _commit_stall(self, cycle: int) -> CommitStall:
        """Build the watchdog diagnostic for a commit-free stretch."""
        stall = cycle - self._last_commit_cycle
        diagnostics: Dict[str, object] = {
            "rob": f"{len(self.rob)}/{self.rob.capacity}",
            "iq": f"{self.iq.occupancy}/{self.iq.size}",
            "iq_ready": len(self.iq.ready),
            "iq_mode": getattr(self.iq, "mode", self.iq.name),
            "lsq": f"{len(self.lsq)}/{self.lsq.capacity}",
            "free_int_regs": self.rename.free_int,
            "free_fp_regs": self.rename.free_fp,
            "inflight_completions": sum(len(v) for v in self._events.values()),
            "fetch_seq": self.frontend.fetch_seq,
            "fetch_stalled": self.frontend.stalled(cycle),
            "wrong_path": self.frontend.wrong_path_mode,
            "last_commit_cycle": self._last_commit_cycle,
        }
        oldest = self._describe_oldest()
        detail = ", ".join(f"{k}={v}" for k, v in diagnostics.items())
        return CommitStall(
            f"no commit for {stall} cycles (watchdog horizon "
            f"{self.watchdog_interval}) at cycle {cycle}: livelock or "
            f"deadlock. Oldest ROB entry: {oldest}. Stage state: {detail}",
            diagnostics=diagnostics,
            oldest=oldest,
            stall_cycles=stall,
            partial_stats=self.stats,
            cycles=cycle,
        )

    # -- stages ---------------------------------------------------------------------

    def _complete(self, cycle: int) -> None:
        finishing = self._events.pop(cycle, None)
        frontend = self.frontend
        if finishing:
            iq_wakeup = self.iq.wakeup
            faults = self.faults
            for inst in finishing:
                if inst.squashed:
                    continue
                inst.completed = True
                inst.complete_cycle = cycle
                for consumer in inst.consumers:
                    if consumer.squashed:
                        continue
                    consumer.pending_sources -= 1
                    if consumer.pending_sources == 0 and consumer.in_iq:
                        if faults is not None and faults.drop_wakeup(consumer):
                            if self.telemetry is not None:
                                self.telemetry.event(
                                    EV_FAULT,
                                    cycle=cycle,
                                    category="fault",
                                    kind="drop-wakeup",
                                    victim_seq=consumer.seq,
                                )
                            continue
                        iq_wakeup(consumer)
                frontend.on_complete(inst, cycle)
        if frontend._resolved is not None:
            resolved = frontend.take_resolved()
            self._squash_younger(resolved)

    def _commit(self, cycle: int) -> None:
        committed = 0
        width = self.config.width
        while committed < width:
            head = self.rob.head()
            if head is None or not head.completed:
                break
            self.rob.commit_head()
            if head.seq <= self._last_commit_seq:
                raise InvariantViolation(
                    "commit-order",
                    f"instruction #{head.seq} committed after #{self._last_commit_seq}",
                    cycle=cycle,
                )
            self._last_commit_seq = head.seq
            if self.oracle is not None:
                self.oracle.check_commit(head, cycle, committed)
            self.commit_digest.update(
                head.seq,
                head.trace.pc,
                head.dispatch_cycle,
                head.issue_cycle,
                head.complete_cycle,
            )
            if head.trace.mem_addr is not None:
                self.lsq.release(head)
            self.rename.release(head)
            # Sever the committed instruction's outbound graph edges: its
            # broadcasts all happened (completion precedes commit) and it
            # can never be unwound, but the prev_writer/consumers links
            # would otherwise chain every DynInst of the run into one
            # unboundedly deep, unboundedly large object graph (a memory
            # leak).
            head.prev_writer = None
            head.consumers = []
            committed += 1
        if committed:
            self._last_commit_cycle = cycle
            self._near_stall_noted = False
        self.stats.committed += committed
        self.iq.note_commit(committed, self.stats.llc_misses)

    def _issue(self, cycle: int) -> None:
        # Grant sanity (double-issue / issue-unready / issue-squashed) is
        # the guard layer's job, checked once in IssueQueue._commit_grants.
        issued = self.iq.select(self.fu_pool, cycle)
        if not issued:
            return
        events = self._events
        stats = self.stats
        for inst in issued:
            inst.issued = True
            inst.issue_cycle = cycle
            op = inst.op
            if op is OpClass.LOAD:
                stats.loads += 1
                if inst.forwarded:
                    stats.store_forwards += 1
                    finish = cycle + 2  # address generation + LSQ forward
                else:
                    # Address generation this cycle, cache access next.
                    finish = cycle + 1 + self.hierarchy.access_data(
                        inst.trace.mem_addr, cycle + 1
                    )
            elif op is OpClass.STORE:
                stats.stores += 1
                # The write itself drains through a write buffer and never
                # blocks the pipeline, but it does generate cache/DRAM
                # traffic.
                self.hierarchy.access_data(
                    inst.trace.mem_addr, cycle + 1, is_store=True
                )
                finish = cycle + 1
            else:
                finish = cycle + inst.base_latency
            bucket = events.get(finish)
            if bucket is None:
                events[finish] = [inst]
            else:
                bucket.append(inst)
        stats.issued += len(issued)
        # Each issued instruction eventually broadcasts its destination tag.
        stats.iq_wakeup_broadcasts += len(issued)

    def _dispatch(self, cycle: int) -> None:
        frontend = self.frontend
        stats = self.stats
        if cycle < frontend.resume_cycle:
            stats.fetch_stall_cycles += 1
            return
        rob = self.rob
        rob_entries = rob._entries
        rob_capacity = rob.capacity
        iq = self.iq
        lsq = self.lsq
        rename = self.rename
        peek = frontend.peek
        dispatched = 0
        width = self.config.width
        while dispatched < width:
            trace_inst = peek(cycle)
            if trace_inst is None:
                # An I-cache miss on this group's first fetch stalls it.
                if dispatched == 0 and cycle < frontend.resume_cycle:
                    stats.fetch_stall_cycles += 1
                break
            if len(rob_entries) >= rob_capacity:
                stats.dispatch_stall_rob += 1
                break
            if not iq.can_dispatch():
                stats.dispatch_stall_iq += 1
                break
            is_mem = trace_inst.mem_addr is not None
            if is_mem and lsq._count >= lsq.capacity:
                stats.dispatch_stall_lsq += 1
                break
            inst = DynInst(trace_inst, cycle)
            if not rename.can_rename(inst):
                stats.dispatch_stall_regs += 1
                break
            rename.rename(inst)
            rob.push(inst)
            if is_mem:
                lsq.insert(inst)
            iq.dispatch(inst)
            stats.iq_dispatch_writes += 1
            if inst.pending_sources == 0:
                iq.wakeup(inst)
            dispatched += 1
            stats.dispatched += 1
            if not frontend.advance(cycle, inst):
                break

    # -- recovery ------------------------------------------------------------------

    def _squash_younger(self, branch: DynInst) -> None:
        """Mispredict recovery: squash everything younger than ``branch``."""
        squashed = self.rob.squash_younger(branch.seq)
        for inst in squashed:  # youngest first, as rename unwind requires
            self.rename.unwind(inst)
            if inst.trace.mem_addr is not None:
                self.lsq.squash(inst)
            self.iq.evict(inst)
        self.stats.squashed_instructions += len(squashed)

    # -- flush (SWQUE mode switch) -----------------------------------------------------

    def _flush(self, penalty: int) -> None:
        if self.telemetry is not None:
            self.telemetry.event(
                EV_IQ_FLUSH,
                cycle=self.cycle,
                category="pipeline",
                penalty=penalty,
                window=len(self.rob),
                mode=getattr(self.iq, "mode", None),
            )
        squashed = self.rob.flush()
        for inst in squashed:
            self.rename.release(inst)
        self.lsq.flush()
        self.rename.flush()
        self.fu_pool.flush()
        self.iq.flush()
        oldest = squashed[0].seq if squashed else self.frontend.fetch_seq
        self.frontend.rewind(oldest, self.cycle + penalty)
        self.stats.flush_cycles += penalty
