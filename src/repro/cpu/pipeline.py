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
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

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
        #: snapshots and results for provenance.  Set by ``simulate``.
        self.run_provenance: Dict[str, object] = {}
        # Periodic-snapshot hook: every ``snapshot_interval`` cycles the
        # sink is called with the pipeline at a clean cycle boundary.
        self.snapshot_interval: Optional[int] = None
        self.snapshot_sink: Optional[Callable[["Pipeline"], None]] = None
        self._next_snapshot_cycle = 0
        # Run-loop state lives on the pipeline (not in run() locals) so a
        # snapshotted run resumes with the same cycle limit and warmup
        # bookkeeping as the uninterrupted one.
        self._run_started = False
        self._run_limit = 0
        self._warm_pending = False
        self._warmup_target = 0

    def __getstate__(self) -> Dict[str, object]:
        # The snapshot sink is typically a closure (not picklable) and a
        # restored run should not silently re-write snapshot files; both
        # it and the cadence are re-armed explicitly after a restore.
        # The stage profiler measures *this host's* wall clock — its
        # partial sums are meaningless in another process, so it is
        # dropped too.  Telemetry, by contrast, is simulated-time data
        # and travels with the snapshot: a resumed run keeps sampling on
        # the same interval boundaries.
        state = self.__dict__.copy()
        state["snapshot_sink"] = None
        state["snapshot_interval"] = None
        state["profiler"] = None
        return state

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
        if self._run_started:
            raise RuntimeError(
                "this pipeline's run already started; use resume() to "
                "continue it (run parameters are fixed at the first call)"
            )
        self._run_limit = (
            max_cycles if max_cycles is not None else 120 * len(self.trace) + 50_000
        )
        self._warm_pending = 0 < warmup_instructions < len(self.trace)
        self._warmup_target = warmup_instructions
        self._run_started = True
        return self._run_loop()

    def resume(self) -> PipelineStats:
        """Continue an interrupted (snapshotted) run to completion.

        Picks up the cycle limit and warmup bookkeeping captured when the
        run started, so restore -> resume is bit-identical to never having
        stopped.
        """
        if not self._run_started:
            raise RuntimeError("nothing to resume; call run() first")
        return self._run_loop()

    def _run_loop(self) -> PipelineStats:
        try:
            while self.rob or self.frontend.has_more():
                if self.cycle > self._run_limit:
                    raise SimulationDiverged(
                        f"no convergence after {self.cycle} cycles "
                        f"(committed {self.stats.committed}/{len(self.trace)})",
                        partial_stats=self.stats,
                        cycles=self.cycle,
                    )
                self.step()
                if self._warm_pending and self.stats.committed >= self._warmup_target:
                    self.stats.reset()
                    self._warm_pending = False
            if self.telemetry is not None:
                # Flush the final partial interval (idempotent, so a
                # finished-then-snapshotted run resumes harmlessly).
                self.telemetry.finish(self.cycle)
            if self.oracle is not None:
                self.oracle.check_final(self.stats.committed)
        except (InvariantViolation, ArchitecturalMismatch) as exc:
            # Fill in the run context before the violation escapes, so the
            # harness can report how far the simulation got.
            if exc.cycle is None or exc.cycle < 0:
                exc.cycle = self.cycle
            if exc.committed is None:
                exc.committed = self.stats.committed
            if exc.partial_stats is None:
                exc.partial_stats = self.stats
            raise
        return self.stats

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
        # Telemetry samples the finished cycle BEFORE any snapshot is
        # taken: the pickled sampler state must already account for this
        # cycle, or a resumed run would drop exactly one occupancy
        # sample and its time series would not be bit-identical.
        if self.telemetry is not None:
            self.telemetry.on_cycle(self.cycle, self.iq.occupancy)
        if (
            self.snapshot_sink is not None
            and self.cycle >= self._next_snapshot_cycle
        ):
            self._next_snapshot_cycle = self.cycle + (self.snapshot_interval or 1)
            self.snapshot_sink(self)

    def _step_stages(self, cycle: int) -> None:
        """The per-cycle stage sequence (the hot path).

        Mirrored by :meth:`_step_stages_timed`; any stage added or
        reordered here must change there identically.
        """
        self.fu_pool.new_cycle(cycle)
        self._complete(cycle)
        self._commit(cycle)
        self._issue(cycle)
        self._dispatch(cycle)
        self.iq.tick(cycle)
        if self.iq.wants_flush:
            self._flush(self.iq.flush_penalty)
        self._check_invariants(cycle)

    def _step_stages_timed(self, cycle: int, profiler: "StageProfiler") -> None:
        """:meth:`_step_stages` with per-stage wall-clock attribution.

        Runs for one sampled cycle out of every ``profiler.sample_every``,
        so the six timer reads never sit on the hot path.
        """
        clock = time.perf_counter
        self.fu_pool.new_cycle(cycle)
        t0 = clock()
        self._complete(cycle)
        t1 = clock()
        self._commit(cycle)
        t2 = clock()
        self._issue(cycle)
        t3 = clock()
        self._dispatch(cycle)
        t4 = clock()
        self.iq.tick(cycle)
        if self.iq.wants_flush:
            self._flush(self.iq.flush_penalty)
        t5 = clock()
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
        """Guard layer run at the end of every cycle.

        The structural checks (ROB occupancy, IQ self-check) catch state
        corruption -- a model bug or an injected fault -- at the cycle it
        happens instead of cycles later as a bogus result or a divergence
        timeout.  They are side-effect free, so the "sampled" guard mode
        runs them one cycle in :data:`~repro.core.base.GUARD_SAMPLE_PERIOD`
        ("full" checks every cycle, as chaos tests require).  The
        forward-progress watchdog stays always-on: it has semantics (it
        terminates livelocked runs) and is a couple of integer compares.
        """
        guards = self.guards
        if guards == "full" or (
            guards == "sampled" and not cycle & (GUARD_SAMPLE_PERIOD - 1)
        ):
            if len(self.rob) > self.rob.capacity:
                raise InvariantViolation(
                    "rob-occupancy",
                    f"{len(self.rob)} entries in a {self.rob.capacity}-entry ROB",
                    cycle=cycle,
                )
            self.iq.check_invariants()
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
            # leak, and a recursion bomb for snapshot serialization).
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
        for inst in issued:
            inst.issued = True
            inst.issue_cycle = cycle
            finish = cycle + self._execution_latency(inst, cycle)
            bucket = events.get(finish)
            if bucket is None:
                events[finish] = [inst]
            else:
                bucket.append(inst)
        self.stats.issued += len(issued)
        # Each issued instruction eventually broadcasts its destination tag.
        self.stats.iq_wakeup_broadcasts += len(issued)

    def _execution_latency(self, inst: DynInst, cycle: int) -> int:
        op = inst.op
        if op is OpClass.LOAD:
            self.stats.loads += 1
            if inst.forwarded:
                self.stats.store_forwards += 1
                return 2  # address generation + LSQ forward
            # Address generation this cycle, cache access next.
            return 1 + self.hierarchy.access_data(inst.trace.mem_addr, cycle + 1)
        if op is OpClass.STORE:
            self.stats.stores += 1
            # The write itself drains through a write buffer and never
            # blocks the pipeline, but it does generate cache/DRAM traffic.
            self.hierarchy.access_data(inst.trace.mem_addr, cycle + 1, is_store=True)
            return 1
        return inst.base_latency

    def _dispatch(self, cycle: int) -> None:
        frontend = self.frontend
        rob = self.rob
        iq = self.iq
        lsq = self.lsq
        rename = self.rename
        stats = self.stats
        peek = frontend.peek
        dispatched = 0
        width = self.config.width
        while dispatched < width:
            trace_inst = peek(cycle)
            if trace_inst is None:
                if dispatched == 0 and frontend.stalled(cycle):
                    stats.fetch_stall_cycles += 1
                break
            if rob.is_full:
                stats.dispatch_stall_rob += 1
                break
            if not iq.can_dispatch():
                stats.dispatch_stall_iq += 1
                break
            is_mem = trace_inst.mem_addr is not None
            if is_mem and lsq.is_full:
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
