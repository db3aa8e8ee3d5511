"""SWQUE: the mode-switching issue queue (Section 3.2).

SWQUE configures the IQ as CIRC-PC for priority-sensitive phases and as
AGE for capacity-demanding phases.  Capacity demand is estimated once per
*switch interval* (10k committed instructions by default) from two metrics:

* **MPKI** -- last-level-cache misses per kilo-instruction; high MPKI means
  MLP is the performance source and a large effective capacity matters.
* **FLPI** -- the fraction of issued instructions that came from the
  lowest-priority region of the IQ; high FLPI means ready instructions
  reside throughout the queue (abundant ILP), so capacity matters.

Decision (Section 3.2.2, AGE-favouring): next mode is AGE when *either*
metric is high, CIRC-PC only when both are low.  A mode change flushes the
pipeline (branch-misprediction-style penalty).

Stability (Section 3.2.3): a small saturating *instability counter* is
incremented each time the FLPI decision made *in CIRC-PC mode* picks AGE,
and reset when CIRC-PC mode decides to stay.  When it saturates, the
AGE-mode FLPI threshold is lowered so AGE mode becomes stickier; counter
and threshold are periodically reset to re-adapt.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.config import SwqueParams
from repro.core.age import AgeQueue
from repro.core.base import InvariantViolation, IssueQueue
from repro.core.circ_pc import CircPCQueue
from repro.cpu.dyninst import DynInst
from repro.cpu.stats import PipelineStats
from repro.telemetry.events import EV_MODE_SWITCH, EV_MODE_SWITCH_DECIDED

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cpu.fu import FunctionUnitPool

#: Mode labels.
MODE_CIRC_PC = "circ-pc"
MODE_AGE = "age"


class SwitchingQueue(IssueQueue):
    """SWQUE: dynamically switches between CIRC-PC and AGE."""

    name = "swque"

    def __init__(
        self,
        size: int,
        issue_width: int,
        params: Optional[SwqueParams] = None,
        age_buckets: Optional[Dict[str, int]] = None,
        stats: Optional[PipelineStats] = None,
    ) -> None:
        self.params = params if params is not None else SwqueParams()
        super().__init__(
            size,
            issue_width,
            flpi_region_fraction=self.params.flpi_region_fraction,
            stats=stats,
        )
        queue_kwargs = dict(
            flpi_region_fraction=self.params.flpi_region_fraction,
            stats=self.stats,
        )
        self._circ_pc = CircPCQueue(size, issue_width, **queue_kwargs)
        self._age = AgeQueue(size, issue_width, buckets=age_buckets, **queue_kwargs)
        # The paper's example (Figure 7) starts in CIRC-PC mode.
        self.mode = MODE_CIRC_PC
        self._active: IssueQueue = self._circ_pc
        # Grants happen inside the sub-queues, so the guard mode chosen
        # before they existed must reach them now.
        self._circ_pc.guards = self._guards
        self._age.guards = self._guards
        # Per-mode FLPI thresholds; the AGE one adapts (Section 3.2.3).
        self._flpi_threshold = {
            MODE_CIRC_PC: self.params.flpi_threshold,
            MODE_AGE: self.params.flpi_threshold,
        }
        self.instability_counter = 0
        self._pending_switch = False
        # Interval accounting (in committed instructions).
        self._interval_committed = 0
        self._reset_committed = 0
        self._interval_llc_start = 0
        self._llc_total = 0
        #: (instruction_count, mode) history of decisions, for analysis.
        self.mode_history: List[tuple] = []

    # -- delegation to the active queue ----------------------------------------------

    def can_dispatch(self) -> bool:
        return self._active.can_dispatch()

    def dispatch(self, inst: DynInst) -> None:
        self._active.dispatch(inst)
        self.occupancy = self._active.occupancy

    def wakeup(self, inst: DynInst) -> None:
        self._active.wakeup(inst)

    def ordered_ready(self) -> List[DynInst]:
        return self._active.ordered_ready()

    def priority_rank(self, inst: DynInst) -> int:
        return self._active.priority_rank(inst)

    def remove(self, inst: DynInst) -> None:
        self._active.remove(inst)
        self.occupancy = self._active.occupancy

    def select(self, fu_pool: "FunctionUnitPool", cycle: int) -> List[DynInst]:
        issued = self._active.select(fu_pool, cycle)
        self.occupancy = self._active.occupancy
        return issued

    @property
    def ready(self):  # type: ignore[override]
        return self._active.ready

    @ready.setter
    def ready(self, value) -> None:
        # Assigned by IssueQueue.__init__ before the sub-queues exist.
        if "_active" in self.__dict__:
            self._active.ready = value

    @property
    def guards(self) -> str:  # type: ignore[override]
        return self._guards

    @guards.setter
    def guards(self, value: str) -> None:
        # Assigned by IssueQueue.__init__ before the sub-queues exist;
        # the pipeline reassigns it later, which must reach both of them.
        self._guards = value
        if "_active" in self.__dict__:
            self._circ_pc.guards = value
            self._age.guards = value

    def tick(self, cycle: int) -> None:
        self.stats.iq_occupancy_sum += self.occupancy
        if self.mode == MODE_CIRC_PC:
            self.stats.cycles_in_circ_pc += 1
        else:
            self.stats.cycles_in_age += 1

    def check_invariants(self) -> None:
        """Base and active sub-queue checks plus SWQUE mode consistency."""
        super().check_invariants()
        self._active.check_invariants()
        if self.mode not in (MODE_CIRC_PC, MODE_AGE):
            raise InvariantViolation(
                "swque-mode", f"unknown mode label {self.mode!r}"
            )
        expected = self._circ_pc if self.mode == MODE_CIRC_PC else self._age
        if self._active is not expected:
            raise InvariantViolation(
                "swque-mode",
                f"mode is {self.mode!r} but the active sub-queue is "
                f"{type(self._active).__name__}",
            )
        inactive = self._age if self._active is self._circ_pc else self._circ_pc
        if inactive.occupancy:
            raise InvariantViolation(
                "swque-inactive-occupancy",
                f"inactive {type(inactive).__name__} holds "
                f"{inactive.occupancy} instructions",
            )
        if self.occupancy != self._active.occupancy:
            raise InvariantViolation(
                "swque-occupancy-mirror",
                f"wrapper occupancy {self.occupancy} != active sub-queue "
                f"occupancy {self._active.occupancy}",
            )

    # -- the switching scheme ----------------------------------------------------------

    @property
    def flush_penalty(self) -> int:  # type: ignore[override]
        return self.params.switch_penalty

    @property
    def wants_flush(self) -> bool:
        return self._pending_switch

    def note_commit(self, count: int, llc_misses_total: int) -> None:
        """Commit-stage hook; evaluates the mode at interval boundaries."""
        if not count:
            return
        if llc_misses_total < self._interval_llc_start:
            # The stats counters were reset (end of measurement warmup);
            # restart the current interval so a truncated miss count is
            # never evaluated as if it covered the whole interval.
            self._interval_llc_start = llc_misses_total
            self._interval_committed = 0
            self._active.reset_interval_counters()
        self._llc_total = llc_misses_total
        self._interval_committed += count
        self._reset_committed += count
        if self._interval_committed >= self.params.switch_interval:
            self._evaluate_interval()
        if self._reset_committed >= self.params.instability_reset_interval:
            # Periodic re-learning (Section 3.2.3).
            self.instability_counter = 0
            self._flpi_threshold[MODE_AGE] = self.params.flpi_threshold
            self._reset_committed = 0

    def _evaluate_interval(self) -> None:
        mpki = 1000.0 * (self._llc_total - self._interval_llc_start) / self._interval_committed
        flpi = self._active.interval_flpi
        mpki_high = mpki > self.params.mpki_threshold
        flpi_high = flpi > self._flpi_threshold[self.mode]
        # AGE-favouring policy: CIRC-PC only when both metrics are low.
        next_mode = MODE_AGE if (mpki_high or flpi_high) else MODE_CIRC_PC

        # Instability tracking applies to the FLPI decision in CIRC-PC mode
        # (the problematic direction during low-MPKI phases).
        if self.mode == MODE_CIRC_PC and not mpki_high:
            if flpi_high:
                self.instability_counter = min(
                    self.instability_counter + 1, self.params.instability_threshold
                )
                if self.instability_counter >= self.params.instability_threshold:
                    self._flpi_threshold[MODE_AGE] = max(
                        0.0,
                        self._flpi_threshold[MODE_AGE]
                        - self.params.flpi_threshold_reduction,
                    )
                    self.instability_counter = 0
            else:
                self.instability_counter = 0

        if next_mode != self.mode:
            self._pending_switch = True
            self.mode_history.append((self.stats.committed, next_mode))
            if self.telemetry is not None:
                # The triggering metric values, as evaluated: the whole
                # point of event tracing is seeing *why* a switch fired.
                self.telemetry.event(
                    EV_MODE_SWITCH_DECIDED,
                    category="swque",
                    from_mode=self.mode,
                    to_mode=next_mode,
                    mpki=mpki,
                    flpi=flpi,
                    mpki_threshold=self.params.mpki_threshold,
                    flpi_threshold=self._flpi_threshold[self.mode],
                    mpki_high=mpki_high,
                    flpi_high=flpi_high,
                    instability_counter=self.instability_counter,
                    committed=self.stats.committed,
                )

        # Start the next interval.
        self._interval_committed = 0
        self._interval_llc_start = self._llc_total
        self._active.reset_interval_counters()

    # -- flush / reconfiguration ---------------------------------------------------------

    def flush(self) -> None:
        """Squash both sub-queues; complete a pending mode switch if any."""
        self._circ_pc.flush()
        self._age.flush()
        self.occupancy = 0
        if self._pending_switch:
            previous = self.mode
            self.mode = MODE_AGE if self.mode == MODE_CIRC_PC else MODE_CIRC_PC
            self._active = self._age if self.mode == MODE_AGE else self._circ_pc
            self._active.reset_interval_counters()
            self._pending_switch = False
            self.stats.mode_switches += 1
            if self.telemetry is not None:
                self.telemetry.event(
                    EV_MODE_SWITCH,
                    category="swque",
                    from_mode=previous,
                    to_mode=self.mode,
                    total_switches=self.stats.mode_switches,
                )

    # -- introspection -----------------------------------------------------------------

    def telemetry_probe(self) -> dict:
        """Controller state for the interval sampler, active queue included."""
        probe = {
            "mode": self.mode,
            "instability_counter": self.instability_counter,
            "age_flpi_threshold": self._flpi_threshold[MODE_AGE],
            "pending_switch": self._pending_switch,
            "interval_committed": self._interval_committed,
        }
        probe.update(self._active.telemetry_probe())
        return probe

    @property
    def age_flpi_threshold(self) -> float:
        return self._flpi_threshold[MODE_AGE]

    def mode_cycle_fractions(self) -> Dict[str, float]:
        """Fraction of execution cycles spent in each mode (Figure 10)."""
        total = self.stats.cycles_in_circ_pc + self.stats.cycles_in_age
        if not total:
            return {MODE_CIRC_PC: 0.0, MODE_AGE: 0.0}
        return {
            MODE_CIRC_PC: self.stats.cycles_in_circ_pc / total,
            MODE_AGE: self.stats.cycles_in_age / total,
        }
