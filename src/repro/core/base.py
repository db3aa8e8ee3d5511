"""Issue-queue base class: the contract every IQ organization implements.

The pipeline interacts with an IQ through five operations:

* :meth:`IssueQueue.can_dispatch` / :meth:`IssueQueue.dispatch` -- back end
  of the rename/dispatch stage.
* :meth:`IssueQueue.wakeup` -- called when an instruction's last source
  operand resolves; the instruction joins the ready set.
* :meth:`IssueQueue.select` -- the wakeup-select stage: choose up to
  ``issue_width`` ready instructions in *priority order*, subject to
  function-unit availability, and remove them from the queue.
* :meth:`IssueQueue.flush` -- squash everything (mispredict-style recovery,
  used by SWQUE mode switches).

Priority is the whole point of the paper, so the base class centralizes the
bookkeeping around it: :meth:`priority_rank` maps an instruction to its
current rank in the select order (0 = highest priority), and select() counts
issues from the *lowest-priority region* of the queue — the FLPI metric that
drives SWQUE's mode switching (Section 3.2.1).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, List, Optional, TYPE_CHECKING

from repro.cpu.dyninst import DynInst
from repro.cpu.stats import PipelineStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cpu.fu import FunctionUnitPool

#: Valid grant/structural guard modes (see :attr:`IssueQueue.guards`).
GUARD_MODES = ("full", "sampled", "off")

#: Sampled guards check one grant (or cycle) in ``GUARD_SAMPLE_PERIOD``.
#: A power of two keeps the hot-path test a single AND.
GUARD_SAMPLE_PERIOD = 64


def insts_by_slot(mask: int, slots, base: int = 0, out=None) -> List[DynInst]:
    """Expand a slot bitmask into instructions, ascending slot order.

    ``mask`` bit ``i`` selects ``slots[i + base]``.  Since slot numbers are
    unique this is exactly ``sorted(key=iq_slot)`` of the selected entries,
    without the sort or the per-element key call.
    """
    if out is None:
        out = []
    append = out.append
    while mask:
        low = mask & -mask
        append(slots[low.bit_length() - 1 + base])
        mask ^= low
    return out


class InvariantViolation(RuntimeError):
    """A structural invariant of the pipeline or an issue queue broke.

    Raised by the always-on guard layer (see ``Pipeline._check_invariants``
    and :meth:`IssueQueue.check_invariants`).  Carries enough context to
    localize the corruption: which check fired, the cycle and committed
    instruction count at the time, and the partial
    :class:`~repro.cpu.stats.PipelineStats` (filled in by ``Pipeline.run``
    before the exception escapes the simulation).
    """

    def __init__(
        self,
        check: str,
        detail: str,
        cycle: Optional[int] = None,
        committed: Optional[int] = None,
        partial_stats: Optional[PipelineStats] = None,
    ) -> None:
        super().__init__(f"invariant {check!r} violated: {detail}")
        self.check = check
        self.detail = detail
        self.cycle = cycle
        self.committed = committed
        self.partial_stats = partial_stats


class IssueQueue(ABC):
    """Abstract issue queue with shared ready-set and FLPI machinery."""

    #: Short policy name, overridden by subclasses (used in reports).
    name = "abstract"

    #: Slot bitmask of the ready set in queues whose select walks it (the
    #: RAND and CIRC families); None in queues that order the list itself.
    _ready_mask: Optional[int] = None

    def __init__(
        self,
        size: int,
        issue_width: int,
        flpi_region_fraction: float = 0.25,
        stats: Optional[PipelineStats] = None,
    ) -> None:
        if size < 1:
            raise ValueError("issue queue size must be positive")
        if issue_width < 1:
            raise ValueError("issue width must be positive")
        if not 0.0 < flpi_region_fraction <= 1.0:
            raise ValueError("FLPI region fraction must be in (0, 1]")
        self.size = size
        self.issue_width = issue_width
        self.stats = stats if stats is not None else PipelineStats()
        #: First rank that counts as the low-priority region.
        self.low_region_start = max(1, int(round(size * (1.0 - flpi_region_fraction))))
        #: Instructions whose operands are all ready, awaiting selection.
        self.ready: List[DynInst] = []
        self.occupancy = 0
        # Per-interval FLPI counters (reset by the SWQUE controller).
        self.interval_issues = 0
        self.interval_low_issues = 0
        #: Grant-guard mode: "full" checks every grant, "sampled" one in
        #: :data:`GUARD_SAMPLE_PERIOD`, "off" none.  Set by the pipeline
        #: (full when a fault injector is attached, sampled otherwise).
        self.guards = "full"
        self._guard_grants = 0

    # -- dispatch ------------------------------------------------------------------

    @abstractmethod
    def can_dispatch(self) -> bool:
        """True when one more instruction can be written into the queue."""

    @abstractmethod
    def dispatch(self, inst: DynInst) -> None:
        """Write ``inst`` into the queue (caller checked :meth:`can_dispatch`)."""

    # -- wakeup-select ---------------------------------------------------------------

    def wakeup(self, inst: DynInst) -> None:
        """All of ``inst``'s source operands are now resolved."""
        self.ready.append(inst)

    @abstractmethod
    def ordered_ready(self) -> List[DynInst]:
        """The current ready set, sorted highest priority first."""

    @abstractmethod
    def priority_rank(self, inst: DynInst) -> int:
        """Current select-priority rank of ``inst`` (0 = highest, < size)."""

    @abstractmethod
    def remove(self, inst: DynInst) -> None:
        """Remove an issued instruction's entry (slot becomes a hole)."""

    def select(self, fu_pool: "FunctionUnitPool", cycle: int) -> List[DynInst]:
        """Issue up to ``issue_width`` ready instructions in priority order.

        Walks the ready set highest-priority first, granting each candidate
        whose function-unit class still has a free unit this cycle, until the
        issue width is exhausted.  Granted instructions are removed from the
        queue and returned.
        """
        if not self.ready:
            return []
        self.stats.iq_select_ops += 1
        width = self.issue_width
        try_claim = fu_pool.try_claim
        granted: List[DynInst] = []
        append = granted.append
        for inst in self.ordered_ready():
            if try_claim(inst, cycle):
                append(inst)
                if len(granted) >= width:
                    break
        self._commit_grants(granted)
        return granted

    def _guard_grant(self, inst: DynInst) -> None:
        """The per-grant invariant checks (the guard layer's grant half).

        Run for every grant in "full" mode, for one grant in
        :data:`GUARD_SAMPLE_PERIOD` in "sampled" mode, never in "off".
        The checks are side-effect free, so sampling them cannot change
        simulation behaviour on a healthy run.
        """
        if inst.issued:
            raise InvariantViolation(
                "double-issue", f"instruction #{inst.seq} granted twice"
            )
        if inst.pending_sources:
            raise InvariantViolation(
                "issue-unready",
                f"instruction #{inst.seq} granted with "
                f"{inst.pending_sources} unresolved sources",
            )
        if inst.squashed:
            raise InvariantViolation(
                "issue-squashed",
                f"squashed instruction #{inst.seq} granted",
            )

    def _commit_grants(self, granted: Iterable[DynInst]) -> None:
        """Account for and remove a cycle's granted instructions."""
        guards = self.guards
        stats = self.stats
        low_region_start = self.low_region_start
        for inst in granted:
            if guards == "full":
                self._guard_grant(inst)
            elif guards == "sampled":
                self._guard_grants += 1
                if not self._guard_grants & (GUARD_SAMPLE_PERIOD - 1):
                    self._guard_grant(inst)
            rank = self.priority_rank(inst)
            self.interval_issues += 1
            if rank >= low_region_start:
                self.interval_low_issues += 1
                stats.low_region_issues += 1
            self.ready.remove(inst)
            self.remove(inst)
            stats.iq_tag_ram_reads += 1
            stats.iq_payload_reads += 1

    # -- maintenance ---------------------------------------------------------------

    def evict(self, inst: DynInst) -> None:
        """Remove one squashed instruction (mispredict squash-younger)."""
        for idx, candidate in enumerate(self.ready):
            if candidate is inst:
                del self.ready[idx]
                break
        if inst.in_iq:
            self.remove(inst)

    def flush(self) -> None:
        """Squash every instruction in the queue."""
        self.ready.clear()
        self.occupancy = 0

    def tick(self, cycle: int) -> None:
        """Per-cycle hook; default records occupancy for utilization stats."""
        self.stats.iq_occupancy_sum += self.occupancy

    def check_invariants(self) -> None:
        """Cheap structural self-check; raise :class:`InvariantViolation`.

        Called once per cycle by the pipeline's guard layer.  The base
        checks are cheap: occupancy stays within ``[0, size]``, the ready
        set never exceeds the queue capacity, and in a masked queue the
        ready matrix holds exactly the ready set's entries (the matrix is
        the only source of select order, so an entry written to the list
        behind the queue's back would never issue).  Subclasses extend
        this with organization-specific state checks (see SWQUE's mode
        consistency).
        """
        if not 0 <= self.occupancy <= self.size:
            raise InvariantViolation(
                "iq-occupancy",
                f"occupancy {self.occupancy} outside [0, {self.size}]",
            )
        if len(self.ready) > self.size:
            raise InvariantViolation(
                "iq-ready-overflow",
                f"{len(self.ready)} ready entries in a {self.size}-entry queue",
            )
        mask = self._ready_mask
        if mask is not None and bin(mask).count("1") != len(self.ready):
            raise InvariantViolation(
                "iq-ready-mask",
                f"ready matrix holds {bin(mask).count('1')} entries but the "
                f"ready set {len(self.ready)}",
            )

    # -- mode-switching hooks (no-ops except in SWQUE) -------------------------------

    #: Cycles of front-end penalty the pipeline charges when flushing on
    #: behalf of the queue (SWQUE mode switches).
    flush_penalty = 0

    #: Telemetry sink (:class:`repro.telemetry.Telemetry`), set by
    #: ``Telemetry.attach``; queues emit discrete events through it.
    #: ``None`` (the default) means every probe site short-circuits.
    telemetry = None

    def telemetry_probe(self) -> dict:
        """Organization-specific state published per telemetry interval.

        Overridden by queues with interesting internal state (SWQUE mode
        and instability counter, CIRC-PC wrap-around status).  Called at
        interval boundaries only, never per cycle.
        """
        return {}

    @property
    def wants_flush(self) -> bool:
        """True when the queue asks the pipeline for a flush (mode switch)."""
        return False

    def note_commit(self, count: int, llc_misses_total: int) -> None:
        """Commit-stage hook: ``count`` instructions retired this cycle."""

    # -- FLPI ------------------------------------------------------------------------

    @property
    def interval_flpi(self) -> float:
        """Fraction of this interval's issues that came from the low region."""
        if not self.interval_issues:
            return 0.0
        return self.interval_low_issues / self.interval_issues

    def reset_interval_counters(self) -> None:
        self.interval_issues = 0
        self.interval_low_issues = 0

    # -- misc ------------------------------------------------------------------------

    @property
    def is_full(self) -> bool:
        return not self.can_dispatch()

    def __len__(self) -> int:
        return self.occupancy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} size={self.size} occ={self.occupancy} "
            f"ready={len(self.ready)}>"
        )
