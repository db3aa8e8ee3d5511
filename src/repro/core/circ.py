"""CIRC: the conventional circular queue, and its perfect-priority oracle.

Instructions are dispatched at the tail of a circular buffer and stay
physically ordered by age, but there is no compaction: an issued
instruction leaves a *hole* that is only reclaimed when the head pointer
advances past it.  Two problems follow (Section 2.3):

* **capacity inefficiency** -- the allocated region (head..tail) may reach
  the full queue size while holes keep the real occupancy much lower, and
* **reversed priority on wrap-around** -- once the tail wraps past the end
  of the buffer, the youngest instructions occupy the lowest (=highest
  priority) physical slots.

:class:`CircularQueue` models the conventional queue (position-priority,
wrap-around and all).  :class:`CircularQueuePerfectPriority` is the
CIRC-PPRI oracle of Section 4.4: the same storage discipline, but the
select logic magically sees the true age order.  The paper's CIRC-PC
(:mod:`repro.core.circ_pc`) builds on this class.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.base import IssueQueue, insts_by_slot
from repro.cpu.dyninst import DynInst


class CircularQueue(IssueQueue):
    """Conventional circular issue queue (CIRC)."""

    name = "circ"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._slots: List[Optional[DynInst]] = [None] * self.size
        # Virtual (monotonically increasing) head/tail; physical slot of a
        # virtual position v is v % size.  The allocated region is [vh, vt).
        self._vh = 0
        self._vt = 0
        #: Ready matrix: bit ``s`` set iff the entry in slot ``s`` is ready.
        self._ready_mask = 0
        #: Reverse-flag matrix: bit ``s`` set iff the entry in slot ``s``
        #: was dispatched with its reverse flag set (ready or not).
        self._rv_mask = 0

    # -- geometry helpers ---------------------------------------------------------

    @property
    def head_slot(self) -> int:
        return self._vh % self.size

    @property
    def tail_slot(self) -> int:
        return self._vt % self.size

    @property
    def region_length(self) -> int:
        """Allocated entries between head and tail, holes included."""
        return self._vt - self._vh

    @property
    def spans_wraparound(self) -> bool:
        """True while the allocated region crosses the physical boundary.

        This is the "currently wrapped around" signal of Section 3.1.5: it
        gates each entry's reverse flag, so instructions dispatched as RV
        become NR again once the head pointer itself wraps past slot 0.
        """
        return self.head_slot + self.region_length > self.size

    # -- dispatch ------------------------------------------------------------------

    def can_dispatch(self) -> bool:
        # Tail may not catch up with head: the region length is the capacity
        # limit, regardless of how many holes it contains.
        return self.region_length < self.size

    def dispatch(self, inst: DynInst) -> None:
        if not self.can_dispatch():
            raise RuntimeError("dispatch into a full CIRC queue")
        slot = self.tail_slot
        assert self._slots[slot] is None, "tail slot should be free"
        self._slots[slot] = inst
        inst.iq_slot = slot
        inst.iq_vpos = self._vt
        # The reverse flag is set at dispatch time when the instruction is
        # written on the far side of the wrap-around point (Figure 5).
        inst.reverse_flag = slot < self.head_slot
        if inst.reverse_flag:
            self._rv_mask |= 1 << slot
        inst.in_iq = True
        self._vt += 1
        self.occupancy += 1

    # -- wakeup-select ---------------------------------------------------------------

    def wakeup(self, inst: DynInst) -> None:
        self.ready.append(inst)
        self._ready_mask |= 1 << inst.iq_slot

    # -- priority ------------------------------------------------------------------

    def ordered_ready(self) -> List[DynInst]:
        # Position-based select logic, oblivious to wrap-around: this is
        # exactly the reversed-priority problem of Section 3.1.1.
        return insts_by_slot(self._ready_mask, self._slots)

    def priority_rank(self, inst: DynInst) -> int:
        return inst.iq_slot

    # -- removal -------------------------------------------------------------------

    def remove(self, inst: DynInst) -> None:
        slot = inst.iq_slot
        if slot < 0 or self._slots[slot] is not inst:
            raise KeyError(f"instruction #{inst.seq} not in CIRC queue")
        self._slots[slot] = None
        bit = ~(1 << slot)
        self._ready_mask &= bit
        self._rv_mask &= bit
        inst.in_iq = False
        inst.iq_slot = -1
        self.occupancy -= 1
        self._advance_head()
        self._rewind_tail()

    def _advance_head(self) -> None:
        """Move the head pointer past leading holes (and nothing else)."""
        while self._vh < self._vt and self._slots[self._vh % self.size] is None:
            self._vh += 1

    def _rewind_tail(self) -> None:
        """Reclaim trailing holes (squashed or issued youngest entries).

        Interior holes remain unreclaimable -- that is CIRC's capacity
        inefficiency -- but a contiguous free region at the tail is
        recovered by pointer rollback, as on a mispredict squash.
        """
        while self._vt > self._vh and self._slots[(self._vt - 1) % self.size] is None:
            self._vt -= 1

    def flush(self) -> None:
        for slot, inst in enumerate(self._slots):
            if inst is not None:
                inst.in_iq = False
                inst.iq_slot = -1
                self._slots[slot] = None
        self._vh = 0
        self._vt = 0
        self._ready_mask = 0
        self._rv_mask = 0
        super().flush()

    # -- introspection ---------------------------------------------------------------

    @property
    def holes(self) -> int:
        """Allocated but empty entries: the capacity-inefficiency measure."""
        return self.region_length - self.occupancy


class CircularQueuePerfectPriority(CircularQueue):
    """CIRC-PPRI: circular storage with oracle-correct age priority.

    An idealization used in Section 4.4 to isolate the two CIRC problems:
    it keeps the capacity inefficiency of the circular buffer but always
    assigns the correct (age-based) priority, with no extra issue latency.
    CIRC-PC should perform almost identically to this oracle.
    """

    name = "circ-ppri"

    def ordered_ready(self) -> List[DynInst]:
        # Age order = slot order rotated so the head slot comes first: the
        # region is [vh, vt), so slots >= head_slot hold the pre-wrap (old)
        # entries and slots < head_slot the post-wrap (young) ones, each
        # group slot-ascending by construction.
        mask = self._ready_mask
        head = self.head_slot
        out = insts_by_slot(mask >> head, self._slots, base=head)
        if head:
            insts_by_slot(mask & ((1 << head) - 1), self._slots, out=out)
        return out

    def priority_rank(self, inst: DynInst) -> int:
        rank = inst.iq_vpos - self._vh
        assert 0 <= rank < self.size, "virtual position outside region"
        return rank
