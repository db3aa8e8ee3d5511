"""CIRC-PC: the priority-correcting circular queue (Section 3.1).

The paper's first contribution.  The circular storage discipline is
inherited from :class:`~repro.core.circ.CircularQueue`; what changes is the
select path:

* Ready **NR** instructions (not wrapped around) request the original
  select logic S_NR and issue normally, with correct position priority.
* Ready **RV** instructions (dispatched past the wrap-around point while
  the queue spans the physical boundary) request a second select logic
  S_RV.  Its grants read the tag RAM in a *time slice* at the start of the
  next cycle, and the DTM merges those tags with the next cycle's NR tags,
  NR first.  An RV grant that loses the merge is discarded; the
  instruction stays in the queue and simply requests again.

Net effect: priority is fully corrected (NR instructions always beat RV
instructions, and each group is in age order), at the cost of one extra
cycle of issue latency for RV instructions -- which the paper shows is
nearly free because ready-but-wrapped instructions are young and therefore
latency-tolerant (Section 4.4).

One corner the hardware scheme shares: an entry's reverse flag is set once
at dispatch and gated only by the *global* wrapped signal, so an old
instruction that lingers from one wrap era into the next is classified RV
again and can be out-ranked within the RV group.  This is rare (it needs a
full pointer revolution around a still-waiting instruction) and matches
what the Figure 5 entry slice would actually compute.
"""

from __future__ import annotations

from typing import List, TYPE_CHECKING

from repro.core.base import insts_by_slot
from repro.core.circ import CircularQueue
from repro.cpu.dyninst import DynInst

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cpu.fu import FunctionUnitPool


class CircPCQueue(CircularQueue):
    """Priority-correcting circular queue (CIRC-PC)."""

    name = "circ-pc"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: RV instructions granted by S_RV last cycle, in priority order;
        #: their destination tags sit in the DTM's pending tag latches.
        self._pending_rv: List[DynInst] = []

    # -- priority ------------------------------------------------------------------

    def ordered_ready(self) -> List[DynInst]:
        """Corrected order: NR before RV, each group in position order.

        With the circular discipline this equals the true age order, which
        is exactly the point of the priority correction.
        """
        mask, slots = self._ready_mask, self._slots
        if not self.spans_wraparound:
            return insts_by_slot(mask, slots)
        out = insts_by_slot(mask & ~self._rv_mask, slots)
        return insts_by_slot(mask & self._rv_mask, slots, out=out)

    def priority_rank(self, inst: DynInst) -> int:
        rank = inst.iq_vpos - self._vh
        assert 0 <= rank < self.size, "virtual position outside region"
        return rank

    # -- the two-select, time-sliced issue path --------------------------------------

    def select(self, fu_pool: "FunctionUnitPool", cycle: int) -> List[DynInst]:
        ready = self.ready
        pending = self._pending_rv
        if not ready and not pending:
            return []
        self.stats.iq_select_ops += 1
        width = self.issue_width
        try_claim = fu_pool.try_claim
        slots = self._slots
        granted: List[DynInst] = []

        # S_NR: this cycle's NR instructions, position order.  Figure 5: a
        # request goes to S_RV instead when the entry's reverse flag is set
        # AND the queue currently spans the wrap-around boundary.
        # Instructions with a pending RV grant are excluded even if the
        # wrap-around signal has meanwhile dropped (their grant is already
        # in flight).
        nr_mask = self._ready_mask
        if self.spans_wraparound:
            nr_mask &= ~self._rv_mask
        for inst in pending:
            # A pending entry may have been squashed and its slot reused;
            # only clear the bit while the slot is still its.
            if inst.in_iq and slots[inst.iq_slot] is inst:
                nr_mask &= ~(1 << inst.iq_slot)
        for inst in insts_by_slot(nr_mask, slots):
            if len(granted) >= width:
                break
            if try_claim(inst, cycle):
                granted.append(inst)

        # DTM merge: last cycle's RV grants fill the ports left over by the
        # NR grants (opposing alignment, NR wins).  Losing RV grants are
        # discarded -- the instructions stay put and request again below.
        for inst in pending:
            if len(granted) >= width:
                break
            if not inst.in_iq or inst.squashed:
                continue
            if try_claim(inst, cycle):
                granted.append(inst)

        self._commit_grants(granted)

        # S_RV: select up to issue_width ready RV instructions for the next
        # cycle's time-sliced tag RAM read.  Re-read the matrix here: the
        # grants just committed moved head/tail, which can change both the
        # ready bits and the wrapped-around signal.
        rv_sel = self._ready_mask & self._rv_mask if self.spans_wraparound else 0
        rv_ready = insts_by_slot(rv_sel, slots) if rv_sel else []
        if rv_ready:
            self._pending_rv = rv_ready[:width]
            self.stats.iq_select_rv_ops += 1
            # Every S_RV grant performs a time-sliced tag RAM read at the
            # start of the next cycle, whether or not it survives the merge.
            self.stats.iq_tag_ram_rv_reads += len(self._pending_rv)
        else:
            self._pending_rv = []
        return granted

    # -- maintenance ---------------------------------------------------------------

    def flush(self) -> None:
        self._pending_rv = []
        super().flush()

    # -- introspection ---------------------------------------------------------------

    def telemetry_probe(self) -> dict:
        """Wrap-around state for the interval sampler.

        ``wrapped``/``pending_rv`` are what occupancy means cannot show:
        whether the queue currently spans the physical boundary (and RV
        grants are eating the extra issue cycle) at each interval edge.
        """
        return {
            "wrapped": bool(self.spans_wraparound),
            "pending_rv": len(self._pending_rv),
            "holes": self.holes,
        }
