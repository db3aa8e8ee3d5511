"""RAND: the random queue (Section 2.3).

Instructions are dispatched into whatever slots are free ("holes"), so the
full capacity is always usable, but the physical order -- and therefore the
position-based select priority -- becomes effectively random over time.
Dispatch picks the lowest-numbered free slot, which is what makes the FLPI
metric meaningful: issues from high-numbered slots imply that ready
instructions are spread throughout a well-filled queue.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from repro.core.base import IssueQueue, insts_by_slot
from repro.cpu.dyninst import DynInst


class RandomQueue(IssueQueue):
    """Hole-filling issue queue with position-based (random) priority."""

    name = "rand"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._slots: List[Optional[DynInst]] = [None] * self.size
        self._free: List[int] = list(range(self.size))
        heapq.heapify(self._free)
        #: Int-as-bitset ready matrix: bit ``s`` set iff ``_slots[s]`` is
        #: in the ready set.  Lets ``ordered_ready`` iterate set bits in
        #: slot order instead of sorting the ready list every cycle.
        self._ready_mask = 0

    def can_dispatch(self) -> bool:
        return bool(self._free)

    def dispatch(self, inst: DynInst) -> None:
        if not self._free:
            raise RuntimeError("dispatch into a full RAND queue")
        slot = heapq.heappop(self._free)
        self._slots[slot] = inst
        inst.iq_slot = slot
        inst.in_iq = True
        self.occupancy += 1

    def wakeup(self, inst: DynInst) -> None:
        self.ready.append(inst)
        self._ready_mask |= 1 << inst.iq_slot

    def ordered_ready(self) -> List[DynInst]:
        # Position-based select logic: lower slot = higher priority.
        return insts_by_slot(self._ready_mask, self._slots)

    def priority_rank(self, inst: DynInst) -> int:
        return inst.iq_slot

    def remove(self, inst: DynInst) -> None:
        slot = inst.iq_slot
        if slot < 0 or self._slots[slot] is not inst:
            raise KeyError(f"instruction #{inst.seq} not in RAND queue")
        self._slots[slot] = None
        self._ready_mask &= ~(1 << slot)
        heapq.heappush(self._free, slot)
        inst.in_iq = False
        inst.iq_slot = -1
        self.occupancy -= 1

    def flush(self) -> None:
        for slot, inst in enumerate(self._slots):
            if inst is not None:
                inst.in_iq = False
                inst.iq_slot = -1
                self._slots[slot] = None
        self._free = list(range(self.size))
        heapq.heapify(self._free)
        self._ready_mask = 0
        super().flush()
