"""Rearranging random queue with an old queue (Sakai et al., ICCD 2018).

A related-work baseline from the paper's own group (Section 5): the IQ is
a random queue plus a small *old queue*.  Every cycle, up to
``MOVE_BANDWIDTH`` of the oldest instructions in the main queue move into
the old queue; the shared select logic gives old-queue entries higher
priority than every main-queue entry.  The net effect is that *multiple*
oldest instructions get high priority (where the age matrix protects only
one), while the main queue keeps RAND's full capacity efficiency.

The cost, as with SHIFT, is instruction movement -- counted so the energy
model can price it.
"""

from __future__ import annotations

from typing import List, TYPE_CHECKING

from repro.core.base import insts_by_slot
from repro.core.rand import RandomQueue
from repro.cpu.dyninst import DynInst

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cpu.fu import FunctionUnitPool


class OldQueue(RandomQueue):
    """RAND main queue + small age-ordered old queue."""

    name = "oldq"

    #: Old-queue capacity and per-cycle mover bandwidth (the ICCD paper
    #: uses a small old queue of roughly an issue group).
    OLD_ENTRIES = 8
    MOVE_BANDWIDTH = 2

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Age-ordered old-queue contents (subset of the window).
        self._old: List[DynInst] = []
        self.moves = 0

    def _rearrange(self) -> None:
        """Move the oldest main-queue instructions into the old queue."""
        moved = 0
        while len(self._old) < self.OLD_ENTRIES and moved < self.MOVE_BANDWIDTH:
            candidates = [
                inst for inst in self._slots
                if inst is not None and not any(inst is o for o in self._old)
            ]
            if not candidates:
                break
            oldest = min(candidates, key=lambda i: i.seq)
            self._old.append(oldest)
            moved += 1
        if moved:
            self.moves += moved
            self.stats.shift_compaction_moves += moved

    def ordered_ready(self) -> List[DynInst]:
        # Old-queue instructions first (age order among them), then the
        # main queue in position order.
        old = self._old
        if not old:
            return super().ordered_ready()
        mask = self._ready_mask
        # _rearrange appends in ascending seq order and removals keep it,
        # so filtering _old by readiness IS the age-sorted prefix.
        out: List[DynInst] = []
        old_mask = 0
        for inst in old:
            bit = 1 << inst.iq_slot
            if mask & bit:
                out.append(inst)
                old_mask |= bit
        return insts_by_slot(mask & ~old_mask, self._slots, out=out)

    def priority_rank(self, inst: DynInst) -> int:
        for idx, candidate in enumerate(self._old):
            if candidate is inst:
                return idx
        return min(self.OLD_ENTRIES + inst.iq_slot, self.size - 1)

    def select(self, fu_pool: "FunctionUnitPool", cycle: int) -> List[DynInst]:
        self._rearrange()
        return super().select(fu_pool, cycle)

    def remove(self, inst: DynInst) -> None:
        for idx, candidate in enumerate(self._old):
            if candidate is inst:
                del self._old[idx]
                break
        super().remove(inst)

    def flush(self) -> None:
        self._old.clear()
        super().flush()
