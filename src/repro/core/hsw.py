"""Hierarchical scheduling window (Brekelbaum et al., MICRO 2002).

A related-work baseline the paper discusses (Section 5): the IQ is split
into a *large slow* queue and a *small fast* queue.  Dispatch fills the
slow queue; each cycle a mover scans the slow queue's oldest entries and
promotes the oldest not-yet-ready instructions into the fast queue, where
latency-critical instructions end up issuing from a single-cycle
scheduler.  Ready instructions can also issue directly from the slow
queue, but only with a multi-cycle scheduling loop (modelled as an extra
select latency), which is what makes the slow queue "slow".

This gives the same latency-tolerance segregation idea as CIRC-PC but, as
the paper argues, at the cost of moving instructions between queues every
cycle.  We count those moves so the energy model can price the scheme.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.core.base import IssueQueue
from repro.cpu.dyninst import DynInst

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cpu.fu import FunctionUnitPool


class HierarchicalQueue(IssueQueue):
    """Two-level slow/fast scheduling window."""

    name = "hsw"

    #: Extra scheduling latency of the slow queue, in cycles.
    SLOW_LATENCY = 2
    #: Instructions promoted per cycle (mover bandwidth).
    MOVE_BANDWIDTH = 4

    def __init__(
        self,
        size: int,
        issue_width: int,
        fast_entries: Optional[int] = None,
        **kwargs,
    ) -> None:
        super().__init__(size, issue_width, **kwargs)
        self.fast_entries = fast_entries if fast_entries is not None else max(
            issue_width * 2, size // 8
        )
        if not 0 < self.fast_entries < size:
            raise ValueError("fast queue must be smaller than the window")
        #: Age-ordered contents of each level.
        self._slow: List[DynInst] = []
        self._fast: List[DynInst] = []
        #: Ready slow-queue instructions become issuable only after the
        #: slow scheduling loop: seq -> earliest_issue_cycle.  Keyed by
        #: ``seq`` (unique in the run), never ``id()`` (reused once an
        #: instruction is freed).
        self._slow_ready_at: dict = {}
        self.moves = 0

    # -- dispatch ------------------------------------------------------------------

    def can_dispatch(self) -> bool:
        return self.occupancy < self.size

    def dispatch(self, inst: DynInst) -> None:
        if not self.can_dispatch():
            raise RuntimeError("dispatch into a full HSW window")
        inst.in_iq = True
        self._slow.append(inst)
        self.occupancy += 1

    # -- mover ---------------------------------------------------------------------

    def _promote(self) -> None:
        """Move the oldest *non-ready* slow instructions into the fast queue.

        Following the paper's description of the scheme: latency-critical
        instructions are the old ones still waiting on operands; by the
        time they become ready they sit in the single-cycle fast queue.
        """
        space = self.fast_entries - len(self._fast)
        moved = 0
        index = 0
        while space > 0 and moved < self.MOVE_BANDWIDTH and index < len(self._slow):
            inst = self._slow[index]
            if not inst.ready:
                self._slow.pop(index)
                self._fast.append(inst)
                self._slow_ready_at.pop(inst.seq, None)
                moved += 1
                space -= 1
            else:
                index += 1
        self.moves += moved
        self.stats.shift_compaction_moves += moved  # priced like data movement

    # -- wakeup-select ---------------------------------------------------------------

    def ordered_ready(self) -> List[DynInst]:
        # Used only for introspection; selection happens in select().
        fast_ids = {id(i) for i in self._fast}
        ready = sorted(self.ready, key=lambda i: (id(i) not in fast_ids, i.seq))
        return ready

    def priority_rank(self, inst: DynInst) -> int:
        if any(inst is f for f in self._fast):
            return min(self._fast_index(inst), self.size - 1)
        return min(self.fast_entries + self._slow_index(inst), self.size - 1)

    def _fast_index(self, inst: DynInst) -> int:
        for idx, candidate in enumerate(self._fast):
            if candidate is inst:
                return idx
        raise KeyError(f"instruction #{inst.seq} not in fast queue")

    def _slow_index(self, inst: DynInst) -> int:
        for idx, candidate in enumerate(self._slow):
            if candidate is inst:
                return idx
        raise KeyError(f"instruction #{inst.seq} not in slow queue")

    def select(self, fu_pool: "FunctionUnitPool", cycle: int) -> List[DynInst]:
        self._promote()
        if not self.ready:
            return []
        self.stats.iq_select_ops += 1
        width = self.issue_width
        try_claim = fu_pool.try_claim
        fast_ids = {id(i) for i in self._fast}
        by_age = sorted(self.ready, key=lambda i: i.seq)
        granted: List[DynInst] = []
        # Fast queue: single-cycle scheduling, age order.
        for inst in by_age:
            if len(granted) >= width:
                break
            if id(inst) not in fast_ids:
                continue
            if try_claim(inst, cycle):
                granted.append(inst)
        # Slow queue: ready instructions issue only after the multi-cycle
        # scheduling loop.
        slow_ready_at = self._slow_ready_at
        for inst in by_age:
            if len(granted) >= width:
                break
            if id(inst) in fast_ids or any(inst is g for g in granted):
                continue
            ready_at = slow_ready_at.setdefault(
                inst.seq, cycle + self.SLOW_LATENCY
            )
            if cycle < ready_at:
                continue
            if try_claim(inst, cycle):
                granted.append(inst)
        self._commit_grants(granted)
        return granted

    def select_idle(self) -> bool:
        return False  # the mover runs inside every select

    # -- removal / maintenance ---------------------------------------------------------

    def remove(self, inst: DynInst) -> None:
        for queue in (self._fast, self._slow):
            for idx, candidate in enumerate(queue):
                if candidate is inst:
                    del queue[idx]
                    inst.in_iq = False
                    self.occupancy -= 1
                    self._slow_ready_at.pop(inst.seq, None)
                    return
        raise KeyError(f"instruction #{inst.seq} not in HSW window")

    def flush(self) -> None:
        for inst in self._fast + self._slow:
            inst.in_iq = False
        self._fast.clear()
        self._slow.clear()
        self._slow_ready_at.clear()
        super().flush()
