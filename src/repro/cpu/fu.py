"""Function-unit pool: per-class issue-port and occupancy constraints.

Pipelined units accept one instruction per cycle; non-pipelined ops (the
divides) hold their unit busy for the full latency.  The select logic asks
:meth:`FunctionUnitPool.try_claim` for each grant candidate in priority
order, so issue conflicts resolve in favour of higher-priority
instructions -- which is the phenomenon the whole paper is about.
"""

from __future__ import annotations

from typing import Dict, List

from repro.config import ProcessorConfig
from repro.cpu.dyninst import DynInst
from repro.cpu.isa import FuClass


class FunctionUnitPool:
    """Tracks per-class unit availability within and across cycles."""

    def __init__(self, config: ProcessorConfig) -> None:
        counts = {
            FuClass.IALU: config.num_ialu,
            FuClass.IMULT: config.num_imult,
            FuClass.LDST: config.num_ldst,
            FuClass.FPU: config.num_fpu,
        }
        for fu_class, count in counts.items():
            if count < 1:
                raise ValueError(f"need at least one {fu_class.value} unit")
        self.counts = counts
        #: Cycle at which each unit becomes free again (non-pipelined ops).
        self._free_at: Dict[FuClass, List[int]] = {
            cls: [0] * n for cls, n in counts.items()
        }
        #: All-zero prototype for the per-cycle usage reset (dict.copy is
        #: one C call; a Python-level loop over the classes is not).
        self._zero_used: Dict[FuClass, int] = {cls: 0 for cls in counts}
        #: Issue slots used in cycle ``_cycle``, per class.  Reset lazily
        #: by the first query of a later cycle, so a cycle that issues
        #: nothing costs nothing here.
        self._used: Dict[FuClass, int] = self._zero_used.copy()
        self._cycle = -1

    def new_cycle(self, cycle: int) -> None:
        """Reset the per-cycle issue-slot usage."""
        self._cycle = cycle
        self._used = self._zero_used.copy()

    def available(self, fu_class: FuClass, cycle: int) -> int:
        """Units of ``fu_class`` that can still accept an op this cycle."""
        if cycle != self._cycle:
            self.new_cycle(cycle)
        free = 0
        for t in self._free_at[fu_class]:
            if t <= cycle:
                free += 1
        return free - self._used[fu_class]

    def try_claim(self, inst: DynInst, cycle: int) -> bool:
        """Claim a unit for ``inst`` this cycle; False when none is free."""
        fu_class = inst.fu_class
        if cycle != self._cycle:
            self.new_cycle(cycle)
        used = self._used
        free = 0
        units = self._free_at[fu_class]
        for t in units:
            if t <= cycle:
                free += 1
        if free <= used[fu_class]:
            return False
        used[fu_class] += 1
        if inst.unpipelined:
            busy_until = cycle + inst.base_latency
            for idx, free_time in enumerate(units):
                if free_time <= cycle:
                    units[idx] = busy_until
                    break
        return True

    def flush(self) -> None:
        """Release every unit (pipeline squash).

        Non-pipelined units finish their in-flight op in reality, but after
        a squash nothing consumes the result; freeing them immediately is a
        negligible-error simplification.
        """
        for units in self._free_at.values():
            for idx in range(len(units)):
                units[idx] = 0
        self._used = self._zero_used.copy()
