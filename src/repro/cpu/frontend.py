"""Front end: fetch with I-cache, branch prediction, and wrong-path fetch.

On a mispredicted branch the front end keeps fetching -- down the *wrong
path*.  Wrong-path instructions are synthesized junk (plausible op mix,
random register dependences, random addresses): they rename, dispatch,
occupy window resources, and compete for issue slots exactly like real
work, until the branch resolves.  Resolution squashes everything younger
than the branch and restarts fetch on the correct path after the
misprediction penalty.

This matters for the paper's subject: the age order is what lets a
scheduler prefer the (older) unresolved branch's dataflow slice over
(younger) wrong-path junk, so IQ priority policy directly modulates the
branch-resolution time.  A stall-on-mispredict model would hide that
mechanism entirely.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.config import ProcessorConfig
from repro.cpu.branch import BranchUnit
from repro.cpu.dyninst import DynInst
from repro.cpu.isa import OpClass
from repro.cpu.stats import PipelineStats
from repro.cpu.trace import Trace, TraceInstruction
from repro.memory.hierarchy import MemoryHierarchy

_LINE_SHIFT = 6
#: Wrong-path loads wander over this many bytes (cache pollution).
_WRONG_PATH_FOOTPRINT_WORDS = 8 * 1024 // 8
#: Bits ``Random._randbelow`` draws per rejection sample for the footprint.
_WRONG_PATH_FOOTPRINT_BITS = _WRONG_PATH_FOOTPRINT_WORDS.bit_length()
_WRONG_PATH_DATA_BASE = 0x80_0000


class FetchUnit:
    """Delivers trace instructions (and wrong-path junk) to dispatch."""

    def __init__(
        self,
        trace: Trace,
        config: ProcessorConfig,
        branch_unit: BranchUnit,
        hierarchy: MemoryHierarchy,
        stats: PipelineStats,
    ) -> None:
        self.trace = trace
        #: The trace's instruction list, read directly by :meth:`peek`.
        self._insts = trace._instructions
        self.config = config
        self.branch_unit = branch_unit
        self.hierarchy = hierarchy
        self.stats = stats
        self.fetch_seq = 0
        self.resume_cycle = 0
        #: Mispredicted branch whose resolution we are fetching past.
        self.blocked_branch: Optional[DynInst] = None
        #: Set by on_complete when the blocked branch resolves; the
        #: pipeline collects it with take_resolved() and squashes.
        self._resolved: Optional[DynInst] = None
        self._fetched_line = -1
        # Wrong-path synthesis state.
        self._wp_rng = random.Random()
        self._wp_seq = 0

    # -- state queries ------------------------------------------------------------

    @property
    def wrong_path_mode(self) -> bool:
        return self.blocked_branch is not None

    def has_more(self) -> bool:
        return self.fetch_seq < len(self.trace)

    def stalled(self, cycle: int) -> bool:
        return cycle < self.resume_cycle

    # -- fetch ---------------------------------------------------------------------

    def peek(self, cycle: int) -> Optional[TraceInstruction]:
        """Next instruction available for dispatch this cycle, if any."""
        if cycle < self.resume_cycle:
            return None
        if self.blocked_branch is not None:
            if not self.config.wrong_path_fetch:
                return None  # stall-on-mispredict ablation
            return self._make_junk()
        insts = self._insts
        seq = self.fetch_seq
        if seq >= len(insts):
            return None
        inst = insts[seq]
        line = inst.pc >> _LINE_SHIFT
        if line != self._fetched_line:
            latency = self.hierarchy.access_instruction(inst.pc, cycle)
            self._fetched_line = line
            if latency > self.config.l1i.hit_latency:
                self.resume_cycle = cycle + latency
                return None
        return inst

    def line_fetched(self) -> bool:
        """True when the next correct-path instruction's I-cache line is
        already fetched, so :meth:`peek` returns it without a cache access."""
        seq = self.fetch_seq
        return (
            seq < len(self._insts)
            and self._insts[seq].pc >> _LINE_SHIFT == self._fetched_line
        )

    def advance(self, cycle: int, inst: DynInst) -> bool:
        """Consume the peeked instruction; False ends this cycle's group."""
        if self.wrong_path_mode:
            inst.wrong_path = True
            self.stats.wrong_path_dispatched += 1
            self._wp_seq += 1
            return True
        if inst.seq != self.fetch_seq:
            raise RuntimeError("advance out of step with peek")
        self.fetch_seq += 1
        trace_inst = inst.trace
        if not trace_inst.is_branch:
            return True
        self.stats.branch_lookups += 1
        correct = self.branch_unit.predict(
            trace_inst.pc, trace_inst.taken, trace_inst.target
        )
        if not correct:
            inst.mispredicted = True
            self.blocked_branch = inst
            self.stats.branch_mispredicts += 1
            # Wrong-path fetch starts next cycle, deterministically seeded.
            self._wp_rng.seed(trace_inst.seq * 2654435761 % (2**31))
            self._wp_seq = inst.seq + 1
            return False
        # A correctly predicted taken branch still ends the fetch group.
        return not trace_inst.taken

    def _make_junk(self) -> TraceInstruction:
        """Synthesize one wrong-path instruction.

        The PC reuses the mispredicted branch's line (wrong paths usually
        hit the I-cache); loads wander over a dedicated region, modelling
        wrong-path cache pollution.  The fields come from
        :meth:`_draw_junk`.
        """
        branch = self.blocked_branch
        assert branch is not None
        op, dest, srcs, mem_addr = self._draw_junk()
        return TraceInstruction(
            self._wp_seq, op, branch.trace.pc, dest=dest, srcs=srcs,
            mem_addr=mem_addr,
        )

    def skip_junk(self, count: int) -> None:
        """Consume the random draws of ``count`` junk instructions unbuilt.

        A cycle that peeks junk but cannot dispatch it still draws it, so
        the pipeline's bulk advance over such cycles calls this to keep
        the junk stream where a cycle-by-cycle run would have left it.
        """
        draw = self._draw_junk
        for _ in range(count):
            draw()

    def _draw_junk(self) -> tuple:
        """One wrong-path instruction's random fields: (op, dest, srcs, mem_addr).

        The register/address draws spell out ``randrange`` as the
        underlying rejection-sampled ``getrandbits`` loop.  The sequence
        of generator words consumed is identical (``randrange(a, b)`` is
        ``a + _randbelow(b - a)``, and ``_randbelow(n)`` draws
        ``n.bit_length()`` bits until the value falls below ``n``), so
        the junk stream — and with it every seeded result — is unchanged;
        only the per-call argument checking and method dispatch go away.
        This is one of the hottest call sites in a mispredict-heavy run:
        wrong-path synthesis outnumbers real instructions 2.5:1 on
        exchange2.
        """
        rng = self._wp_rng
        random = rng.random
        getrandbits = rng.getrandbits
        roll = random()
        r = getrandbits(5)          # randrange(1, 30)
        while r >= 29:
            r = getrandbits(5)
        src = 1 + r
        if roll < 0.30:
            r = getrandbits(_WRONG_PATH_FOOTPRINT_BITS)  # randrange(words)
            while r >= _WRONG_PATH_FOOTPRINT_WORDS:
                r = getrandbits(_WRONG_PATH_FOOTPRINT_BITS)
            addr = _WRONG_PATH_DATA_BASE + r * 8
            # A third of wrong-path loads are ready at dispatch (roots).
            load_srcs = () if random() < 0.70 else (src,)
            r = getrandbits(5)      # randrange(1, 30)
            while r >= 29:
                r = getrandbits(5)
            return OpClass.LOAD, 1 + r, load_srcs, addr
        if roll < 0.34:
            # Wrong-path branch; never predicted or resolved (junk).
            return OpClass.BRANCH, None, (src,), None
        if roll < 0.40:
            dest = getrandbits(5)   # randrange(28), twice
            while dest >= 28:
                dest = getrandbits(5)
            s = getrandbits(5)
            while s >= 28:
                s = getrandbits(5)
            return OpClass.FPADD, 33 + dest, (33 + s,), None
        if roll < 0.46:
            r = getrandbits(5)      # randrange(1, 30)
            while r >= 29:
                r = getrandbits(5)
            return OpClass.IMUL, 1 + r, (src,), None
        # Plain integer op; a fraction are ready-at-dispatch roots, which
        # is what makes wrong-path work contend for issue slots.
        if random() < 0.65:
            alu_srcs = ()
        else:
            r = getrandbits(5)      # randrange(1, 30)
            while r >= 29:
                r = getrandbits(5)
            alu_srcs = (src, 1 + r)
        r = getrandbits(5)          # randrange(1, 30)
        while r >= 29:
            r = getrandbits(5)
        return OpClass.IALU, 1 + r, alu_srcs, None

    # -- resolution / recovery -------------------------------------------------------

    def on_complete(self, inst: DynInst, cycle: int) -> None:
        """Resolve a mispredicted branch: flag recovery, restart fetch."""
        if inst is self.blocked_branch:
            self.blocked_branch = None
            self._resolved = inst
            self.resume_cycle = cycle + self.config.branch.mispredict_penalty
            self._fetched_line = -1

    def take_resolved(self) -> Optional[DynInst]:
        """Pop the branch whose resolution requires a squash, if any."""
        resolved, self._resolved = self._resolved, None
        return resolved

    def rewind(self, seq: int, resume_cycle: int) -> None:
        """Pipeline flush: restart fetch at ``seq`` after ``resume_cycle``."""
        if not 0 <= seq <= len(self.trace):
            raise ValueError("rewind target outside the trace")
        self.fetch_seq = seq
        self.resume_cycle = resume_cycle
        self.blocked_branch = None
        self._resolved = None
        self._fetched_line = -1
