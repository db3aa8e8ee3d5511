"""Golden reference model: lockstep validation of the commit stream.

The timing simulator is only trustworthy if its *architectural* behaviour
matches what the trace defines: instructions commit exactly once, in
program order, and every operand an instruction consumed was actually
produced before it issued.  A wakeup/select bug, a broken
store-to-load-forwarding path, or a bad squash-younger recovery can
violate any of these while keeping every occupancy invariant intact --
corrupting IPC numbers without a single guard firing.

:class:`GoldenModel` is a simple in-order architectural executor over the
same :class:`~repro.cpu.trace.Trace` the pipeline runs.  It maintains the
canonical commit cursor, the architectural last-writer map (register ->
producing instruction) and last-store map (address -> producing store),
and cross-checks each instruction the pipeline commits:

* **identity** -- the committed instruction must be the trace's next
  instruction (never wrong-path junk, never skipped or duplicated);
* **lifecycle** -- it must have been dispatched, issued, and completed,
  in that order;
* **register dataflow** -- each source register's architectural producer
  must have completed no later than the consumer issued (a consumer may
  issue the same cycle its producer completes: back-to-back wakeup);
* **memory forwarding** -- a load marked *forwarded* must have an older
  in-flight store to the same address, completed by the load's issue.

Any violation raises :class:`ArchitecturalMismatch` carrying the cycle,
commit slot, expected-vs-actual description, and the last 64 commits.

Known blind spot (a documented model simplification, not checked): a load
that *misses* a legal forwarding opportunity because a younger store to
the same address was squashed (see ``LoadStoreQueue.squash``) reads the
cache instead; the oracle does not flag missed forwards, only corrupt
ones.

:class:`CommitDigest` is the streaming commit-stream fingerprint used to
prove two runs identical (a replay against the original run, result
provenance).  It is a pure-Python mixer whose values the timing
fingerprint pins.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, NamedTuple, Optional, Tuple, TYPE_CHECKING

from repro.cpu.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cpu.dyninst import DynInst

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


class CommitDigest:
    """Order-sensitive streaming digest of the commit stream.

    Mixes (seq, pc, dispatch, issue, complete) of every committed
    instruction into two independent 64-bit streams.  Two runs with equal
    digests committed the same instructions with the same timing, in the
    same order -- the bit-reproducibility criterion a replay is held to.
    """

    __slots__ = ("_a", "_b", "count")

    def __init__(self) -> None:
        self._a = _FNV_OFFSET
        self._b = 0x9E3779B97F4A7C15
        self.count = 0

    def update(self, *values: Optional[int]) -> None:
        a, b = self._a, self._b
        for value in values:
            v = (-2 if value is None else value + 1) & _MASK64
            a = ((a ^ v) * _FNV_PRIME) & _MASK64
            b = (b + (v ^ (a >> 17))) * 0x2545F4914F6CDD1D & _MASK64
        self._a, self._b = a, b
        self.count += 1

    def hexdigest(self) -> str:
        return f"{self._a:016x}{self._b:016x}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CommitDigest {self.hexdigest()} after {self.count} updates>"


class CommitRecord(NamedTuple):
    """One committed instruction, as the oracle saw it."""

    seq: int
    pc: int
    op: str
    dispatch_cycle: int
    issue_cycle: Optional[int]
    complete_cycle: Optional[int]
    commit_cycle: int


class ArchitecturalMismatch(RuntimeError):
    """The pipeline's commit stream diverged from the golden model.

    Unlike :class:`~repro.core.base.InvariantViolation` (structural
    corruption caught where it happens), this means the simulator
    *computed a wrong answer*: the committed stream no longer matches the
    trace's architectural semantics.  Carries the commit cycle, the slot
    within the commit group (``rob_slot``), human-readable expected vs.
    actual descriptions, and the last 64 commits leading up to the
    divergence (``recent``).  ``committed``/``partial_stats`` are filled
    in by ``Pipeline.run`` before the exception escapes.
    """

    def __init__(
        self,
        check: str,
        detail: str,
        cycle: int,
        rob_slot: int,
        expected: str,
        actual: str,
        recent: Tuple[CommitRecord, ...],
    ) -> None:
        super().__init__(
            f"architectural mismatch [{check}] at cycle {cycle} "
            f"(commit slot {rob_slot}): {detail}; expected {expected}, "
            f"got {actual}"
        )
        self.check = check
        self.detail = detail
        self.cycle = cycle
        self.rob_slot = rob_slot
        self.expected = expected
        self.actual = actual
        self.recent = recent
        # Run context, filled in by Pipeline.run before the raise escapes.
        self.committed: Optional[int] = None
        self.partial_stats = None

    def recent_summary(self, limit: int = 8) -> str:
        """The last ``limit`` commits, one per line (diagnostics)."""
        lines = [
            f"  #{r.seq} {r.op} pc={r.pc:#x} "
            f"D{r.dispatch_cycle} I{r.issue_cycle} C{r.complete_cycle} "
            f"commit@{r.commit_cycle}"
            for r in list(self.recent)[-limit:]
        ]
        return "\n".join(lines) if lines else "  (no prior commits)"


class GoldenModel:
    """In-order architectural executor; lockstep cross-check at commit."""

    #: Ring-buffer depth of the pre-divergence commit history.
    HISTORY = 64

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self._next_seq = 0
        #: Architectural register -> seq of its last (committed) writer.
        self._reg_writer: Dict[int, int] = {}
        #: Address -> seq of the last committed store to it.
        self._last_store: Dict[int, int] = {}
        #: seq -> (issue_cycle, complete_cycle) of committed instructions.
        self._timing: Dict[int, Tuple[int, int]] = {}
        self.recent: Deque[CommitRecord] = deque(maxlen=self.HISTORY)

    # -- introspection ----------------------------------------------------------------

    @property
    def committed(self) -> int:
        """Instructions validated so far (the canonical commit cursor)."""
        return self._next_seq

    @property
    def done(self) -> bool:
        return self._next_seq >= len(self.trace)

    def _mismatch(
        self,
        check: str,
        detail: str,
        cycle: int,
        rob_slot: int,
        expected: str,
        actual: str,
    ) -> ArchitecturalMismatch:
        return ArchitecturalMismatch(
            check, detail, cycle, rob_slot, expected, actual,
            recent=tuple(self.recent),
        )

    # -- the lockstep check -----------------------------------------------------------

    def check_commit(self, inst: "DynInst", cycle: int, rob_slot: int) -> None:
        """Validate one committed instruction; raise on any divergence.

        ``rob_slot`` is the instruction's position within this cycle's
        commit group (0 = the ROB head when the group started).
        """
        actual = (
            f"#{inst.seq} {inst.op.value} pc={inst.trace.pc:#x}"
            + (" [wrong-path]" if inst.wrong_path else "")
        )
        if self._next_seq >= len(self.trace):
            raise self._mismatch(
                "commit-overrun",
                "an instruction committed after the whole trace retired",
                cycle, rob_slot,
                f"no commit (trace length {len(self.trace)})", actual,
            )
        expected_inst = self.trace[self._next_seq]
        expected = (
            f"#{expected_inst.seq} {expected_inst.op.value} "
            f"pc={expected_inst.pc:#x}"
        )
        if inst.wrong_path or inst.trace is not expected_inst:
            raise self._mismatch(
                "commit-identity",
                "the committed instruction is not the trace's next "
                "instruction (wrong-path junk, a skip, or a duplicate)",
                cycle, rob_slot, expected, actual,
            )
        if inst.issue_cycle is None or inst.complete_cycle is None:
            raise self._mismatch(
                "commit-lifecycle",
                "committed without a recorded issue/complete cycle",
                cycle, rob_slot,
                "dispatch <= issue < complete <= commit", actual,
            )
        if not (inst.dispatch_cycle <= inst.issue_cycle < inst.complete_cycle):
            raise self._mismatch(
                "commit-lifecycle",
                f"impossible lifecycle D{inst.dispatch_cycle} "
                f"I{inst.issue_cycle} C{inst.complete_cycle}",
                cycle, rob_slot,
                "dispatch <= issue < complete", actual,
            )
        for src in expected_inst.srcs:
            writer = self._reg_writer.get(src)
            if writer is None:
                continue
            _, writer_complete = self._timing[writer]
            if writer_complete > inst.issue_cycle:
                raise self._mismatch(
                    "dataflow-order",
                    f"operand r{src} was read before its producer "
                    f"#{writer} completed (producer completes at cycle "
                    f"{writer_complete}, consumer issued at cycle "
                    f"{inst.issue_cycle})",
                    cycle, rob_slot,
                    f"issue >= {writer_complete}",
                    f"issue at {inst.issue_cycle}",
                )
        if expected_inst.is_load and inst.forwarded:
            store_seq = self._last_store.get(expected_inst.mem_addr)
            if store_seq is None:
                raise self._mismatch(
                    "forwarding",
                    f"load forwarded but no older store to "
                    f"{expected_inst.mem_addr:#x} exists",
                    cycle, rob_slot, "a completed older store", actual,
                )
            _, store_complete = self._timing[store_seq]
            if store_complete > inst.issue_cycle:
                raise self._mismatch(
                    "forwarding",
                    f"load forwarded from store #{store_seq} before the "
                    f"store completed (store completes at cycle "
                    f"{store_complete}, load issued at cycle "
                    f"{inst.issue_cycle})",
                    cycle, rob_slot,
                    f"issue >= {store_complete}",
                    f"issue at {inst.issue_cycle}",
                )

        # The commit checked out: advance the architectural state.
        self._timing[inst.seq] = (inst.issue_cycle, inst.complete_cycle)
        if expected_inst.dest is not None:
            self._reg_writer[expected_inst.dest] = inst.seq
        if expected_inst.is_store:
            self._last_store[expected_inst.mem_addr] = inst.seq
        self.recent.append(
            CommitRecord(
                inst.seq, expected_inst.pc, inst.op.value,
                inst.dispatch_cycle, inst.issue_cycle, inst.complete_cycle,
                cycle,
            )
        )
        self._next_seq += 1

    def check_final(self, committed: int) -> None:
        """End-of-run check: every trace instruction must have committed."""
        if self._next_seq != len(self.trace):
            raise self._mismatch(
                "commit-shortfall",
                f"run ended with {self._next_seq}/{len(self.trace)} "
                f"instructions validated ({committed} counted by stats)",
                cycle=-1, rob_slot=0,
                expected=f"{len(self.trace)} commits",
                actual=f"{self._next_seq} commits",
            )
