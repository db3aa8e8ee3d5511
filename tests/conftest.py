"""Shared test fixtures and helpers."""

from __future__ import annotations

import itertools
import time
from pathlib import Path

import pytest

from repro.cpu.dyninst import DynInst
from repro.cpu.isa import OpClass
from repro.cpu.trace import TraceInstruction

_SEQ = itertools.count()


class AlwaysFreeFuPool:
    """FU pool stub that grants every claim (isolates queue logic)."""

    def __init__(self) -> None:
        self.claims = 0

    def new_cycle(self, cycle: int) -> None:  # pragma: no cover - parity
        pass

    def try_claim(self, inst, cycle: int) -> bool:
        self.claims += 1
        return True


class LimitedFuPool:
    """FU pool stub granting a fixed number of claims per select call."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.granted = 0

    def reset(self) -> None:
        self.granted = 0

    def try_claim(self, inst, cycle: int) -> bool:
        if self.granted >= self.limit:
            return False
        self.granted += 1
        return True


def make_inst(
    seq: int = None,
    op: OpClass = OpClass.IALU,
    dest: int = 1,
    srcs: tuple = (),
    mem_addr: int = None,
    dispatch_cycle: int = 0,
) -> DynInst:
    """Build a standalone DynInst for queue-level tests."""
    if seq is None:
        seq = next(_SEQ)
    trace_inst = TraceInstruction(seq, op, pc=0x1000 + 4 * seq, dest=dest,
                                  srcs=srcs, mem_addr=mem_addr)
    return DynInst(trace_inst, dispatch_cycle)


@pytest.fixture
def fu_pool():
    return AlwaysFreeFuPool()


@pytest.fixture
def fresh_seq():
    """Reset-free monotonically increasing sequence factory."""
    counter = itertools.count()
    return lambda: next(counter)


class GateRunner:
    """A service job runner whose FIRST execution blocks until
    :meth:`release` — the deterministic way to hold a worker busy while
    more submissions land.  Counts every execution.

    The service runs jobs in forked worker processes, so the runner
    keeps its state in files under ``root``, not in memory.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def __call__(self, sweep_job, _trace_cache=None):
        from repro.sim.harness import _run_job

        with open(self.root / "calls", "a") as handle:
            handle.write(sweep_job.key + "\n")
        if len(self.calls) == 1:
            (self.root / "entered").touch()
            deadline = time.monotonic() + 60.0
            while not (self.root / "released").exists():
                assert time.monotonic() < deadline, "gate never released"
                time.sleep(0.01)
        return _run_job(sweep_job, _trace_cache)

    @property
    def calls(self) -> list:
        try:
            return (self.root / "calls").read_text().splitlines()
        except FileNotFoundError:
            return []

    def wait_entered(self, timeout: float = 30.0) -> bool:
        deadline = time.monotonic() + timeout
        while not (self.root / "entered").exists():
            if time.monotonic() > deadline:
                return False
            time.sleep(0.01)
        return True

    def release(self) -> None:
        (self.root / "released").touch()
