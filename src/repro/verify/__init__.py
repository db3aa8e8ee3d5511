"""Verification subsystem: golden-model lockstep, replay, watchdog.

Three independent lines of defence against a *silently wrong* simulator
(the occupancy invariants of :mod:`repro.core.base` only catch structural
corruption; they cannot tell whether the timing model computed the right
answer):

* :mod:`repro.verify.oracle` -- a golden in-order reference model that
  cross-checks every committed instruction against the trace's canonical
  architectural semantics (commit order, dataflow legality, forwarding),
  raising :class:`ArchitecturalMismatch` on divergence; and the
  streaming :class:`CommitDigest` that proves two runs identical.
* :mod:`repro.verify.replay` -- rerun a failed job from its spec with
  the golden model attached and per-cycle event tracing
  (``python -m repro replay``).  The simulator is deterministic in its
  inputs, so the rerun reaches the recorded failure at the same cycle.

The forward-progress watchdog lives inside the pipeline itself
(:class:`repro.cpu.pipeline.CommitStall`): the three parts together make
any failure *detected*, *reproducible*, and *inspectable*.
"""

from repro.verify.oracle import (
    ArchitecturalMismatch,
    CommitDigest,
    CommitRecord,
    GoldenModel,
)
from repro.verify.replay import ReplayOutcome, replay

__all__ = [
    "ArchitecturalMismatch",
    "CommitDigest",
    "CommitRecord",
    "GoldenModel",
    "ReplayOutcome",
    "replay",
]
