"""Workload profiles: the knobs that define a synthetic program's behaviour."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

#: Valid memory access patterns.  "sparse" models latency-bound MLP codes:
#: a fraction of loads touch fresh, never-revisited lines (guaranteed LLC
#: misses that defeat the stream prefetcher), the rest hit a hot region.
MEMORY_PATTERNS = ("stream", "random", "mixed", "pointer", "sparse")

#: Valid ILP classes (the paper's program classification, Figure 9).
ILP_CLASSES = ("moderate", "rich")


@dataclass(frozen=True)
class PhaseSpec:
    """One program phase.

    The generator emits a loop (a *block* of instruction templates executed
    repeatedly) whose structure realizes the requested behaviour:

    * ``parallel_chains`` dependence chains run side by side; the first
      ``critical_chains`` of them never break (they form the critical
      path), the rest restart every ``chain_break_interval`` operations
      (bursts of latency-tolerant work).  Together these set the ILP and
      the *priority sensitivity* of the phase.
    * ``load_fraction`` / ``store_fraction`` / ``memory_pattern`` /
      ``footprint_bytes`` set the memory behaviour: a footprint beyond the
      L2 with a ``random`` pattern produces overlappable LLC misses (MLP);
      ``pointer`` serializes the misses (pointer chasing); ``stream`` is
      prefetch-friendly.
    * ``branch_fraction`` / ``random_branch_fraction`` set branch density
      and predictability (random branches mispredict ~50% of the time).
    """

    instructions: int = 10_000
    parallel_chains: int = 8
    critical_chains: int = 2
    chain_break_interval: int = 12
    fp_fraction: float = 0.0
    long_latency_fraction: float = 0.08  # of compute ops: IMUL/FPMUL-class
    load_fraction: float = 0.18
    store_fraction: float = 0.08
    branch_fraction: float = 0.10
    random_branch_fraction: float = 0.10
    #: Probability that a compute slot on a *critical* chain becomes a
    #: chain-dependent load (a[b[i]]-style address dependence).  These
    #: L1-resident loads give the critical path its latency weight.
    critical_load_fraction: float = 0.30
    #: Per-instance probability that a biased branch goes the other way.
    branch_flip_rate: float = 0.01
    #: "sparse" pattern only: fraction of independent loads that touch a
    #: fresh (always-LLC-missing) line; the rest hit the hot region.
    sparse_load_fraction: float = 0.30
    #: Dependent ops emitted immediately before each branch on its chain
    #: (the branch's dataflow slice).  Deeper slices make misprediction
    #: resolution take longer and put more work in competition with
    #: wrong-path instructions -- the priority-sensitivity knob.
    branch_slice_depth: int = 3
    memory_pattern: str = "stream"
    footprint_bytes: int = 16 * 1024
    block_size: int = 256

    def __post_init__(self) -> None:
        if self.instructions < 1:
            raise ValueError("phase must contain at least one instruction")
        if self.parallel_chains < 1:
            raise ValueError("need at least one dependence chain")
        if not 0 <= self.critical_chains <= self.parallel_chains:
            raise ValueError("critical chains must be a subset of all chains")
        if self.chain_break_interval < 1:
            raise ValueError("chain break interval must be positive")
        if self.memory_pattern not in MEMORY_PATTERNS:
            raise ValueError(
                f"unknown memory pattern {self.memory_pattern!r}; "
                f"choose from {MEMORY_PATTERNS}"
            )
        fractions = (
            self.fp_fraction,
            self.long_latency_fraction,
            self.load_fraction,
            self.store_fraction,
            self.branch_fraction,
            self.random_branch_fraction,
            self.critical_load_fraction,
            self.branch_flip_rate,
            self.sparse_load_fraction,
        )
        for value in fractions:
            if not 0.0 <= value <= 1.0:
                raise ValueError("fractions must lie in [0, 1]")
        if self.load_fraction + self.store_fraction + self.branch_fraction > 0.9:
            raise ValueError("memory + branch fractions leave no compute")
        if self.footprint_bytes < 64:
            raise ValueError("footprint must cover at least one cache line")
        if self.branch_slice_depth < 0:
            raise ValueError("branch slice depth cannot be negative")
        if self.block_size < 8:
            raise ValueError("block size too small to form a loop")


@dataclass(frozen=True)
class WorkloadProfile:
    """A named synthetic program: a cycle of phases plus classification."""

    name: str
    suite: str                      # 'int' | 'fp'
    ilp_class: str = "moderate"     # 'moderate' | 'rich'
    mlp: bool = False               # memory-intensive (green box in Fig. 9)
    phases: Sequence[PhaseSpec] = field(default_factory=lambda: (PhaseSpec(),))
    description: str = ""
    seed: int = 2019

    def __post_init__(self) -> None:
        if self.suite not in ("int", "fp"):
            raise ValueError("suite must be 'int' or 'fp'")
        if self.ilp_class not in ILP_CLASSES:
            raise ValueError(f"ilp_class must be one of {ILP_CLASSES}")
        if not self.phases:
            raise ValueError("a workload needs at least one phase")
        object.__setattr__(self, "phases", tuple(self.phases))  # hashable

    @property
    def classification(self) -> str:
        """The paper's per-program label: 'm-ILP', 'r-ILP', or 'MLP'."""
        if self.mlp:
            return "MLP"
        return "r-ILP" if self.ilp_class == "rich" else "m-ILP"
