"""Processor and SWQUE configuration (paper Tables 2, 3, and 4).

Two reference processor models are provided:

* :data:`MEDIUM` -- the paper's default ("base") processor, Table 2.
* :data:`LARGE`  -- the scaled-up processor of Section 4.3, Table 4.

:class:`SwqueParams` holds the mode-switching parameters of Table 3.

All values are plain dataclass fields so experiments can derive modified
configurations with :func:`dataclasses.replace`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    size_bytes: int
    associativity: int
    line_bytes: int = 64
    hit_latency: int = 1
    ports: int = 1
    mshrs: int = 16

    def __post_init__(self) -> None:
        if self.size_bytes % (self.associativity * self.line_bytes) != 0:
            raise ValueError(
                "cache size must be a multiple of associativity * line size"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_bytes)


@dataclass(frozen=True)
class PrefetchConfig:
    """Stream-based data prefetcher (Table 2: prefetch into L2)."""

    enabled: bool = True
    streams: int = 32
    distance: int = 16
    degree: int = 2


@dataclass(frozen=True)
class BranchPredictorConfig:
    """gshare + BTB front-end predictor (Table 2)."""

    history_bits: int = 12
    pht_entries: int = 4096
    btb_sets: int = 2048
    btb_ways: int = 4
    mispredict_penalty: int = 10


@dataclass(frozen=True)
class SwqueParams:
    """SWQUE mode-switching parameters (Table 3).

    ``flpi_region_fraction`` is our single free parameter: the paper defines
    FLPI as the frequency of issues from "the predetermined lowest priority
    region of the IQ" without giving the region size; we use the four
    lowest-priority entries of a 128-entry queue (fraction 1/32), calibrated
    so that the paper's 0.04 threshold separates moderate-ILP phases from
    capacity-demanding ones in our workloads.
    """

    switch_interval: int = 10_000          # instructions
    switch_penalty: int = 10               # cycles
    mpki_threshold: float = 1.0            # LLC misses / kilo-instruction
    flpi_threshold: float = 0.04           # fraction of issues from low region
    instability_threshold: int = 2         # saturating counter limit
    flpi_threshold_reduction: float = 0.01 # applied to AGE-mode threshold
    instability_reset_interval: int = 1_000_000  # instructions
    flpi_region_fraction: float = 0.03125


@dataclass(frozen=True)
class ProcessorConfig:
    """Full processor model configuration (paper Tables 2 and 4)."""

    name: str = "medium"
    # Pipeline widths (fetch = decode = issue = commit in the paper).
    width: int = 6
    issue_width: int = 6
    # Window structures.
    rob_entries: int = 256
    iq_entries: int = 128
    lsq_entries: int = 128
    int_regs: int = 256
    fp_regs: int = 256
    # Function units.
    num_ialu: int = 3
    num_imult: int = 1
    num_ldst: int = 2
    num_fpu: int = 2
    # Branch prediction.
    branch: BranchPredictorConfig = field(default_factory=BranchPredictorConfig)
    # Memory hierarchy.
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=32 * 1024, associativity=8, hit_latency=1
        )
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=32 * 1024, associativity=8, hit_latency=2, ports=2, mshrs=24
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=2 * 1024 * 1024, associativity=16, hit_latency=12, mshrs=48
        )
    )
    memory_latency: int = 300              # minimum main-memory latency, cycles
    memory_bytes_per_cycle: int = 8        # DRAM channel bandwidth
    prefetch: PrefetchConfig = field(default_factory=PrefetchConfig)
    #: Fetch past mispredicted branches (wrong-path execution).  Disabling
    #: it degenerates to a stall-on-mispredict model -- an ablation that
    #: shows wrong-path contention is what makes issue priority matter.
    wrong_path_fetch: bool = True
    # SWQUE parameters.
    swque: SwqueParams = field(default_factory=SwqueParams)

    def __post_init__(self) -> None:
        if self.width < 1 or self.issue_width < 1:
            raise ValueError("pipeline widths must be positive")
        if self.iq_entries < self.issue_width:
            raise ValueError("IQ must hold at least one issue group")

    @property
    def fu_counts(self) -> dict:
        """Function-unit count per class name."""
        return {
            "ialu": self.num_ialu,
            "imult": self.num_imult,
            "ldst": self.num_ldst,
            "fpu": self.num_fpu,
        }


#: Table 2 / Table 4 "Medium" column: the paper's default processor.
MEDIUM = ProcessorConfig()

#: Table 4 "Small" column: narrower pipeline, halved window structures.
SMALL = replace(
    MEDIUM,
    name="small",
    width=4,
    issue_width=4,
    rob_entries=128,
    iq_entries=64,
    lsq_entries=64,
    int_regs=128,
    fp_regs=128,
    num_ialu=2,
    num_fpu=1,
)

#: Table 4 "Large" column: scaled window, width, and function units.
LARGE = replace(
    MEDIUM,
    name="large",
    width=8,
    issue_width=8,
    rob_entries=512,
    iq_entries=256,
    lsq_entries=256,
    int_regs=512,
    fp_regs=512,
    num_ialu=4,
    num_fpu=3,
)


#: Named reference configurations addressable over the wire (the service
#: API and its queue records refer to configs by name, never by value).
CONFIGS = {"small": SMALL, "medium": MEDIUM, "large": LARGE}


def get_config(name: str) -> ProcessorConfig:
    """Look up a named reference configuration (:data:`CONFIGS`)."""
    try:
        return CONFIGS[name]
    except KeyError:
        raise ValueError(
            f"unknown processor config {name!r}; "
            f"choose from {sorted(CONFIGS)}"
        ) from None


def scaled_iq_config(base: ProcessorConfig, iq_entries: int) -> ProcessorConfig:
    """Return ``base`` with a different IQ size (Table 6 cost-neutral AGE-150)."""
    if iq_entries < base.issue_width:
        raise ValueError("IQ must hold at least one issue group")
    return replace(base, name=f"{base.name}-iq{iq_entries}", iq_entries=iq_entries)


@functools.lru_cache(maxsize=64)
def config_digest(config: ProcessorConfig) -> str:
    """Short content hash of every configuration field (provenance).

    Two configurations share a digest iff every field (including nested
    cache/branch/SWQUE parameters) is equal -- unlike ``config.name``,
    which ``dataclasses.replace`` copies can reuse or shadow.  Recorded
    on results and harness records so a sweep cell can always be tied
    back to the exact parameters that produced it.  Memoized: configs
    are frozen, and the service keys every submission by this digest.
    """
    import dataclasses
    import hashlib
    import json

    payload = json.dumps(
        dataclasses.asdict(config), sort_keys=True, default=str
    ).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]
