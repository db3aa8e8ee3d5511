"""Probe registry and interval sampler: phase behaviour made visible.

The paper's whole argument is phase behaviour — SWQUE switches modes
because MPKI and FLPI drift across intervals — but end-of-run aggregates
(:class:`~repro.cpu.stats.PipelineStats`) cannot show *when* FLPI spiked
or *why* a switch fired.  A :class:`Telemetry` object attached to a
pipeline closes one :class:`IntervalSample` every ``interval`` cycles
(default 10k): IPC, LLC MPKI, FLPI, per-region issue counts, an IQ
occupancy histogram, the dispatch-stall breakdown, and the SWQUE
mode/instability state, each computed as a *delta* over the interval so
samples compose back to the run totals exactly.

Cost model:

* **Detached** (the default): the pipeline holds ``telemetry = None`` and
  pays one attribute test per cycle — nothing else.
* **Attached but disabled** (``enabled=False``): every probe call returns
  on the first branch without allocating; ``samples``/``events`` stay
  empty (the zero-allocation fast path the tests pin down).
* **Enabled**: O(1) work per cycle (histogram bucket increment) plus one
  O(counters) capture per interval boundary.

The object is plain data — no file handles, no closures — so it pickles
inside state snapshots: a resumed run continues sampling on the *same*
interval boundaries and reproduces the uninterrupted run's time series
bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.telemetry.events import EV_WARMUP_RESET, TelemetryEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cpu.pipeline import Pipeline

#: Version of every exported telemetry artifact (interval JSONL, event
#: JSONL, Chrome trace, BENCH payloads).  Bump on any schema change.
TELEMETRY_SCHEMA_VERSION = 1

#: Stat counters differenced per interval.  Order is the export order.
_DELTA_KEYS = (
    "committed",
    "dispatched",
    "issued",
    "low_region_issues",
    "llc_misses",
    "l1d_misses",
    "loads",
    "stores",
    "branch_lookups",
    "branch_mispredicts",
    "squashed_instructions",
    "flush_cycles",
    "dispatch_stall_iq",
    "dispatch_stall_rob",
    "dispatch_stall_lsq",
    "dispatch_stall_regs",
    "iq_select_rv_ops",
    "iq_tag_ram_rv_reads",
    "mode_switches",
)


@dataclass(frozen=True)
class TelemetryConfig:
    """Sampling parameters; immutable so it can ride in frozen job specs."""

    #: Cycles per interval sample.
    interval: int = 10_000
    #: Number of IQ-occupancy histogram buckets per interval.
    occupancy_buckets: int = 8
    #: Record discrete events (:mod:`repro.telemetry.events`).
    events: bool = True
    #: Hard cap on stored events; overflow increments ``dropped_events``
    #: instead of growing without bound on a pathological run.
    max_events: int = 100_000

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError(f"telemetry interval must be positive, got {self.interval}")
        if self.occupancy_buckets <= 0:
            raise ValueError(
                f"occupancy_buckets must be positive, got {self.occupancy_buckets}"
            )
        if self.max_events <= 0:
            raise ValueError(f"max_events must be positive, got {self.max_events}")


@dataclass
class IntervalSample:
    """One closed interval: deltas, rates, and machine-state snapshots."""

    index: int
    cycle_start: int
    cycle_end: int
    cycles: int
    #: Raw counter deltas over the interval, keyed as in ``_DELTA_KEYS``.
    deltas: Dict[str, int]
    ipc: float
    mpki: float
    branch_mpki: float
    #: Fraction of the interval's issues from the low-priority region.
    flpi: float
    mean_iq_occupancy: float
    #: Per-interval IQ-occupancy histogram (fixed bucket width).
    occupancy_hist: List[int]
    #: Width in entries of each histogram bucket.
    occupancy_bucket_width: int
    #: Which resource blocked dispatch, cycles each (iq/rob/lsq/regs).
    dispatch_stalls: Dict[str, int]
    #: Queue-organization state at the interval boundary (SWQUE mode,
    #: instability counter, CIRC-PC wrap state, ...).
    iq_state: Dict[str, object] = field(default_factory=dict)
    #: Memory-hierarchy state at the interval boundary.
    mem_state: Dict[str, object] = field(default_factory=dict)
    #: Convenience mirror of ``iq_state["mode"]`` (None for fixed queues).
    mode: Optional[str] = None

    def as_dict(self) -> dict:
        """Flat JSON-ready record (one JSONL line)."""
        return {
            "record": "interval",
            "index": self.index,
            "cycle_start": self.cycle_start,
            "cycle_end": self.cycle_end,
            "cycles": self.cycles,
            "ipc": self.ipc,
            "mpki": self.mpki,
            "branch_mpki": self.branch_mpki,
            "flpi": self.flpi,
            "mean_iq_occupancy": self.mean_iq_occupancy,
            "occupancy_hist": self.occupancy_hist,
            "occupancy_bucket_width": self.occupancy_bucket_width,
            "dispatch_stalls": self.dispatch_stalls,
            "mode": self.mode,
            "iq_state": self.iq_state,
            "mem_state": self.mem_state,
            **self.deltas,
        }


class Telemetry:
    """Interval sampler plus event recorder for one pipeline.

    Attach with :meth:`attach` (or let ``simulate(telemetry=...)`` do it);
    the pipeline then feeds :meth:`on_cycle` once per simulated cycle and
    instrumented components publish discrete happenings via :meth:`event`.
    """

    def __init__(
        self,
        config: Optional[TelemetryConfig] = None,
        enabled: bool = True,
    ) -> None:
        self.config = config if config is not None else TelemetryConfig()
        self.enabled = enabled
        self.samples: List[IntervalSample] = []
        self.events: List[TelemetryEvent] = []
        self.dropped_events = 0
        self._pipeline: Optional["Pipeline"] = None
        self._stats = None
        self._base: Optional[Dict[str, int]] = None
        self._interval_start = 0
        self._next_sample = 0
        self._occ_sum = 0
        self._hist: List[int] = []
        self._bucket_width = 1
        self._finished = False

    # -- wiring ------------------------------------------------------------------

    def attach(self, pipeline: "Pipeline") -> "Telemetry":
        """Bind to ``pipeline`` (and its issue queue); returns self."""
        if self._pipeline is not None and self._pipeline is not pipeline:
            raise ValueError("telemetry is already attached to another pipeline")
        self._pipeline = pipeline
        self._stats = pipeline.stats
        pipeline.telemetry = self
        pipeline.iq.telemetry = self
        # Bucket width so the histogram always spans [0, size] inclusive.
        size = pipeline.iq.size
        buckets = self.config.occupancy_buckets
        self._bucket_width = max(1, -(-(size + 1) // buckets))  # ceil div
        if self.enabled:
            self._rebaseline(pipeline.cycle)
        return self

    @property
    def attached(self) -> bool:
        return self._pipeline is not None

    def _rebaseline(self, cycle: int) -> None:
        self._base = self._stats.capture()
        self._interval_start = cycle
        self._next_sample = cycle + self.config.interval
        self._occ_sum = 0
        self._hist = [0] * self.config.occupancy_buckets

    # -- per-cycle hot path --------------------------------------------------------

    def on_cycle(self, cycle: int, occupancy: int) -> None:
        """Called by the pipeline once per cycle (after the cycle ran)."""
        if not self.enabled:
            return
        if self._stats.committed < self._base["committed"]:
            # The counters went backwards: the end-of-warmup measurement
            # reset.  Re-baseline so no sample straddles the reset, and
            # leave a marker on the event timeline.
            self._rebaseline(cycle - 1)
            self.event(EV_WARMUP_RESET, cycle=cycle, category="sim")
        self._occ_sum += occupancy
        self._hist[min(occupancy // self._bucket_width, len(self._hist) - 1)] += 1
        if cycle >= self._next_sample:
            self._close_interval(cycle)

    def _close_interval(self, cycle: int) -> None:
        stats, base = self._stats, self._base
        current = stats.capture()
        deltas = {key: current[key] - base[key] for key in _DELTA_KEYS}
        cycles = cycle - self._interval_start
        committed = deltas["committed"]
        issued = deltas["issued"]
        pipeline = self._pipeline
        iq_state = dict(pipeline.iq.telemetry_probe())
        mem_state = dict(pipeline.hierarchy.telemetry_probe())
        self.samples.append(
            IntervalSample(
                index=len(self.samples),
                cycle_start=self._interval_start,
                cycle_end=cycle,
                cycles=cycles,
                deltas=deltas,
                ipc=committed / cycles if cycles else 0.0,
                mpki=1000.0 * deltas["llc_misses"] / committed if committed else 0.0,
                branch_mpki=(
                    1000.0 * deltas["branch_mispredicts"] / committed
                    if committed
                    else 0.0
                ),
                flpi=deltas["low_region_issues"] / issued if issued else 0.0,
                mean_iq_occupancy=self._occ_sum / cycles if cycles else 0.0,
                occupancy_hist=self._hist,
                occupancy_bucket_width=self._bucket_width,
                dispatch_stalls={
                    "iq": deltas["dispatch_stall_iq"],
                    "rob": deltas["dispatch_stall_rob"],
                    "lsq": deltas["dispatch_stall_lsq"],
                    "regs": deltas["dispatch_stall_regs"],
                },
                iq_state=iq_state,
                mem_state=mem_state,
                mode=iq_state.get("mode"),
            )
        )
        self._base = current
        self._interval_start = cycle
        self._next_sample = cycle + self.config.interval
        self._occ_sum = 0
        self._hist = [0] * self.config.occupancy_buckets

    def finish(self, cycle: int) -> None:
        """Flush the final partial interval (idempotent).

        Called by the pipeline when the trace retires; a run whose length
        is not a multiple of the interval still accounts every cycle.
        Idempotence matters for snapshots: a snapshot taken *after* the
        run finished resumes into an immediate second ``finish``.
        """
        if not self.enabled or self._finished:
            return
        if cycle > self._interval_start:
            self._close_interval(cycle)
        self._finished = True

    # -- events --------------------------------------------------------------------

    def event(self, name: str, cycle: Optional[int] = None, category: str = "sim", **args) -> None:
        """Record one discrete event; a no-op when disabled."""
        if not self.enabled or not self.config.events:
            return
        if len(self.events) >= self.config.max_events:
            self.dropped_events += 1
            return
        if cycle is None:
            cycle = self._pipeline.cycle if self._pipeline is not None else 0
        self.events.append(
            TelemetryEvent(name=name, cycle=cycle, category=category, args=args)
        )

    # -- introspection ----------------------------------------------------------------

    def events_named(self, name: str) -> List[TelemetryEvent]:
        return [event for event in self.events if event.name == name]

    def series(self, field_name: str) -> List[object]:
        """One sample attribute as a list, in time order (plotting aid)."""
        return [getattr(sample, field_name) for sample in self.samples]

    def summary(self) -> str:
        return (
            f"telemetry: {len(self.samples)} interval sample(s) "
            f"@ {self.config.interval} cycles, {len(self.events)} event(s)"
            + (f" ({self.dropped_events} dropped)" if self.dropped_events else "")
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Telemetry enabled={self.enabled} {self.summary()}>"


def resolve_telemetry(telemetry) -> Optional[Telemetry]:
    """Normalize the ``simulate(telemetry=...)`` argument.

    Accepts ``None``/``False`` (off), ``True`` (defaults), a
    :class:`TelemetryConfig`, or a prebuilt :class:`Telemetry`.
    """
    if telemetry is None or telemetry is False:
        return None
    if telemetry is True:
        return Telemetry()
    if isinstance(telemetry, TelemetryConfig):
        return Telemetry(telemetry)
    if isinstance(telemetry, Telemetry):
        return telemetry
    raise TypeError(
        f"telemetry must be a bool, TelemetryConfig, or Telemetry, "
        f"got {type(telemetry).__name__}"
    )
