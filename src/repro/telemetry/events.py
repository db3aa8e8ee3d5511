"""Structured event records: discrete happenings on the cycle timeline.

Interval samples (:mod:`repro.telemetry.probes`) answer "what was the
machine doing between cycles A and B"; events answer "what happened *at*
cycle C, and why".  Each :class:`TelemetryEvent` is a named, categorized
point on the timeline carrying the arguments that explain it — a SWQUE
mode switch records the MPKI/FLPI values and thresholds that triggered
it, a watchdog near-stall records the commit-free stretch, a fault
injection records the chaos kind that fired.

Event *names* are module constants so emitters and consumers (tests, the
Chrome-trace exporter, analysis notebooks) never drift apart on spelling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

# -- event-name catalogue ------------------------------------------------------------

#: SWQUE's interval evaluation decided to change mode (carries the
#: triggering MPKI/FLPI values and the thresholds they were compared to).
#: The switch itself completes at the next pipeline flush.
EV_MODE_SWITCH_DECIDED = "mode_switch_decided"

#: A SWQUE mode switch completed: the pipeline flushed and the active
#: sub-queue was exchanged.  One of these per ``stats.mode_switches``.
EV_MODE_SWITCH = "mode_switch"

#: The pipeline flushed its whole window on the queue's behalf.
EV_IQ_FLUSH = "iq_flush"

#: The commit stage has been silent for at least half the watchdog
#: horizon — a near-stall worth seeing on the timeline even when the run
#: eventually recovers (emitted once per commit-free episode).
EV_NEAR_STALL = "commit_near_stall"

#: A chaos fault (:mod:`repro.sim.faults`) actually fired.
EV_FAULT = "fault_injected"

#: The measurement-warmup statistics reset was observed; interval
#: accounting re-baselined so no sample straddles the reset.
EV_WARMUP_RESET = "warmup_reset"

#: Event categories, used as Chrome-trace ``cat`` labels.
CATEGORIES = ("swque", "iq", "pipeline", "verify", "fault", "sim")


@dataclass
class TelemetryEvent:
    """One discrete event on the simulated-cycle timeline."""

    name: str
    cycle: int
    category: str = "sim"
    args: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Flat JSON-ready record (one JSONL line)."""
        return {
            "record": "event",
            "name": self.name,
            "cycle": self.cycle,
            "category": self.category,
            "args": self.args,
        }
