"""Simulation results and the small statistics helpers experiments need."""

from __future__ import annotations

import json
import math
import shlex
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.cpu.stats import PipelineStats


def stats_to_dict(stats: PipelineStats) -> dict:
    """Counter fields only (no derived rates) — JSON-round-trippable."""
    return {
        name: getattr(stats, name)
        for name in stats.__dataclass_fields__
    }


def stats_from_dict(data: dict) -> PipelineStats:
    """Rebuild a :class:`PipelineStats` from :func:`stats_to_dict` output.

    Unknown keys (derived rates like ``ipc`` that ``as_dict`` adds, or
    counters from a newer schema) are ignored, so old cache entries and
    API records stay loadable.
    """
    stats = PipelineStats()
    for name in stats.__dataclass_fields__:
        if name in data:
            setattr(stats, name, data[name])
    return stats


@dataclass
class SimResult:
    """Outcome of one (workload, IQ policy, processor config) simulation."""

    workload: str
    policy: str
    config: str
    num_instructions: int
    stats: PipelineStats
    #: SWQUE only: fraction of cycles in each mode (Figure 10).
    mode_fractions: Dict[str, float] = field(default_factory=dict)
    mode_switches: int = 0
    # -- provenance: everything needed to reproduce or distrust this
    # number later.  ``seed`` is the effective workload-generator seed
    # (recorded even when the caller passed none), ``config_hash`` the
    # content digest of every processor parameter, ``version`` the
    # package that ran it, and ``commit_digest`` the streaming
    # fingerprint of the exact commit stream (two runs with equal
    # digests retired identical instructions with identical timing).
    seed: Optional[int] = None
    config_hash: str = ""
    version: str = ""
    commit_digest: str = ""
    #: The run's :class:`repro.telemetry.Telemetry` sink when telemetry
    #: was enabled (typed loosely to keep this module import-light).
    #: Excluded from serialized records — export it explicitly via
    #: :func:`repro.telemetry.export_run`.
    telemetry: Optional[object] = None

    #: Sweep-harness cell status (see :class:`FailedResult`).
    ok = True

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    @property
    def mpki(self) -> float:
        return self.stats.mpki

    def summary(self) -> str:
        line = (
            f"{self.workload:<12} {self.policy:<11} {self.config:<7} "
            f"IPC={self.ipc:5.3f}  MPKI={self.mpki:5.2f}  "
            f"bMPKI={self.stats.branch_mpki:5.2f}"
        )
        if self.mode_fractions:
            line += f"  circ-pc={self.mode_fractions.get('circ-pc', 0.0):4.0%}"
        return line

    def to_dict(self) -> dict:
        """JSON-safe record of this result (``telemetry`` excluded).

        One serialization path shared by the result cache (which sweeps
        resume from), sweep reports, and HTTP API responses.  The
        effective seed is emitted as ``effective_seed`` so a record can
        carry the *requested* seed under ``seed`` alongside it without a
        collision.
        """
        return {
            "status": "ok",
            "workload": self.workload,
            "policy": self.policy,
            "config": self.config,
            "num_instructions": self.num_instructions,
            "stats": stats_to_dict(self.stats),
            "mode_fractions": dict(self.mode_fractions),
            "mode_switches": self.mode_switches,
            "effective_seed": self.seed,
            "config_hash": self.config_hash,
            "version": self.version,
            "commit_digest": self.commit_digest,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimResult":
        """Inverse of :meth:`to_dict`; tolerant of missing/extra keys."""
        seed = data.get("effective_seed")
        if seed is None:
            seed = data.get("seed")
        return cls(
            workload=data["workload"],
            policy=data["policy"],
            config=data["config"],
            num_instructions=data.get("num_instructions", 0),
            stats=stats_from_dict(data.get("stats") or {}),
            mode_fractions=data.get("mode_fractions") or {},
            mode_switches=data.get("mode_switches", 0),
            seed=seed,
            config_hash=data.get("config_hash", ""),
            version=data.get("version", ""),
            commit_digest=data.get("commit_digest", ""),
        )


@dataclass
class FailedResult:
    """A sweep cell that failed permanently — failure as first-class data.

    Produced by the harness (:mod:`repro.sim.harness`) when a job's run
    raises or its worker is lost past its retries: the exception class and
    message, the full traceback, how many attempts were made, and whatever partial progress the run made
    before dying (``cycles`` executed and the partial
    :class:`~repro.cpu.stats.PipelineStats` that exceptions like
    :class:`~repro.cpu.pipeline.SimulationDiverged` carry).
    """

    workload: str
    policy: str
    config: str
    error_type: str
    error_message: str
    traceback: str = ""
    attempts: int = 1
    cycles: int = 0
    partial_stats: Optional[PipelineStats] = None
    #: The spec that reruns the cell (:func:`repro.sim.harness.job_spec`),
    #: set by the sweep harness; None for a pre-built trace, which no spec
    #: can name.  ``python -m repro replay`` takes it.
    job: Optional[dict] = None

    #: Sweep-harness cell status (mirrors :attr:`SimResult.ok`).
    ok = False

    @property
    def ipc(self) -> float:
        """Partial-progress IPC if any stats survived, else 0.0."""
        return self.partial_stats.ipc if self.partial_stats else 0.0

    def summary(self) -> str:
        line = (
            f"{self.workload:<12} {self.policy:<11} {self.config:<7} "
            f"FAILED[{self.error_type}] after {self.attempts} attempt(s)"
        )
        if self.cycles:
            line += f" at cycle {self.cycles}"
        if self.job is not None:
            spec = json.dumps(self.job, sort_keys=True, separators=(",", ":"))
            line += f"  (replay: python -m repro replay {shlex.quote(spec)})"
        return line

    def to_dict(self) -> dict:
        """JSON-safe record of this failure (mirrors
        :meth:`SimResult.to_dict`; partial stats land under ``stats``)."""
        return {
            "status": "failed",
            "workload": self.workload,
            "policy": self.policy,
            "config": self.config,
            "error_type": self.error_type,
            "error_message": self.error_message,
            "traceback": self.traceback,
            "attempts": self.attempts,
            "cycles": self.cycles,
            "stats": (
                stats_to_dict(self.partial_stats)
                if self.partial_stats is not None
                else None
            ),
            "job": self.job,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FailedResult":
        """Inverse of :meth:`to_dict`; tolerant of missing/extra keys."""
        return cls(
            workload=data["workload"],
            policy=data["policy"],
            config=data["config"],
            error_type=data["error_type"],
            error_message=data["error_message"],
            traceback=data.get("traceback") or "",
            attempts=data.get("attempts", 1),
            cycles=data.get("cycles", 0),
            partial_stats=(
                stats_from_dict(data["stats"]) if data.get("stats") else None
            ),
            job=data.get("job"),
        )


def result_from_dict(data: dict):
    """Rebuild a :class:`SimResult` or :class:`FailedResult` from its
    :meth:`to_dict` record, dispatching on the ``status`` field."""
    status = data.get("status")
    if status == "ok":
        return SimResult.from_dict(data)
    if status == "failed":
        return FailedResult.from_dict(data)
    raise ValueError(
        f"result record has unknown status {status!r}; expected 'ok' or 'failed'"
    )


def speedup(result: SimResult, baseline: SimResult) -> float:
    """Relative speedup of ``result`` over ``baseline`` (0.10 = +10%)."""
    if baseline.ipc <= 0:
        raise ValueError("baseline has zero IPC")
    return result.ipc / baseline.ipc - 1.0


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; accepts ratios (all values must be positive)."""
    values = list(values)
    if not values:
        raise ValueError("geomean of an empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def geomean_speedup(results, programs: Iterable[str], policy: str, base: str) -> float:
    """Geometric-mean speedup of ``policy`` over ``base`` across
    ``programs`` (0.10 = +10%), from ``results[workload][policy]``."""
    return geomean(results[w][policy].ipc / results[w][base].ipc for w in programs) - 1.0
