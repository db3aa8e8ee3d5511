"""Fault-tolerant experiment harness: isolated workers, retry, resume.

Large sweeps (all SPEC2017 profiles x IQ policies x configs) must survive
individual-run failure the way SWQUE survives wrap-around priority
inversion: detect, correct, and keep issuing.  :func:`run_sweep` runs
(workload, policy, config, seed) :class:`SweepJob` cells either

* in-process (``max_workers=0``) — sequential, with a shared trace
  cache so every policy of a workload sees the identical instruction
  stream (the :func:`repro.sim.runner.run_policies` fast path), or
* on the service's supervised worker pool
  (:class:`~repro.service.supervisor.ProcessWorkerPool`) — forked
  workers with a per-job wall-clock ``timeout``; a worker that
  segfaults, is OOM-killed, hangs, or overruns its budget is replaced.
  A crash or hang is a ``WorkerCrashed``/``WorkerHung`` loss; a cell
  over its budget is a ``JobTimeout`` failure, reported once.

Failures are data, not crashes: a failed cell becomes a
:class:`~repro.sim.results.FailedResult` carrying the exception class,
traceback, attempt count, and the partial
:class:`~repro.cpu.stats.PipelineStats` that divergence/invariant errors
attach — so a sweep always returns a complete per-cell results map.
The simulator is deterministic, so every run is one attempt: a cell
that raises (divergence under a tight cycle budget included) would
raise again.  Only a lost worker is retried, up to ``retries`` times
with exponential backoff, by the loop that owns the pool.

With ``cache_dir=<dir>``, every successful cell is stored in the
content-addressed :class:`~repro.service.cache.ResultCache` as it
completes, and a sweep over the same directory restores cached cells
instead of running them, so a killed sweep loses at most its in-flight
cells.  It is the store ``serve --cache-dir`` uses: sweeps and the
service share cells.
"""

from __future__ import annotations

import functools
import os
import re
import signal
import threading
import time
import traceback
from collections import OrderedDict, deque
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.config import CONFIGS, MEDIUM, ProcessorConfig, config_digest, get_config
from repro.core.factory import IQ_POLICIES
from repro.sim.faults import FaultSpec
from repro.sim.results import FailedResult, SimResult, result_from_dict
from repro.sim.simulator import DEFAULT_INSTRUCTIONS, simulate

CellResult = Union[SimResult, FailedResult]

#: How a supervised worker can be lost mid-job (the ``error_type`` of
#: the failure the pool reports): it died, or stopped heart-beating.
#: A job over its wall-clock budget is not a loss but a ``JobTimeout``
#: result: the simulation is deterministic and would time out again.
WORKER_LOSS_KINDS = ("WorkerCrashed", "WorkerHung")


class SweepFailed(RuntimeError):
    """Raised in ``fail_fast`` mode when a cell fails permanently."""

    def __init__(self, failure: FailedResult) -> None:
        super().__init__(
            f"sweep cell {failure.workload}/{failure.policy} failed "
            f"[{failure.error_type}]: {failure.error_message}"
        )
        self.failure = failure


# -- jobs ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepJob:
    """One sweep cell: everything needed to (re)run a single simulation."""

    workload: object  # benchmark name, WorkloadProfile, or Trace
    policy: str
    config: ProcessorConfig = MEDIUM
    num_instructions: int = DEFAULT_INSTRUCTIONS
    seed: Optional[int] = None
    max_cycles: Optional[int] = None
    warmup_instructions: Optional[int] = None
    #: Chaos testing: inject this fault into the run (picklable spec).
    fault: Optional[FaultSpec] = None

    @property
    def workload_name(self) -> str:
        if isinstance(self.workload, str):
            return self.workload
        return getattr(self.workload, "name", None) or "custom"

    @property
    def key(self) -> str:
        """Human-readable cell identity: the sweep report's key.  The
        cycle cap and warmup appear only when set, so default keys (and
        the telemetry file names derived from them) stay short.  A config
        other than the one registered under its name (a
        ``dataclasses.replace`` copy) is named by its name plus a short
        :func:`~repro.config.config_digest`, so two such copies are two
        cells.  Resume joins on the content address
        (:func:`repro.service.cache.cache_key`) instead, which also
        covers package version and model sources."""
        config = self.config.name
        registered = CONFIGS.get(config)
        if registered is not self.config and registered != self.config:
            config += "@" + config_digest(self.config)[:8]
        key = (
            f"{self.workload_name}|{self.policy}|{config}"
            f"|n={self.num_instructions}|seed={self.seed}"
        )
        if self.max_cycles is not None:
            key += f"|max_cycles={self.max_cycles}"
        if self.warmup_instructions is not None:
            key += f"|warmup={self.warmup_instructions}"
        return key


def job_to_dict(job: SweepJob, priority: int = 0, tenant: str = "default") -> dict:
    """Wire form of a job: named workload + named config only."""
    return {
        "workload": job.workload_name,
        "policy": job.policy,
        "config": job.config.name,
        "num_instructions": job.num_instructions,
        "seed": job.seed,
        "max_cycles": job.max_cycles,
        "warmup_instructions": job.warmup_instructions,
        "priority": priority,
        "tenant": tenant,
    }


def job_from_dict(data: dict) -> SweepJob:
    """Rebuild a :class:`SweepJob` from :func:`job_to_dict` output.

    Raises ``ValueError``/``KeyError`` for malformed payloads; the
    HTTP layer maps these to 400.
    """
    if not isinstance(data, dict):
        raise ValueError("job payload must be a JSON object")
    workload = data["workload"]
    if not isinstance(workload, str):
        raise ValueError("workload must be a profile name")
    from repro.workloads.spec2017 import SPEC2017_PROFILES

    if workload not in SPEC2017_PROFILES:
        raise ValueError(
            f"unknown workload {workload!r}; "
            f"available: {sorted(SPEC2017_PROFILES)}"
        )
    policy = data.get("policy")
    if policy not in IQ_POLICIES:
        raise ValueError(
            f"unknown IQ policy {policy!r}; choose from {IQ_POLICIES}"
        )
    for budget in ("num_instructions", "seed", "max_cycles",
                   "warmup_instructions"):
        value = data.get(budget)
        if value is not None and not isinstance(value, int):
            raise ValueError(f"{budget} must be an integer (or null)")
    return SweepJob(
        workload=workload,
        policy=data["policy"],
        config=get_config(data.get("config") or "medium"),
        num_instructions=data.get("num_instructions") or DEFAULT_INSTRUCTIONS,
        seed=data.get("seed"),
        max_cycles=data.get("max_cycles"),
        warmup_instructions=data.get("warmup_instructions"),
    )


def job_spec(job: SweepJob) -> Optional[dict]:
    """The spec that reruns ``job``: its :func:`job_to_dict` run fields,
    plus its fault's :class:`FaultSpec` fields under ``"fault"``.

    None when names cannot rebuild the job: a pre-built trace, or a
    profile or config that differs from the one registered under its
    name.  :func:`repro.verify.replay` takes the spec.
    """
    from repro.workloads.spec2017 import SPEC2017_PROFILES

    if not isinstance(job.workload, str) and (
        SPEC2017_PROFILES.get(job.workload_name) != job.workload
    ):
        return None
    if CONFIGS.get(job.config.name) != job.config:
        return None
    spec = job_to_dict(job)
    del spec["priority"], spec["tenant"]
    if job.fault is not None:
        spec["fault"] = asdict(job.fault)
    return spec


def job_from_spec(spec: dict) -> SweepJob:
    """Inverse of :func:`job_spec`.  Checks outside input like
    :func:`job_from_dict`: a ``ValueError`` (``KeyError`` for a missing
    workload) that names the bad field."""
    job = job_from_dict(spec)
    fault = spec.get("fault")
    if fault is None:
        return job
    if not isinstance(fault, dict):
        raise ValueError("fault must be an object of FaultSpec fields")
    try:
        return replace(job, fault=FaultSpec(**fault))
    except TypeError as exc:
        raise ValueError(f"fault: {exc}") from None


def make_grid(
    workloads: Sequence[str],
    policies: Sequence[str],
    configs: Sequence[ProcessorConfig] = (MEDIUM,),
    num_instructions: int = DEFAULT_INSTRUCTIONS,
    seed: Optional[int] = None,
    max_cycles: Optional[int] = None,
    warmup_instructions: Optional[int] = None,
) -> List[SweepJob]:
    """The full cross product as a job list, workload-major order."""
    return [
        SweepJob(
            workload=w,
            policy=p,
            config=c,
            num_instructions=num_instructions,
            seed=seed,
            max_cycles=max_cycles,
            warmup_instructions=warmup_instructions,
        )
        for w in workloads
        for c in configs
        for p in policies
    ]


def _validate_jobs(jobs: Sequence[SweepJob]) -> None:
    """Reject a malformed sweep before any cell burns CPU time."""
    seen: Dict[str, SweepJob] = {}
    for job in jobs:
        if not isinstance(job.policy, str) or job.policy not in IQ_POLICIES:
            raise ValueError(
                f"job {job.key!r}: unknown IQ policy {job.policy!r}; "
                f"choose from {IQ_POLICIES}"
            )
        if job.num_instructions <= 0:
            raise ValueError(
                f"job {job.key!r}: num_instructions must be positive"
            )
        if job.max_cycles is not None and job.max_cycles <= 0:
            raise ValueError(f"job {job.key!r}: max_cycles must be positive")
        if job.key in seen:
            raise ValueError(
                f"duplicate sweep cell {job.key!r}: a sweep needs unique "
                "(workload, policy, config, budgets, seed) keys"
            )
        seen[job.key] = job


# -- single-job execution -----------------------------------------------------------


def _sanitize_key(key: str) -> str:
    """A job key as a safe filename stem (``|``/``=`` etc. collapse)."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", key).strip("_")


def _run_job(
    job: SweepJob,
    _trace_cache: Optional[dict] = None,
    telemetry_dir: Optional[Path] = None,
) -> SimResult:
    """Execute one cell (in the caller's process); may raise.

    ``telemetry_dir`` runs the cell with interval telemetry enabled and
    exports the per-cell artifacts (timeline/events JSONL + Chrome
    trace) there, named after the job key.
    """
    workload = job.workload
    if _trace_cache is not None and isinstance(workload, str):
        from repro.workloads.generator import generate_trace
        from repro.workloads.spec2017 import get_profile

        cache_key = (workload, job.num_instructions, job.seed)
        trace = _trace_cache.get(cache_key)
        if trace is None:
            trace = generate_trace(
                get_profile(workload), job.num_instructions, seed=job.seed
            )
            _trace_cache[cache_key] = trace
        workload = trace
    result = simulate(
        workload,
        job.policy,
        config=job.config,
        num_instructions=job.num_instructions,
        seed=job.seed,
        max_cycles=job.max_cycles,
        warmup_instructions=job.warmup_instructions,
        faults=job.fault,
        telemetry=telemetry_dir is not None,
    )
    if telemetry_dir is not None and result.telemetry is not None:
        from repro.telemetry.export import export_run

        export_run(
            result.telemetry,
            telemetry_dir,
            _sanitize_key(job.key),
            meta={
                "key": job.key,
                "workload": job.workload_name,
                "policy": job.policy,
                "config": job.config.name,
                "seed": job.seed,
            },
        )
        # The sink served its purpose; results must stay light enough to
        # cross the worker pipe and land in cache entries.
        result.telemetry = None
    return result


def _failure(job: SweepJob, exc: BaseException, attempts: int) -> FailedResult:
    """A failed cell from the exception that ended its last attempt, with
    any partial progress the exception carries."""
    cycles = getattr(exc, "cycles", None) or getattr(exc, "cycle", None) or 0
    return FailedResult(
        workload=job.workload_name,
        policy=job.policy,
        config=job.config.name,
        error_type=type(exc).__name__,
        error_message=str(exc),
        traceback=traceback.format_exc(),
        attempts=attempts,
        cycles=int(cycles),
        partial_stats=getattr(exc, "partial_stats", None),
    )


def run_job_once(
    job: SweepJob,
    job_runner: Callable[..., SimResult],
    trace_cache: dict,
) -> CellResult:
    """Run one cell exactly once; an exception becomes its failed cell.

    The simulator is deterministic, so a run that raised would raise
    again: there is nothing to retry here.  The failure keeps the live
    exception as ``.exception`` (so fail-fast callers can re-raise the
    original error); a caller that sends the result across a process
    pipe clears it first.
    """
    try:
        return job_runner(job, _trace_cache=trace_cache)
    except Exception as exc:
        failure = _failure(job, exc, 1)
        failure.exception = exc
        return failure


# -- the sweep report ---------------------------------------------------------------


@dataclass
class SweepReport:
    """Complete per-cell outcome map of one sweep, success or not."""

    cells: "OrderedDict[str, CellResult]" = field(default_factory=OrderedDict)
    #: Cells restored from the result cache instead of executed.
    restored: int = 0
    #: Cells actually executed this run.
    executed: int = 0
    #: Re-dispatches after a lost worker (attempts beyond the first).
    retried: int = 0
    #: The sweep was stopped early by SIGINT/SIGTERM: ``cells`` holds
    #: only the cells that finished (the successes all cached, with a
    #: ``cache_dir``); re-running over the same directory runs the rest.
    interrupted: bool = False

    @property
    def successes(self) -> List[SimResult]:
        return [r for r in self.cells.values() if r.ok]

    @property
    def failures(self) -> List[FailedResult]:
        return [r for r in self.cells.values() if not r.ok]

    @property
    def all_ok(self) -> bool:
        return not self.failures

    def by_workload(self) -> Dict[str, Dict[str, CellResult]]:
        """``results[workload][policy]`` map (single-config sweeps)."""
        nested: Dict[str, Dict[str, CellResult]] = {}
        for result in self.cells.values():
            nested.setdefault(result.workload, {})[result.policy] = result
        return nested

    def to_dict(self) -> dict:
        """JSON-safe record of the whole report (cells via their own
        ``to_dict``) — the shape the service API returns for sweeps."""
        return {
            "cells": {key: r.to_dict() for key, r in self.cells.items()},
            "restored": self.restored,
            "executed": self.executed,
            "retried": self.retried,
            "interrupted": self.interrupted,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepReport":
        """Inverse of :meth:`to_dict`; ignores keys it does not know."""
        report = cls(
            restored=data.get("restored", 0),
            executed=data.get("executed", 0),
            retried=data.get("retried", 0),
            interrupted=data.get("interrupted", False),
        )
        for key, record in (data.get("cells") or {}).items():
            report.cells[key] = result_from_dict(record)
        return report

    def summary(self) -> str:
        """Human-readable status table plus tracebacks of the failures."""
        lines = [
            f"sweep: {len(self.cells)} cells, {len(self.successes)} ok, "
            f"{len(self.failures)} failed "
            f"({self.restored} restored from cache, "
            f"{self.executed} executed"
            + (f", {self.retried} retried" if self.retried else "")
            + ")"
        ]
        if self.interrupted:
            lines.append(
                "warning: sweep interrupted by signal; unfinished cells "
                "omitted (re-run with the same cache_dir to complete them)"
            )
        for result in self.cells.values():
            lines.append("  " + result.summary())
        for failure in self.failures:
            lines.append("")
            lines.append(
                f"--- {failure.workload}/{failure.policy}"
                f"/{failure.config}: {failure.error_type} ---"
            )
            if failure.partial_stats is not None:
                lines.append(
                    f"partial progress: {failure.partial_stats.committed} "
                    f"committed in {failure.partial_stats.cycles} cycles"
                )
            if failure.traceback:
                lines.append(failure.traceback.rstrip())
        return "\n".join(lines)


# -- the sweep loop -----------------------------------------------------------------


def run_sweep(
    jobs: Sequence[SweepJob],
    *,
    max_workers: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    backoff: float = 0.5,
    cache_dir: Optional[Union[str, Path]] = None,
    fail_fast: bool = False,
    telemetry_dir: Optional[Union[str, Path]] = None,
    on_result: Optional[Callable[[SweepJob, CellResult], None]] = None,
    on_retry: Optional[Callable[[SweepJob, int, str], None]] = None,
    _job_runner: Callable[..., SimResult] = _run_job,
) -> SweepReport:
    """Run every job; always returns a complete per-cell results map.

    By default the cells run on a supervised pool of up to
    ``max_workers`` forked workers (CPU count - 1 when None) with a
    per-job wall-clock ``timeout``; ``max_workers=0`` runs them
    sequentially in-process (no timeout enforcement and no worker to
    lose, but the cache still applies) — the right choice for small
    sweeps and deterministic tests.

    Every cell runs once: the simulator is deterministic, so an
    exception, or a run past ``timeout`` (``JobTimeout``), yields a
    :class:`~repro.sim.results.FailedResult` cell (or, with
    ``fail_fast=True``, raises :class:`SweepFailed`) without a re-run.  Only a lost worker (:data:`WORKER_LOSS_KINDS`) is
    retried, up to ``retries`` extra times, waiting
    ``backoff * 2**(attempt-1)`` seconds before each re-dispatch.

    ``cache_dir=<dir>`` makes the sweep resumable: a cell whose content
    address is in the :class:`~repro.service.cache.ResultCache` there is
    restored instead of run (counted in :attr:`SweepReport.restored`),
    and each success is stored as it completes.  Failures are never
    cached, so a failed cell runs again on the next sweep; so do cells
    that cannot be content-addressed (a pre-built trace, or fault
    injection).

    Each failed cell carries its rerun spec on
    :attr:`FailedResult.job <repro.sim.results.FailedResult.job>` (see
    :func:`job_spec`; None for a pre-built trace): ``python -m repro
    replay`` reruns it with per-cycle tracing.

    ``telemetry_dir=<dir>`` runs every executed cell with interval
    telemetry and exports per-cell artifacts (``<key>.timeline.jsonl``,
    ``<key>.events.jsonl``, ``<key>.trace.json``) into that directory as
    each cell completes.  ``on_result(job, result)`` is called once per
    cell as it lands in the report: restored cells first, before any
    cell runs, then each executed cell.  ``on_retry(job, next_attempt,
    error_type)`` is called before each re-dispatch after a worker loss
    (the report counts them in :attr:`SweepReport.retried`).

    SIGINT/SIGTERM (when running in the main thread) stop the sweep
    gracefully: in-flight workers are killed and a *partial* report
    comes back with :attr:`SweepReport.interrupted` set — re-run with
    the same ``cache_dir`` to finish the remaining cells.
    """
    jobs = list(jobs)
    _validate_jobs(jobs)
    if max_workers is None:
        max_workers = max(1, (os.cpu_count() or 2) - 1)
    if max_workers < 0:
        raise ValueError("max_workers must be >= 0 (0 runs in-process)")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if backoff < 0:
        raise ValueError("backoff must be >= 0")
    if timeout is not None and timeout <= 0:
        raise ValueError("timeout must be positive (or None)")
    if _job_runner is _run_job:
        _job_runner = functools.partial(
            _run_job,
            telemetry_dir=None if telemetry_dir is None else Path(telemetry_dir),
        )

    report = SweepReport()
    done: Dict[str, CellResult] = {}
    # Content address of each cacheable cell, by job key.
    cache_keys: Dict[str, str] = {}
    cache = None
    if cache_dir is not None:
        from repro.service.cache import ResultCache, UncacheableJob, cache_key

        cache = ResultCache(cache_dir)
        for job in jobs:
            try:
                cache_keys[job.key] = cache_key(job)
            except UncacheableJob:
                continue  # runs uncached, as on a worker node
            hit = cache.get(cache_keys[job.key])
            if hit is not None:
                done[job.key] = hit
                if on_result is not None:
                    on_result(job, hit)
        report.restored = len(done)

    def note_retry(job: SweepJob, next_attempt: int, error_type: str) -> None:
        report.retried += 1
        if on_retry is not None:
            on_retry(job, next_attempt, error_type)

    def finish(job: SweepJob, result: CellResult) -> None:
        if isinstance(result, FailedResult):
            result.job = job_spec(job)
        done[job.key] = result
        report.executed += 1
        if job.key in cache_keys:
            # Durable before anyone hears of it; failures are skipped.
            cache.put(cache_keys[job.key], result, job=job)
        if on_result is not None:
            on_result(job, result)
        if fail_fast and isinstance(result, FailedResult):
            raise SweepFailed(result)

    todo = [job for job in jobs if job.key not in done]

    # Graceful SIGINT/SIGTERM: convert both to the KeyboardInterrupt
    # unwind path, then swallow it below — every success is already in
    # the cache, so a Ctrl-C / scheduler kill yields a partial
    # SweepReport (``interrupted=True``) instead of a traceback.
    # Handlers can only live in the main thread; elsewhere (e.g. a
    # caller's worker thread) the sweep runs unhooked.
    previous_handlers: Dict[int, object] = {}
    if threading.current_thread() is threading.main_thread():

        def _signal_to_interrupt(signum, frame):
            raise KeyboardInterrupt(f"signal {signum}")

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous_handlers[sig] = signal.signal(sig, _signal_to_interrupt)
            except (ValueError, OSError):  # pragma: no cover - exotic host
                pass

    try:
        try:
            if max_workers == 0:
                trace_cache: dict = {}
                for job in todo:
                    finish(job, run_job_once(job, _job_runner, trace_cache))
            elif todo:
                _run_pool(todo, finish, min(max_workers, len(todo)), timeout,
                          retries, backoff, _job_runner, note_retry)
        except KeyboardInterrupt:
            report.interrupted = True
    finally:
        for sig, handler in previous_handlers.items():
            signal.signal(sig, handler)

    # Report cells in job order, executed or restored alike.  An
    # interrupted sweep reports only its finished cells.
    for job in jobs:
        if job.key in done:
            report.cells[job.key] = done[job.key]
        elif not report.interrupted:
            raise AssertionError(  # pragma: no cover - harness bug guard
                f"sweep finished without a result for cell {job.key!r}"
            )
    return report


def _run_pool(
    todo: Sequence[SweepJob],
    finish: Callable[[SweepJob, CellResult], None],
    size: int,
    timeout: Optional[float],
    retries: int,
    backoff: float,
    job_runner: Callable[..., SimResult],
    note_retry: Callable[[SweepJob, int, str], None],
) -> None:
    """Run ``todo`` on a supervised worker pool driven from this process.

    Each dispatch is one attempt.  A result, success or failure, is
    final; a lost worker's cell goes back on the queue after a backoff,
    which delays that cell without stalling the rest.
    """
    from multiprocessing.connection import wait

    from repro.service.supervisor import HEARTBEAT_INTERVAL, ProcessWorkerPool

    # (job, attempt, earliest monotonic dispatch time)
    pending = deque((job, 1, 0.0) for job in todo)
    inflight: Dict[str, int] = {}  # job key -> attempt
    pool = ProcessWorkerPool(size, job_runner=job_runner, job_timeout=timeout)
    pool.start()
    try:
        while pending or inflight:
            now = time.monotonic()
            for _ in range(len(pending)):
                job, attempt, not_before = pending[0]
                if not_before > now:
                    pending.rotate(-1)
                elif pool.dispatch(job.key, job):
                    pending.popleft()
                    inflight[job.key] = attempt
                else:
                    break  # every worker is busy
            events = pool.poll()
            for event in events:
                job = event[2]
                attempt = inflight.pop(job.key)
                if event[0] == "result":
                    finish(job, event[3])
                    continue
                kind, message = event[3], event[4]  # ("lost", id, job, kind, message)
                if attempt <= retries:
                    note_retry(job, attempt + 1, kind)
                    pending.append((job, attempt + 1, time.monotonic()
                                    + backoff * 2 ** (attempt - 1)))
                else:
                    finish(job, FailedResult(
                        workload=job.workload_name,
                        policy=job.policy,
                        config=job.config.name,
                        error_type=kind,
                        error_message=message,
                        attempts=attempt,
                    ))
            if not events:
                wait(pool.connections(), HEARTBEAT_INTERVAL)
    finally:
        # fail_fast, KeyboardInterrupt, ...: never leak worker processes.
        pool.stop()
