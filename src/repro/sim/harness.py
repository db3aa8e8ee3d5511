"""Fault-tolerant experiment harness: isolated workers, retry, resume.

Large sweeps (all SPEC2017 profiles x IQ policies x configs) must survive
individual-run failure the way SWQUE survives wrap-around priority
inversion: detect, correct, and keep issuing.  This module runs
(workload, policy, config, seed) :class:`SweepJob` cells through either

* an ``"inline"`` executor — sequential, in-process, with a shared trace
  cache so every policy of a workload sees the identical instruction
  stream (the :func:`repro.sim.runner.run_policies` fast path), or
* a ``"process"`` executor — one isolated worker process per attempt,
  with a per-job wall-clock ``timeout`` after which the worker is killed;
  a worker that segfaults or is OOM-killed is detected by its exit code.

Failures are data, not crashes: a cell that exhausts its retries becomes
a :class:`~repro.sim.results.FailedResult` carrying the exception class,
traceback, attempt count, and the partial
:class:`~repro.cpu.stats.PipelineStats` that divergence/invariant errors
attach — so a sweep always returns a complete per-cell results map.
Transient failures (divergence under a tight cycle budget, a timed-out
or crashed worker) are retried up to ``retries`` times with exponential
backoff.

With ``checkpoint=<path>``, every finished cell is appended to a
JSON-lines file as it completes; re-running the same sweep with
``resume=True`` restores finished cells from the file and executes only
the unfinished ones, so a killed sweep loses at most the in-flight jobs.
A torn final line (the sweep was killed mid-write) is skipped, not fatal.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import signal
import threading
import time
import traceback
import warnings
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.config import MEDIUM, ProcessorConfig
from repro.core.factory import IQ_POLICIES
from repro.sim.faults import FaultSpec
from repro.sim.results import (
    FailedResult,
    SimResult,
    result_from_dict,
    stats_from_dict,
    stats_to_dict,
)
from repro.sim.simulator import DEFAULT_INSTRUCTIONS, simulate
from repro.verify.snapshot import write_bytes_atomic

CellResult = Union[SimResult, FailedResult]

#: Exception class names retried by default: these depend on the cycle
#: budget, wall-clock budget, or the health of one worker process, so a
#: clean re-run (possibly after backoff) can succeed.
TRANSIENT_ERRORS = ("SimulationDiverged", "JobTimeout", "WorkerCrashed")

#: Poll interval of the process-executor scheduling loop, seconds.
_POLL_INTERVAL = 0.02


class JobTimeout(RuntimeError):
    """A worker exceeded its wall-clock budget and was killed."""


class WorkerCrashed(RuntimeError):
    """A worker process died without reporting a result (signal/OOM)."""


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
        """Stable cell identity — the checkpoint/resume join key."""
        return (
            f"{self.workload_name}|{self.policy}|{self.config.name}"
            f"|n={self.num_instructions}|seed={self.seed}"
        )


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
                f"duplicate sweep cell {job.key!r}: checkpointing needs "
                "unique (workload, policy, config, length, seed) keys"
            )
        seen[job.key] = job


# -- single-job execution -----------------------------------------------------------


def _sanitize_key(key: str) -> str:
    """A job key as a safe filename stem (``|``/``=`` etc. collapse)."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", key).strip("_")


def _run_job(
    job: SweepJob,
    _trace_cache: Optional[dict] = None,
    snapshot_dir: Optional[Path] = None,
    telemetry_dir: Optional[Path] = None,
) -> SimResult:
    """Execute one cell (in the caller's process); may raise.

    ``snapshot_dir`` arms the simulator's pre-crash snapshot: a failing
    run leaves a replayable state capture behind and attaches its path
    to the exception.  ``telemetry_dir`` runs the cell with interval
    telemetry enabled and exports the per-cell artifacts (timeline/
    events JSONL + Chrome trace) there, named after the job key.
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
        failure_snapshot_dir=snapshot_dir,
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
        # cross the worker pipe and land in checkpoint records.
        result.telemetry = None
    return result


def _error_info(exc: BaseException) -> dict:
    """Serialize an exception (with any partial progress it carries)."""
    stats = getattr(exc, "partial_stats", None)
    cycles = getattr(exc, "cycles", None) or getattr(exc, "cycle", None) or 0
    return {
        "error_type": type(exc).__name__,
        "error_message": str(exc),
        "traceback": traceback.format_exc(),
        "cycles": int(cycles),
        "stats": stats_to_dict(stats) if stats is not None else None,
        "snapshot_path": getattr(exc, "snapshot_path", None),
    }


def _worker_main(
    job: SweepJob,
    conn,
    snapshot_dir: Optional[Path] = None,
    telemetry_dir: Optional[Path] = None,
) -> None:
    """Process-executor worker: run one cell, report over the pipe."""
    try:
        result = _run_job(
            job, snapshot_dir=snapshot_dir, telemetry_dir=telemetry_dir
        )
        conn.send(("ok", result))
    except BaseException as exc:  # report everything, even SystemExit
        conn.send(("error", _error_info(exc)))
    finally:
        conn.close()


def _failure_from_info(job: SweepJob, info: dict, attempts: int) -> FailedResult:
    return FailedResult(
        workload=job.workload_name,
        policy=job.policy,
        config=job.config.name,
        error_type=info["error_type"],
        error_message=info["error_message"],
        traceback=info.get("traceback") or "",
        attempts=attempts,
        cycles=info.get("cycles") or 0,
        partial_stats=(
            stats_from_dict(info["stats"]) if info.get("stats") else None
        ),
        snapshot_path=info.get("snapshot_path"),
    )


# -- checkpointing ------------------------------------------------------------------


def _result_record(job: SweepJob, result: CellResult) -> dict:
    """One checkpoint line: the result's own ``to_dict`` record plus the
    sweep-cell identity (join ``key``, and the *requested* ``seed`` —
    successful records carry the resolved one as ``effective_seed``)."""
    record = result.to_dict()
    record.update(
        key=job.key,
        workload=job.workload_name,
        policy=job.policy,
        config=job.config.name,
        num_instructions=job.num_instructions,
        seed=job.seed,
    )
    return record


def _result_from_record(record: dict) -> CellResult:
    return result_from_dict(record)


def load_checkpoint(path: Union[str, Path]) -> Tuple[Dict[str, dict], int]:
    """Parse a JSON-lines checkpoint; returns (records by key, bad lines).

    Unparsable lines — e.g. a torn final line from a killed sweep — are
    counted and skipped, never fatal: losing one cell beats losing the
    sweep.  Later records win, so a re-run cell supersedes its old entry.
    """
    records: Dict[str, dict] = {}
    corrupt = 0
    with open(path, "r") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                key = record["key"]
                status = record["status"]
            except (json.JSONDecodeError, KeyError, TypeError):
                corrupt += 1
                continue
            if status not in ("ok", "failed"):
                corrupt += 1
                continue
            records[key] = record
    return records, corrupt


# -- the sweep report ---------------------------------------------------------------


@dataclass
class SweepReport:
    """Complete per-cell outcome map of one sweep, success or not."""

    cells: "OrderedDict[str, CellResult]" = field(default_factory=OrderedDict)
    #: Cells restored from the checkpoint instead of executed.
    restored: int = 0
    #: Cells actually executed this run.
    executed: int = 0
    #: Transient-failure retries performed (attempts beyond the first).
    retried: int = 0
    #: Unparsable checkpoint lines skipped during resume.
    corrupt_checkpoint_lines: int = 0
    #: The sweep was stopped early by SIGINT/SIGTERM: ``cells`` holds
    #: only the cells that finished (all checkpointed); the rest can be
    #: re-run with ``resume=True``.
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
            "corrupt_checkpoint_lines": self.corrupt_checkpoint_lines,
            "interrupted": self.interrupted,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepReport":
        """Inverse of :meth:`to_dict`."""
        report = cls(
            restored=data.get("restored", 0),
            executed=data.get("executed", 0),
            retried=data.get("retried", 0),
            corrupt_checkpoint_lines=data.get("corrupt_checkpoint_lines", 0),
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
            f"({self.restored} restored from checkpoint, "
            f"{self.executed} executed"
            + (f", {self.retried} retried" if self.retried else "")
            + ")"
        ]
        if self.interrupted:
            lines.append(
                "warning: sweep interrupted by signal; unfinished cells "
                "omitted (re-run with resume=True to complete them)"
            )
        if self.corrupt_checkpoint_lines:
            lines.append(
                f"warning: skipped {self.corrupt_checkpoint_lines} corrupt "
                "checkpoint line(s)"
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


@dataclass
class _Running:
    """Parent-side handle on one in-flight worker attempt."""

    job: SweepJob
    attempt: int
    proc: multiprocessing.Process
    conn: object
    deadline: Optional[float]


def _terminate(proc: multiprocessing.Process) -> None:
    proc.terminate()
    proc.join(timeout=2.0)
    if proc.is_alive():  # pragma: no cover - stubborn worker
        proc.kill()
        proc.join(timeout=2.0)


def run_sweep(
    jobs: Sequence[SweepJob],
    *,
    max_workers: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    backoff: float = 0.5,
    transient: Sequence[str] = TRANSIENT_ERRORS,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
    executor: str = "process",
    fail_fast: bool = False,
    snapshot_failures: Optional[Union[str, Path]] = None,
    telemetry_dir: Optional[Union[str, Path]] = None,
    on_result: Optional[Callable[[SweepJob, CellResult], None]] = None,
    on_retry: Optional[Callable[[SweepJob, int, str], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
    _job_runner: Callable[..., SimResult] = _run_job,
) -> SweepReport:
    """Run every job; always returns a complete per-cell results map.

    ``executor="process"`` (the default) runs up to ``max_workers``
    isolated worker processes with per-job wall-clock ``timeout``;
    ``executor="inline"`` runs sequentially in-process (no timeout
    enforcement, but retries/backoff/checkpointing still apply) — the
    right choice for small sweeps and deterministic tests.

    Exceptions whose class name is in ``transient`` are retried up to
    ``retries`` extra times, waiting ``backoff * 2**(attempt-1)`` seconds
    before each re-run.  Any other exception — or an exhausted retry
    budget — yields a :class:`~repro.sim.results.FailedResult` cell (or,
    with ``fail_fast=True``, raises :class:`SweepFailed`).

    ``checkpoint``/``resume`` give crash-durable sweeps; see the module
    docstring for the file format and semantics.

    ``snapshot_failures=<dir>`` arms pre-crash state capture: a cell
    whose run dies leaves a checksummed snapshot of the simulator state
    shortly before the failure in that directory, its path recorded on
    the :class:`~repro.sim.results.FailedResult` — replay it with
    ``python -m repro replay <path>``.

    ``telemetry_dir=<dir>`` runs every cell with interval telemetry and
    exports per-cell artifacts (``<key>.timeline.jsonl``,
    ``<key>.events.jsonl``, ``<key>.trace.json``) into that directory as
    each cell completes.  ``on_retry(job, next_attempt, error_type)`` is
    called before each transient-failure re-run (the report counts them
    in :attr:`SweepReport.retried`).

    SIGINT/SIGTERM (when running in the main thread) stop the sweep
    gracefully: in-flight workers are terminated, the checkpoint file is
    left flushed and closed, and a *partial* report comes back with
    :attr:`SweepReport.interrupted` set — re-run with ``resume=True`` to
    finish the remaining cells.
    """
    jobs = list(jobs)
    _validate_jobs(jobs)
    if executor not in ("process", "inline"):
        raise ValueError(f"unknown executor {executor!r}; use 'process' or 'inline'")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if backoff < 0:
        raise ValueError("backoff must be >= 0")
    if timeout is not None and timeout <= 0:
        raise ValueError("timeout must be positive (or None)")
    if checkpoint is not None:
        for job in jobs:
            if not isinstance(job.workload, str):
                raise ValueError(
                    f"checkpointable sweeps need named workloads so cells "
                    f"can be re-identified on resume; job {job.key!r} "
                    f"carries a {type(job.workload).__name__}"
                )

    report = SweepReport()
    done: Dict[str, CellResult] = {}
    snapshot_dir = Path(snapshot_failures) if snapshot_failures is not None else None
    tel_dir = Path(telemetry_dir) if telemetry_dir is not None else None
    if (snapshot_dir is not None or tel_dir is not None) and _job_runner is _run_job:

        def _job_runner(
            job, _trace_cache=None, _snap=snapshot_dir, _tel=tel_dir
        ):
            return _run_job(
                job,
                _trace_cache=_trace_cache,
                snapshot_dir=_snap,
                telemetry_dir=_tel,
            )

    def note_retry(job: SweepJob, next_attempt: int, error_type: str) -> None:
        report.retried += 1
        if on_retry is not None:
            on_retry(job, next_attempt, error_type)

    # Restore finished cells before launching anything.
    checkpoint_handle = None
    if checkpoint is not None:
        path = Path(checkpoint)
        if resume and path.exists():
            records, report.corrupt_checkpoint_lines = load_checkpoint(path)
            wanted = {job.key for job in jobs}
            for key, record in records.items():
                if key in wanted:
                    done[key] = _result_from_record(record)
            report.restored = len(done)
            # Compact-rewrite before appending: drops corrupt lines (a
            # torn final line — even newline-less — would otherwise get
            # new records concatenated onto it) and squashes superseded
            # duplicates.  Records for cells outside this sweep are kept;
            # the rewrite is atomic, so a crash here loses nothing.
            compacted = b"".join(
                (json.dumps(record) + "\n").encode("utf-8")
                for record in records.values()
            )
            write_bytes_atomic(compacted, path)
            if report.corrupt_checkpoint_lines:
                warnings.warn(
                    f"checkpoint {path} had "
                    f"{report.corrupt_checkpoint_lines} corrupt line(s) "
                    f"(torn write from an interrupted sweep?); they were "
                    f"skipped and dropped on compaction",
                    RuntimeWarning,
                    stacklevel=2,
                )
        path.parent.mkdir(parents=True, exist_ok=True)
        checkpoint_handle = open(path, "a" if resume else "w")

    def finish(job: SweepJob, result: CellResult) -> None:
        done[job.key] = result
        report.executed += 1
        if checkpoint_handle is not None:
            checkpoint_handle.write(json.dumps(_result_record(job, result)) + "\n")
            checkpoint_handle.flush()
        if on_result is not None:
            on_result(job, result)
        if fail_fast and isinstance(result, FailedResult):
            raise SweepFailed(result)

    todo = [job for job in jobs if job.key not in done]

    # Graceful SIGINT/SIGTERM: convert both to the KeyboardInterrupt
    # unwind path, then swallow it below — the checkpoint is flushed per
    # cell and closed in the finally, so a Ctrl-C / scheduler kill yields
    # a partial SweepReport (``interrupted=True``) instead of dying
    # mid-write.  Handlers can only live in the main thread; elsewhere
    # (e.g. a caller's worker thread) the sweep runs unhooked.
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
            if executor == "inline":
                _run_inline(
                    todo,
                    finish,
                    retries,
                    backoff,
                    transient,
                    sleep,
                    _job_runner,
                    note_retry,
                )
            else:
                _run_processes(
                    todo,
                    finish,
                    max_workers=max_workers,
                    timeout=timeout,
                    retries=retries,
                    backoff=backoff,
                    transient=transient,
                    snapshot_dir=snapshot_dir,
                    telemetry_dir=tel_dir,
                    note_retry=note_retry,
                )
        except KeyboardInterrupt:
            report.interrupted = True
    finally:
        for sig, handler in previous_handlers.items():
            signal.signal(sig, handler)
        if checkpoint_handle is not None:
            checkpoint_handle.close()

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


def run_job_with_retries(
    job: SweepJob,
    retries: int = 1,
    backoff: float = 0.5,
    transient: Sequence[str] = TRANSIENT_ERRORS,
    job_runner: Callable[..., SimResult] = _run_job,
    sleep: Callable[[float], None] = time.sleep,
) -> CellResult:
    """One cell through the inline retry/backoff loop; never raises.

    The single-job face of the harness, for callers that own their own
    process isolation — the service worker pool
    (:mod:`repro.service.supervisor`) forks long-lived workers and runs
    each dispatched job through this, so transient failures retry
    *inside* the worker while crashes and hangs are the supervisor's
    problem.  Always returns a :class:`CellResult`; the live exception a
    :class:`~repro.sim.results.FailedResult` carries in inline mode is
    stripped so the result can cross a process pipe.
    """
    outcome: Dict[str, CellResult] = {}
    _run_inline(
        [job],
        lambda j, result: outcome.__setitem__(j.key, result),
        retries,
        backoff,
        transient,
        sleep,
        job_runner,
    )
    result = outcome[job.key]
    if isinstance(result, FailedResult):
        result.exception = None  # live exceptions do not pickle reliably
    return result


def _run_inline(
    todo: Sequence[SweepJob],
    finish: Callable[[SweepJob, CellResult], None],
    retries: int,
    backoff: float,
    transient: Sequence[str],
    sleep: Callable[[float], None],
    job_runner: Callable[..., SimResult],
    note_retry: Optional[Callable[[SweepJob, int, str], None]] = None,
) -> None:
    trace_cache: dict = {}
    for job in todo:
        attempt = 1
        while True:
            try:
                result = job_runner(job, _trace_cache=trace_cache)
                finish(job, result)
                break
            except (KeyboardInterrupt, SweepFailed):
                raise
            except Exception as exc:
                if type(exc).__name__ in transient and attempt <= retries:
                    delay = backoff * (2 ** (attempt - 1))
                    if delay:
                        sleep(delay)
                    attempt += 1
                    if note_retry is not None:
                        note_retry(job, attempt, type(exc).__name__)
                    continue
                failure = _failure_from_info(job, _error_info(exc), attempt)
                # Inline-only: keep the live exception so fail-fast callers
                # (run_policies) can re-raise the original error.
                failure.exception = exc
                finish(job, failure)
                break


def _run_processes(
    todo: Sequence[SweepJob],
    finish: Callable[[SweepJob, CellResult], None],
    max_workers: Optional[int],
    timeout: Optional[float],
    retries: int,
    backoff: float,
    transient: Sequence[str],
    snapshot_dir: Optional[Path] = None,
    telemetry_dir: Optional[Path] = None,
    note_retry: Optional[Callable[[SweepJob, int, str], None]] = None,
) -> None:
    if max_workers is None:
        max_workers = max(1, (os.cpu_count() or 2) - 1)
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        ctx = multiprocessing.get_context()

    # (job, attempt, earliest monotonic launch time) — backoff delays the
    # retry of one cell without stalling the rest of the sweep.
    pending: "deque[Tuple[SweepJob, int, float]]" = deque(
        (job, 1, 0.0) for job in todo
    )
    running: List[_Running] = []

    def settle(entry: _Running, info: dict) -> None:
        running.remove(entry)
        try:
            entry.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if (
            info["error_type"] in transient
            and entry.attempt <= retries
        ):
            delay = backoff * (2 ** (entry.attempt - 1))
            if note_retry is not None:
                note_retry(entry.job, entry.attempt + 1, info["error_type"])
            pending.append((entry.job, entry.attempt + 1, time.monotonic() + delay))
        else:
            finish(entry.job, _failure_from_info(entry.job, info, entry.attempt))

    try:
        while pending or running:
            now = time.monotonic()
            # Launch every ready cell into a free worker slot.
            for _ in range(len(pending)):
                if len(running) >= max_workers:
                    break
                job, attempt, not_before = pending[0]
                if not_before > now:
                    pending.rotate(-1)
                    continue
                pending.popleft()
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(job, child_conn, snapshot_dir, telemetry_dir),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                running.append(
                    _Running(
                        job=job,
                        attempt=attempt,
                        proc=proc,
                        conn=parent_conn,
                        deadline=(now + timeout) if timeout else None,
                    )
                )

            progressed = False
            for entry in list(running):
                outcome = None
                if entry.conn.poll():
                    try:
                        outcome = entry.conn.recv()
                    except EOFError:
                        outcome = None  # pipe closed without a payload
                    entry.proc.join()
                elif not entry.proc.is_alive():
                    entry.proc.join()
                elif entry.deadline is not None and time.monotonic() > entry.deadline:
                    _terminate(entry.proc)
                    progressed = True
                    settle(
                        entry,
                        {
                            "error_type": "JobTimeout",
                            "error_message": (
                                f"worker exceeded the {timeout:g}s wall-clock "
                                f"budget (attempt {entry.attempt}) and was killed"
                            ),
                            "traceback": "",
                            "cycles": 0,
                            "stats": None,
                        },
                    )
                    continue
                else:
                    continue  # still running within budget

                progressed = True
                entry.conn.close()
                if outcome is None:
                    settle(
                        entry,
                        {
                            "error_type": "WorkerCrashed",
                            "error_message": (
                                f"worker died with exit code "
                                f"{entry.proc.exitcode} without reporting "
                                f"a result (attempt {entry.attempt})"
                            ),
                            "traceback": "",
                            "cycles": 0,
                            "stats": None,
                        },
                    )
                elif outcome[0] == "ok":
                    running.remove(entry)
                    finish(entry.job, outcome[1])
                else:
                    settle(entry, outcome[1])

            if not progressed and (pending or running):
                time.sleep(_POLL_INTERVAL)
    except BaseException:
        # fail_fast, KeyboardInterrupt, ...: never leak worker processes.
        for entry in running:
            _terminate(entry.proc)
        raise
