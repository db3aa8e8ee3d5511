"""Content-addressed, on-disk result cache for simulation outcomes.

The cache turns every repeat experiment — the common case in
``benchmarks/`` and CI, where the same (workload, policy, config, seed)
cell is simulated over and over — into a file read.  Entries are keyed
by *content*, never by name:

* the full processor-configuration digest (:func:`repro.config.config_digest`),
* a digest of the workload profile's complete parameter set (every
  :class:`~repro.workloads.profile.PhaseSpec` field),
* the *effective* trace seed (``seed=None`` resolves to the profile's
  own fixed seed before keying, so explicit-default and default submits
  share an entry),
* the instruction/cycle/warmup budgets and IQ policy,
* and ``repro.__version__`` — any release invalidates every prior entry,
  because a simulator change can change every number.

Entries are single JSON files written atomically (temp file + rename),
so a crashed writer can never leave a half-entry behind; a truncated or
hand-corrupted entry reads as a *miss* (and is deleted), never as an
error.  The store is size-bounded: least-recently-*used* entries are
evicted first, with recency tracked through file mtimes driven by a
monotonic logical clock (deterministic even when many touches land in
the same millisecond, and persistent across restarts).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro._version import __version__
from repro.config import config_digest
from repro.sim.harness import CellResult, SweepJob
from repro.sim.results import SimResult, result_from_dict
from repro.telemetry.metrics import CounterSet
from repro.verify.snapshot import write_bytes_atomic
from repro.workloads.profile import WorkloadProfile
from repro.workloads.spec2017 import get_profile

#: Bumped whenever the entry envelope changes shape; mismatched entries
#: read as misses (the payload inside is version-checked separately).
CACHE_SCHEMA_VERSION = 1

#: Cache entry filename suffix.
ENTRY_SUFFIX = ".result.json"

#: Default size bound: plenty for thousands of entries (one entry is a
#: few KiB of JSON) while keeping a forgotten cache directory harmless.
DEFAULT_MAX_BYTES = 64 * 1024 * 1024


class UncacheableJob(ValueError):
    """The job cannot be content-addressed (ad-hoc trace, fault injection)."""


@functools.lru_cache(maxsize=64)
def _profile_digest(profile: WorkloadProfile) -> str:
    """Content hash of every workload-profile parameter (incl. phases);
    memoized, as profiles are frozen."""
    payload = json.dumps(
        dataclasses.asdict(profile), sort_keys=True, default=str
    ).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


def cache_key(job: SweepJob, version: str = __version__) -> str:
    """The content address of one simulation outcome.

    Two jobs share a key iff they are guaranteed to produce the same
    :class:`~repro.sim.results.SimResult` under the same package
    version.  Raises :class:`UncacheableJob` for jobs whose inputs are
    not content-addressable: pre-built traces (no profile to digest) and
    fault-injected runs (chaos is not a reusable outcome).
    """
    if job.fault is not None:
        raise UncacheableJob(
            f"job {job.key!r} injects a fault; chaos runs are never cached"
        )
    workload = job.workload
    if isinstance(workload, str):
        workload = get_profile(workload)
    if not isinstance(workload, WorkloadProfile):
        raise UncacheableJob(
            f"job {job.key!r} carries a pre-built "
            f"{type(job.workload).__name__}; only named workloads and "
            f"profiles are content-addressable"
        )
    effective_seed = job.seed if job.seed is not None else workload.seed
    payload = "|".join(
        str(part)
        for part in (
            "swque-result",
            version,
            config_digest(job.config),
            _profile_digest(workload),
            job.policy,
            job.num_instructions,
            effective_seed,
            job.max_cycles,
            job.warmup_instructions,
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


class ResultCache:
    """Content-addressed result store with LRU eviction and counters.

    Not a generic KV store: :meth:`put` accepts only successful
    :class:`~repro.sim.results.SimResult` outcomes (a failure is not a
    reusable artifact — it should be retried, not replayed to clients).
    """

    def __init__(
        self,
        root: Union[str, Path],
        max_bytes: int = DEFAULT_MAX_BYTES,
        max_entries: Optional[int] = None,
        counters: Optional[CounterSet] = None,
    ) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive (or None)")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        # Pre-seeded so stats()/metricsz export a stable key set.
        self.counters = counters if counters is not None else CounterSet(
            hits=0,
            misses=0,
            stores=0,
            evictions=0,
            corrupt_entries=0,
            version_invalidations=0,
            put_skipped=0,
            put_duplicate=0,
            evict_race=0,
        )
        # Logical LRU clock: strictly increasing mtimes make eviction
        # order deterministic.  Resumes past any existing entry so a
        # restarted server keeps the old recency order.
        self._clock = self._max_existing_mtime()

    # -- paths and recency ----------------------------------------------------------

    def _entry_path(self, key: str) -> Path:
        return self.root / f"{key}{ENTRY_SUFFIX}"

    def _entries(self) -> List[Path]:
        return sorted(self.root.glob(f"*{ENTRY_SUFFIX}"))

    def _max_existing_mtime(self) -> float:
        mtimes = []
        for stamp, _size, _path in self._stat_entries():
            mtimes.append(stamp)
        return max(mtimes, default=time.time())

    def _stat_entries(self) -> List[Tuple[float, int, Path]]:
        """``(mtime, size, path)`` for every live entry.  Entries that
        vanish between the glob and the ``stat`` (a concurrent reader's
        eviction, or another server process sharing the directory) are
        skipped and counted under ``evict_race`` — the LRU race is a
        bookkeeping event, never an exception."""
        stats = []
        for path in self._entries():
            try:
                st = path.stat()
            except OSError:
                self.counters.inc("evict_race")
                continue
            stats.append((st.st_mtime, st.st_size, path))
        return stats

    def _touch(self, path: Path) -> None:
        self._clock += 1.0
        try:
            os.utime(path, (self._clock, self._clock))
        except OSError:  # entry evicted underneath us mid-read
            self.counters.inc("evict_race")

    # -- the store -------------------------------------------------------------------

    def get(self, key: str) -> Optional[SimResult]:
        """The cached result under ``key``, or None (counted as a miss).

        Every failure mode is a miss, never an exception: a missing
        entry, unparsable JSON (torn write from a pre-atomic-rename
        crash, disk corruption), an envelope from another schema, or an
        entry recorded by a different package version.  Corrupt and
        stale entries are deleted on sight so they stop occupying the
        size budget.
        """
        path = self._entry_path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            self.counters.inc("misses")
            return None
        try:
            envelope = json.loads(raw)
            if not isinstance(envelope, dict):
                raise ValueError("entry is not an object")
            if envelope.get("schema") != CACHE_SCHEMA_VERSION:
                raise ValueError("unknown entry schema")
            version = envelope["version"]
            result = result_from_dict(envelope["result"])
        except (ValueError, KeyError, TypeError):
            self.counters.inc("misses")
            self.counters.inc("corrupt_entries")
            self._evict_path(path, reason="corrupt")
            return None
        if version != __version__:
            # A different simulator produced this number; it may be
            # arbitrarily wrong for the current code.  Reclaim the space.
            self.counters.inc("misses")
            self.counters.inc("version_invalidations")
            self._evict_path(path, reason="version")
            return None
        if not isinstance(result, SimResult):  # pragma: no cover - put() guards
            self.counters.inc("misses")
            return None
        self.counters.inc("hits")
        self._touch(path)
        return result

    def put(
        self,
        key: str,
        result: CellResult,
        job: Optional[SweepJob] = None,
        if_absent: bool = False,
    ) -> bool:
        """Store ``result`` under ``key``; returns True if it was written.

        Failed results are not stored (counted under ``put_skipped``).
        The write is atomic, and eviction runs afterwards so the new
        entry is part of the size accounting.  ``if_absent=True`` skips
        the write when the key already exists (counted under
        ``put_duplicate``) — fleet nodes use it so the first committed
        result for a content key wins and duplicates don't churn the
        LRU clock.
        """
        if not isinstance(result, SimResult):
            self.counters.inc("put_skipped")
            return False
        if if_absent and key in self:
            self.counters.inc("put_duplicate")
            return False
        envelope = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "version": __version__,
            "stored_at": time.time(),
            "job": (
                {
                    "workload": job.workload_name,
                    "policy": job.policy,
                    "config": job.config.name,
                    "num_instructions": job.num_instructions,
                    "seed": job.seed,
                    "max_cycles": job.max_cycles,
                    "warmup_instructions": job.warmup_instructions,
                }
                if job is not None
                else None
            ),
            "result": result.to_dict(),
        }
        path = self._entry_path(key)
        data = (json.dumps(envelope, sort_keys=True) + "\n").encode("utf-8")
        write_bytes_atomic(data, path)
        self._touch(path)
        self.counters.inc("stores")
        self._enforce_bounds()
        return True

    def __contains__(self, key: str) -> bool:
        return self._entry_path(key).exists()

    def __len__(self) -> int:
        return len(self._entries())

    # -- hygiene ---------------------------------------------------------------------

    def _evict_path(self, path: Path, reason: str) -> None:
        try:
            path.unlink()
        except OSError:  # already gone: concurrent eviction won the race
            self.counters.inc("evict_race")
            return
        if reason == "lru":
            self.counters.inc("evictions")

    def _enforce_bounds(self) -> None:
        """Evict least-recently-used entries beyond the size bounds.

        Sizes are captured in one stat pass up front — re-statting a
        victim after a concurrent process already evicted it was the
        PR-4 crash (``FileNotFoundError`` out of ``put``)."""
        entries = self._stat_entries()
        entries.sort()  # oldest recency first
        total = sum(size for _, size, _ in entries)
        while entries and (
            total > self.max_bytes
            or (self.max_entries is not None and len(entries) > self.max_entries)
        ):
            _, size, victim = entries.pop(0)
            total -= size
            self._evict_path(victim, reason="lru")

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self._entries():
            try:
                path.unlink()
            except OSError:
                self.counters.inc("evict_race")
                continue
            removed += 1
        return removed

    # -- introspection ---------------------------------------------------------------

    def stats(self) -> Dict[str, Union[int, float]]:
        """Counters plus current on-disk occupancy (for ``/metricsz``)."""
        entries = self._stat_entries()
        snapshot = self.counters.snapshot()
        snapshot.update(
            entries=len(entries),
            bytes=sum(size for _, size, _ in entries),
            max_bytes=self.max_bytes,
        )
        return snapshot


#: Circuit-breaker states, in escalation order.
BREAKER_STATES = ("closed", "open", "half_open")


class CircuitBreaker:
    """Classic three-state circuit breaker for a flaky backend.

    The caller runs each backend operation through :meth:`guard` (or
    brackets it with :meth:`allow` / :meth:`success` / :meth:`failure`):

    * **closed** (healthy): every call allowed; ``failure_threshold``
      consecutive failures trip it open.
    * **open** (failing): every call refused — the service degrades to
      compute-and-return, skipping the cache — until ``cooldown``
      seconds pass.
    * **half_open** (probing): after the cooldown, exactly one call is
      let through.  Its success closes the breaker; its failure re-opens
      it for another cooldown.

    Thread-safe; all transitions happen under one lock.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be positive")
        if cooldown <= 0:
            raise ValueError("cooldown must be positive")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._trips = 0
        self._opened_at = 0.0
        self._probing = False

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May the caller hit the backend right now?"""
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                if self._clock() - self._opened_at >= self.cooldown:
                    self._state = "half_open"
                    self._probing = True
                    return True
                return False
            # half_open: one outstanding probe at a time.
            if self._probing:
                return False
            self._probing = True
            return True

    def success(self) -> None:
        with self._lock:
            self._state = "closed"
            self._failures = 0
            self._probing = False

    def failure(self) -> None:
        with self._lock:
            self._failures += 1
            self._probing = False
            if self._state == "half_open" or (
                self._state == "closed"
                and self._failures >= self.failure_threshold
            ):
                self._state = "open"
                self._opened_at = self._clock()
                self._trips += 1

    def guard(self, operation: Callable[[], Any], counters) -> Any:
        """Run one backend operation through the breaker.

        An open breaker skips the operation (counted ``cache_bypass``);
        a raising one counts ``cache_errors`` and a failure.  Both
        return None, so the caller degrades to compute-and-return
        instead of erroring the request."""
        if not self.allow():
            counters.inc("cache_bypass")
            return None
        try:
            value = operation()
        except Exception:
            counters.inc("cache_errors")
            self.failure()
            return None
        self.success()
        return value

    def stats(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._failures,
                "trips": self._trips,
            }
