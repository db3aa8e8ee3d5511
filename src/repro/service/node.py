"""Worker node: pulls jobs from a :class:`DurableQueue` and runs them on
the supervised process pool.

A node is the fleet's unit of compute: ``python -m repro work`` runs
one against a shared queue directory, and ``python -m repro serve``
without ``--queue-dir`` runs one in-process over a private queue — a
fleet of one.  It owns no job state — every durable fact (intake,
lease, outcome) lives in the queue directory — so a node can be
``kill -9``'d at any instant and the fleet loses nothing:
its leases expire, another node reclaims at the next fencing epoch, and
its own late writes (a SIGSTOP zombie waking up) are fenced at commit.

One iteration of the node loop (:meth:`WorkerNode.step`):

1. **claim** — while the pool has idle workers (and the node is not
   draining), claim the best runnable job.  A content-key cache hit is
   committed immediately without touching a worker.  Cache access goes
   through a :class:`~repro.service.cache.CircuitBreaker`: a failing
   cache degrades to compute-and-return, it never stops the loop.
2. **renew** — leases past half their window are renewed; a renewal
   that discovers a higher epoch marks the lease lost but does *not*
   kill the running job.  Aborting it buys nothing: the outcome is
   already owned by the new epoch holder, and the stale result is
   cheaper to fence at commit than to guarantee a clean abort.
3. **supervise** — drain pool events.  A result commits (exactly-once,
   fenced); a lost worker (crash/hang/timeout) releases the lease with
   a crash charge so the fleet's poison-job budget keeps counting
   across nodes — or, when that loss exhausts the budget, quarantines
   the job at once with the loss that did it.
4. **heartbeat** — publish the node registry file (role, pool health,
   counters) that frontends aggregate into the ``/healthz`` fleet view.

Graceful drain (:meth:`WorkerNode.drain`, wired to SIGINT/SIGTERM by
``python -m repro work``): stop claiming, give in-flight jobs a bounded
window to finish and commit, then release the remaining leases
*without* a crash charge — a drained job requeues at the next epoch and
costs nothing against its quarantine budget.
"""

from __future__ import annotations

import socket
import threading
import time
import traceback
import uuid
from multiprocessing.connection import wait
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from repro.service.cache import (
    CircuitBreaker,
    ResultCache,
    UncacheableJob,
    cache_key,
)
from repro.service.queue import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_JOB_CRASHES,
    Claim,
    DurableQueue,
    FencedWrite,
    QueueJob,
    failure_result,
)
from repro.service.scheduler import job_from_dict
from repro.service.supervisor import ProcessWorkerPool
from repro.sim.results import SimResult
from repro.telemetry.metrics import CounterSet

#: Default supervised workers per node.
DEFAULT_NODE_WORKERS = 2

#: Longest idle sleep between loop iterations: bounds how late a lost
#: worker or an expiring lease is noticed.
POLL_INTERVAL = 0.05


class WorkerNode:
    """One worker node on a queue directory.

    ``queue_dir`` and ``cache_dir`` also accept an open
    :class:`DurableQueue`/:class:`ResultCache`, which the in-process
    node of ``serve`` shares with its frontend (it then also shares the
    frontend's ``breaker``).  ``job_runner`` replaces the simulation in
    the forked workers (tests).
    """

    def __init__(
        self,
        queue_dir: Union[str, Path, DurableQueue],
        cache_dir: Optional[Union[str, Path, ResultCache]] = None,
        workers: int = DEFAULT_NODE_WORKERS,
        node_id: Optional[str] = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        max_job_crashes: int = DEFAULT_MAX_JOB_CRASHES,
        job_timeout: Optional[float] = None,
        heartbeat_timeout: float = 10.0,
        retries: int = 1,
        fsync: bool = True,
        job_runner: Optional[Callable] = None,
        counters: Optional[CounterSet] = None,
    ) -> None:
        self.counters = counters if counters is not None else CounterSet(
            dispatched=0,
            committed=0,
            commit_duplicates=0,
            commit_fenced=0,
            cache_hits=0,
            cache_errors=0,
            cache_bypass=0,
            worker_losses=0,
            quarantined=0,
            drained_releases=0,
            bad_job_records=0,
        )
        if isinstance(queue_dir, DurableQueue):
            self.queue = queue_dir
        else:
            self.queue = DurableQueue(
                queue_dir,
                node_id=node_id or f"worker-{uuid.uuid4().hex[:8]}",
                lease_seconds=lease_seconds,
                max_job_crashes=max_job_crashes,
                fsync=fsync,
            )
        self.node_id = self.queue.node_id
        self.cache = (ResultCache(cache_dir)
                      if isinstance(cache_dir, (str, Path)) else cache_dir)
        self.breaker = CircuitBreaker()
        self.pool = ProcessWorkerPool(
            size=workers,
            job_runner=job_runner,
            retries=retries,
            heartbeat_timeout=heartbeat_timeout,
            job_timeout=job_timeout,
        )
        self._clock = self.queue._clock  # leases run on the queue's clock
        self._lock = threading.RLock()
        self._inflight: Dict[str, Tuple[QueueJob, Claim]] = {}
        self._draining = threading.Event()
        self._stop = threading.Event()
        # The idle loop sleeps on this socket and the workers' result
        # pipes at once, so an append or a finished job ends the sleep.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_w.setblocking(False)
        self._started = False
        self._last_heartbeat = 0.0
        self._last_sweep = 0.0

    # -- lifecycle --------------------------------------------------------------------

    def start(self) -> "WorkerNode":
        """Fork the workers.  The loop registers the node within a
        heartbeat interval and sweeps within a lease."""
        if not self._started:
            self.pool.start()
            self._started = True
            self._last_heartbeat = self._last_sweep = self._clock()
        return self

    def run_forever(self) -> None:
        """Drive :meth:`step` until :meth:`drain` or :meth:`stop`."""
        self.start()
        with self._wake_r, self._wake_w:
            self._loop()

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                if not self.step():
                    ready = wait(self.pool.connections() + [self._wake_r],
                                 POLL_INTERVAL)
                    if self._wake_r in ready:
                        self._wake_r.recv(4096)
            except Exception:  # pragma: no cover - defense in depth
                if self._draining.is_set():
                    return  # a concurrent drain stopped the pool under us
                # A dead loop wedges every job on this node; report and
                # count the error and try again on the next pass.
                traceback.print_exc()
                self.counters.inc("loop_errors")
                self._stop.wait(POLL_INTERVAL)

    def wake(self) -> None:
        """Cut the idle sleep short: a job was just appended."""
        try:
            self._wake_w.send(b"\0")
        except OSError:  # a wake-up is pending, or the loop has ended
            pass

    def stop(self) -> None:
        self._stop.set()
        self.wake()

    # -- one loop iteration -----------------------------------------------------------

    def step(self) -> bool:
        """One scheduling pass; True when it did useful work (claimed,
        committed, or handled a loss) — the caller sleeps otherwise."""
        did_work = False
        did_work |= self._claim_work()
        self._renew_leases()
        did_work |= self._supervise()
        self._heartbeat()
        self._maybe_sweep()
        return did_work

    def _claim_work(self) -> bool:
        claimed_any = False
        while (
            not self._draining.is_set()
            and not self._stop.is_set()
            and self.pool.idle_workers() > 0
        ):
            got = self.queue.claim_next()
            if got is None:
                break
            entry, claim = got
            claimed_any = True
            try:
                job = job_from_dict(dict(entry.job))
            except (ValueError, KeyError, TypeError) as exc:
                # A malformed intake record (foreign writer, version
                # skew).  Settle it as failed so it stops being claimed
                # at ever-higher epochs by every node forever.
                self.counters.inc("bad_job_records")
                self._commit_failure(entry, claim, "MalformedJob", str(exc))
                continue
            if self.cache is not None and entry.key:
                hit = self.breaker.guard(
                    lambda: self.cache.get(entry.key), self.counters)
                if hit is not None:
                    self.counters.inc("cache_hits")
                    self._commit(entry, claim, hit.to_dict(), "done",
                                 cached=True)
                    continue
            if not self.pool.dispatch(entry.id, job):
                # Raced our own idle count (a worker died under us);
                # requeue without a crash charge.
                self.queue.release(claim)
                break
            with self._lock:
                self._inflight[entry.id] = (entry, claim)
            self.counters.inc("dispatched")
        return claimed_any

    def _renew_leases(self) -> None:
        now = self._clock()
        with self._lock:
            claims = [claim for _, claim in self._inflight.values()]
        for claim in claims:
            if (not claim.lost
                    and claim.expires_at - now <= self.queue.lease_seconds / 2):
                self.queue.renew(claim)

    def _supervise(self) -> bool:
        events = self.pool.poll()
        for event in events:
            with self._lock:
                entry, claim = self._inflight.pop(event[1], (None, None))
            if claim is None:
                continue  # pragma: no cover - settled by a concurrent drain
            if event[0] == "result":
                _, _, job, result = event
                ok = isinstance(result, SimResult)
                if ok and self.cache is not None and entry.key:
                    # Cache before commit: whoever sees the result can
                    # resubmit it as a hit.  First put wins; a duplicate
                    # put is a no-op, so racing nodes never churn it.
                    self.breaker.guard(
                        lambda: self.cache.put(entry.key, result, job=job,
                                               if_absent=True),
                        self.counters)
                self._commit(entry, claim, result.to_dict(),
                             "done" if ok else "failed")
            else:  # ("lost", job_id, job, kind, message)
                _, _, _, kind, message = event
                self.counters.inc("worker_losses")
                # Crash-charged: the fleet's poison budget counts local
                # losses the same as dead-node reclaims.
                if claim.crashes + 1 > self.queue.max_job_crashes:
                    claim.crashes += 1
                    self.counters.inc("quarantined")
                    self._commit_failure(
                        entry, claim, "PoisonJob",
                        f"quarantined after crashing {claim.crashes} "
                        f"workers (last loss: {kind}: {message})",
                        state="quarantined")
                else:
                    self.queue.release(claim, crashed=True)
        return bool(events)

    def _commit(
        self,
        entry: QueueJob,
        claim: Claim,
        result_dict: dict,
        state: str,
        cached: bool = False,
    ) -> None:
        try:
            outcome = self.queue.commit(
                claim, result_dict, state=state, cached=cached
            )
        except FencedWrite:
            self.counters.inc("commit_fenced")
            return
        if outcome == "duplicate":
            self.counters.inc("commit_duplicates")
        else:
            self.counters.inc("committed")

    def _commit_failure(
        self, entry: QueueJob, claim: Claim, error_type: str, message: str,
        state: str = "failed",
    ) -> None:
        self._commit(entry, claim, failure_result(
            entry.job, error_type, message, attempts=claim.crashes), state)

    # -- heartbeat / hygiene ----------------------------------------------------------

    def _heartbeat(self, force: bool = False) -> None:
        now = self._clock()
        interval = min(self.queue.lease_seconds / 3.0, 1.0)
        if not force and now - self._last_heartbeat < interval:
            return
        self._last_heartbeat = now
        payload = {
            "workers": self.pool.alive_count(),
            "busy": self.pool.busy_count(),
            "draining": self._draining.is_set(),
            "pool": self.pool.stats(),
            "node_counters": self.counters.snapshot(),
        }
        self.queue.write_node("worker", payload)

    def _maybe_sweep(self) -> None:
        now = self._clock()
        if now - self._last_sweep < self.queue.lease_seconds:
            return
        self._last_sweep = now
        self.queue.sweep()

    # -- drain ------------------------------------------------------------------------

    def drain(self, timeout: float = 30.0) -> dict:
        """Graceful shutdown: finish what we can, requeue the rest.

        Stops claiming immediately, keeps renewing + supervising until
        in-flight jobs commit or ``timeout`` elapses, then releases the
        remaining leases *without* a crash charge (the interruption is
        ours, not the jobs') and stops the pool.  Returns a summary for
        the CLI's exit log.
        """
        self._draining.set()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if not self._inflight:
                    break
            self._renew_leases()
            self._supervise()
            self._heartbeat()
            time.sleep(POLL_INTERVAL)
        with self._lock:
            leftovers = dict(self._inflight)
            self._inflight.clear()
        for _, claim in leftovers.values():
            self.queue.release(claim)  # graceful: requeue, no crash charge
            self.counters.inc("drained_releases")
        self.pool.stop()
        self._heartbeat(force=True)
        self.stop()
        return {"requeued": len(leftovers)}

    # -- introspection ----------------------------------------------------------------

    def stats(self) -> dict:
        snapshot = self.counters.snapshot()
        snapshot.update(
            node=self.node_id,
            inflight=len(self._inflight),
            draining=self._draining.is_set(),
            pool=self.pool.stats(),
            worker_pids=self.pool.pids(),
            busy_pids=self.pool.busy_pids(),
        )
        return snapshot


def queue_key_for(job) -> Optional[str]:
    """The content-address for a job, or None when uncacheable — the
    shared helper frontends use when appending intake records."""
    try:
        return cache_key(job)
    except UncacheableJob:
        return None
