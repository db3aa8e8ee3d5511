"""Shared durable job queue: leases, fencing epochs, exactly-once commit.

The service's one job path.  Any number of stateless API frontends
append jobs, any number of worker nodes pull them, and the only shared
substrate is a directory — no broker, no database, no coordinator
process, in the spirit of coordination-free multi-writer queues
(arXiv:2511.09410).  A single-node ``serve`` is the same protocol with
a fleet of one: a frontend plus an in-process node over a private queue
directory (:meth:`DurableQueue.take_over`).  Every record is one
immutable file, published by one idiom that is atomic on POSIX: write a
temp file, then ``os.link`` it to its name (exclusive publish).  Only a
lease holder rewrites a file, its own claim, with ``os.replace``.

Layout of a queue directory::

    queue/
      jobs/<job-id>.json            # intake, one file per accepted job
      claims/<job-id>.e<epoch>      # lease files, one per (job, epoch)
      results/<job-id>.json         # committed result envelopes
      nodes/<node-id>.json          # node registry / heartbeat files

The four protocols:

* **Intake** — a frontend publishes each accepted job as its own
  self-describing file ``jobs/<id>.json``, and fsyncs the file and
  ``jobs/`` before the submission is acknowledged.  A crash mid-publish
  leaves only an unlinked temp file: nothing was acknowledged.  A job
  submitted with an idempotency token gets an id derived from the token
  (:func:`token_job_id`), so the exclusive link also decides token dedup
  across frontends: whoever loses the race finds the job already
  admitted.  A cache hit needs no worker and skips intake: it settles
  at once with one envelope that carries its intake fields
  (:meth:`DurableQueue.settle_unclaimed`).  The sweep deletes a settled
  job's intake file; its envelope keeps the intake fields.

* **Claims** — a worker claims job J at epoch E by publishing
  ``claims/J.e<E>`` via temp-file + ``os.link``: the link either
  creates the name (claim won, content already complete on disk) or
  fails with ``FileExistsError`` (claim lost).  Exactly one node can
  ever hold (J, E).  The claim carries a lease deadline; the holder
  renews it by atomically rewriting its own epoch file (``os.replace``
  onto a name nobody else ever writes).  The epoch lives in the
  *filename*, so even a torn claim body still fences correctly — an
  unparsable claim is treated as expired, counted, never trusted.
  Settled jobs need only that epoch, so scans read claim bodies for
  unsettled jobs alone.

* **Reclaim** — a lease that expires un-renewed marks its holder dead
  (``kill -9``, SIGSTOP zombie, network partition from the directory).
  Any node may then claim epoch E+1, inheriting the crash count plus
  one, so a poison job that keeps killing workers is quarantined
  *fleet-wide* after ``max_job_crashes`` losses.  A lease released
  gracefully (node drain, or a restarted node taking over its dead
  predecessor's leases) requeues without a crash charge.

* **Commit** — exactly-once result publication.  The committer first
  checks the **fencing epoch**: if any claim with a higher epoch exists,
  its lease was reclaimed while it was stalled and the write is refused
  (:class:`FencedWrite`, counted).  The result file itself is published
  with the same exclusive-link idiom, so even the unavoidable
  check-then-act race between a zombie and the new lease holder ends
  with exactly one result file — the loser observes ``FileExistsError``
  and records an idempotent duplicate, never a second commit.

Duplicate submissions converge by content address: job records carry
their :func:`repro.service.cache.cache_key`, a worker skips a job whose
key is already claimed elsewhere, and once the twin commits, the
follower is settled by copying the committed envelope (``deduped``)
instead of re-simulating.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import time
import threading
import uuid
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.telemetry.metrics import CounterSet

#: Bumped whenever intake/claim/result record shapes change.
QUEUE_SCHEMA_VERSION = 1

#: Default lease duration, seconds.  Renewed at a third of this cadence
#: by live holders; a holder silent for longer is presumed dead.
DEFAULT_LEASE_SECONDS = 10.0

#: Default fleet-wide crash budget per job before quarantine.
DEFAULT_MAX_JOB_CRASHES = 2

#: A node registry entry older than this is counted as dead.
DEFAULT_NODE_TTL = 15.0

#: Claim files of settled jobs are garbage-collected by :meth:`sweep`
#: after this many seconds — kept around first so a late fenced writer
#: is *rejected* (diagnosable) rather than merely deduplicated.
CLAIM_GC_SECONDS = 60.0

#: A settled job's envelope (its ``/status`` record and ``/result``) is
#: deleted by :meth:`sweep` this many seconds after it settled, once its
#: intake file is gone.  Bounds ``results/`` by throughput times this
#: window.
RESULT_GC_SECONDS = 600.0

#: Ownership locks (:meth:`DurableQueue.take_over`) held by this process.
#: A forked child closes its copies: the lock belongs to the open file,
#: so a worker outliving a ``kill -9``'d parent would otherwise keep the
#: queue locked.  Closing a copy does not release the parent's lock.
_OWNER_LOCKS: set = set()


def _close_inherited_locks() -> None:
    for fd in _OWNER_LOCKS:
        try:
            os.close(fd)
        except OSError:  # pragma: no cover - already closed
            pass
    _OWNER_LOCKS.clear()


os.register_at_fork(after_in_child=_close_inherited_locks)


def token_job_id(token: str) -> str:
    """The job id of a submission carrying idempotency ``token``: the
    same on every frontend, and a safe filename whatever the token."""
    return "t" + hashlib.sha256(token.encode("utf-8")).hexdigest()[:32]


def _fsync_dir(directory: Path) -> None:
    """Make the names just linked into ``directory`` durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def refuse_legacy(path: Path) -> None:
    """Refuse to start on ``path`` if it exists: a file or directory in
    the format of an earlier build, which this build does not read.  Its
    jobs would otherwise vanish unnoticed."""
    if path.exists():
        raise RuntimeError(
            f"{path} holds jobs in an earlier build's format, which this "
            f"build does not read; drain it once with a build at or before "
            f"commit 2f75f93 (version 1.1.0)"
        )


def failure_result(job, error_type: str, message: str,
                   attempts: int = 0) -> dict:
    """A :class:`~repro.sim.results.FailedResult` dict for a job dict
    (possibly malformed) that produced no simulation result."""
    from repro.sim.results import FailedResult

    job = job if isinstance(job, dict) else {}
    return FailedResult(
        workload=str(job.get("workload", "?")),
        policy=str(job.get("policy", "?")),
        config=str(job.get("config") or "medium"),
        error_type=error_type,
        error_message=message,
        attempts=attempts,
    ).to_dict()


def _stand_in(job_id: str, epoch: int, released: bool = True,
              torn: bool = False) -> dict:
    """Claim info for a body that was not (or could not be) read: it
    fences at ``epoch`` and counts as an expired lease."""
    return {"job_id": job_id, "epoch": epoch, "node": None, "crashes": 0,
            "expires_at": 0.0, "released": released, "torn": torn}


class FencedWrite(RuntimeError):
    """A commit was refused because the writer's lease was reclaimed.

    The holder of claim (J, E) attempted to publish a result, but a
    claim (J, E') with E' > E exists: some other node decided this
    writer was dead and took the job over.  The late write must be
    dropped — the new holder owns the outcome now.
    """


@dataclass
class QueueJob:
    """One intake record, as read from ``jobs/<id>.json``."""

    id: str
    job: dict
    priority: int = 0
    tenant: str = "default"
    token: Optional[str] = None
    key: Optional[str] = None          # content address (None: uncacheable)
    submitted_at: float = 0.0

    @classmethod
    def from_record(cls, job_id: str, record) -> "QueueJob":
        """Parse an intake record; ``ValueError``/``KeyError``/``TypeError``
        when it is not one."""
        if not isinstance(record, dict):
            raise ValueError("intake record is not an object")
        return cls(
            id=job_id,
            job=record["job"],
            priority=int(record.get("priority") or 0),
            tenant=str(record.get("tenant") or "default"),
            token=record.get("token"),
            key=record.get("key"),
            submitted_at=float(record.get("submitted_at") or 0.0),
        )


@dataclass
class Claim:
    """A lease this process holds on one job at one fencing epoch."""

    job_id: str
    epoch: int
    node: str
    crashes: int
    expires_at: float
    acquired_at: float
    #: Set when a renewal observed a higher epoch: the lease is gone and
    #: any later commit will be fenced.
    lost: bool = field(default=False)


class DurableQueue:
    """One process's handle on a shared queue directory.

    Every handle can both append (frontend role) and claim (worker
    role); the CLI wires one role per process.  All methods are
    thread-safe — the worker node drives :meth:`claim_next` and lease
    renewal from different threads, and a frontend's HTTP handlers call
    :meth:`append`/:meth:`lookup` concurrently.

    ``clock`` is injectable for deterministic lease-expiry tests; it
    must be a wall clock shared by every node on the directory
    (``time.time``), not a per-process monotonic clock.
    """

    def __init__(
        self,
        root: Union[str, Path],
        node_id: Optional[str] = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        max_job_crashes: int = DEFAULT_MAX_JOB_CRASHES,
        node_ttl: float = DEFAULT_NODE_TTL,
        fsync: bool = True,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be positive")
        if max_job_crashes < 0:
            raise ValueError("max_job_crashes must be >= 0")
        self.root = Path(root)
        refuse_legacy(self.root / "segments")
        self.node_id = node_id or f"node-{uuid.uuid4().hex[:8]}"
        self.lease_seconds = lease_seconds
        self.max_job_crashes = max_job_crashes
        self.node_ttl = node_ttl
        self.fsync = fsync
        self._clock = clock
        self.counters = CounterSet(
            appended=0,
            claims=0,
            reclaims=0,
            renewals=0,
            lease_lost=0,
            released=0,
            commits=0,
            duplicate_commits=0,
            fenced_rejections=0,
            dedup_settles=0,
            quarantined=0,
            singleflight_skips=0,
            torn_claims=0,
            torn_records=0,
        )
        self.jobs_dir = self.root / "jobs"
        self.claims_dir = self.root / "claims"
        self.results_dir = self.root / "results"
        self.nodes_dir = self.root / "nodes"
        for directory in (self.jobs_dir, self.claims_dir,
                          self.results_dir, self.nodes_dir):
            directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        # Notified on every local commit: a waiter on this handle wakes
        # at once instead of at its next poll.
        self._settled_cond = threading.Condition(self._lock)
        self._seq = 0
        self._nonce = uuid.uuid4().hex[:8]
        self._jobs: Dict[str, QueueJob] = {}      # id -> listed intake file
        self._torn_intake: set = set()
        self._result_meta: Dict[str, dict] = {}   # id -> envelope sans result
        self._result_keys: Dict[str, str] = {}    # content key -> settled id
        self._claims: Dict[str, dict] = {}        # id -> highest-epoch info
        self._torn_claim_files: set = set()
        self._pruned = dict.fromkeys(("done", "failed", "quarantined",
                                      "cached", "deduped"), 0)
        self._owner_lock: Optional[int] = None    # fd, see take_over

    # -- intake (frontend role) -------------------------------------------------------

    def _new_id(self, token: Optional[str]) -> str:
        if token is not None:
            return token_job_id(token)
        self._seq += 1
        return f"j{self._nonce}-{self._seq:06d}"

    def _intake_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    def append(
        self,
        job: dict,
        priority: int = 0,
        tenant: str = "default",
        token: Optional[str] = None,
        key: Optional[str] = None,
    ) -> QueueJob:
        """Durably enqueue one job; returns its intake record.

        The intake file and its name are on disk (fsync'd by default)
        before this returns — acknowledging a submission *is* the
        durability point.  A job with a ``token`` gets the token's id
        (:func:`token_job_id`); if any handle already admitted it, this
        writes nothing and returns the existing job.
        """
        with self._lock:
            entry = QueueJob(
                id=self._new_id(token),
                job=job,
                priority=int(priority),
                tenant=tenant,
                token=token,
                key=key,
                submitted_at=self._clock(),
            )
            if not self._publish_exclusive(self._intake_record(entry),
                                           self._intake_path(entry.id),
                                           sync_dir=True):
                return (self._jobs.get(entry.id)
                        or self._read_intake(entry.id) or entry)
            self._jobs[entry.id] = entry
            self.counters.inc("appended")
            return entry

    def admitted(self, job_id: str) -> bool:
        """Whether any handle admitted ``job_id``: this handle knows it,
        or its intake file or envelope exists.  Two ``stat``s at most;
        no directory is listed."""
        with self._lock:
            return (job_id in self._jobs or job_id in self._result_meta
                    or self._intake_path(job_id).exists()
                    or self._result_path(job_id).exists())

    # -- scanning ---------------------------------------------------------------------

    def scan(self) -> None:
        """Refresh this handle's view of intake, results and claims, in
        that order: a job settles before its intake file is collected,
        so one whose file vanished mid-scan is among the results."""
        with self._lock:
            self._scan_intake()
            self._scan_results()
            self._scan_claims()

    def _scan_intake(self) -> None:
        """Read the intake files this handle has not seen; forget those
        gone (settled and collected).  A corrupt one is counted once."""
        try:
            listed = {
                entry.name[: -len(".json")]
                for entry in os.scandir(self.jobs_dir)
                if entry.name.endswith(".json")
            }
        except OSError:
            return
        for job_id in self._jobs.keys() - listed:
            del self._jobs[job_id]
        self._torn_intake &= listed
        for job_id in listed - self._jobs.keys() - self._torn_intake:
            self._read_intake(job_id)

    def _read_intake(self, job_id: str) -> Optional[QueueJob]:
        try:
            raw = self._intake_path(job_id).read_bytes()
        except OSError:
            return None  # collected since it was listed
        try:
            entry = QueueJob.from_record(job_id, json.loads(raw))
        except (ValueError, KeyError, TypeError):
            self._torn_intake.add(job_id)
            self.counters.inc("torn_records")
            return None
        self._jobs[job_id] = entry
        return entry

    def _scan_results(self) -> None:
        try:
            listed = {
                entry.name[: -len(".json")]
                for entry in os.scandir(self.results_dir)
                if entry.name.endswith(".json")
            }
        except OSError:
            return
        for job_id in self._result_meta.keys() - listed:
            self._forget(job_id)  # collected by another handle's sweep
        for job_id in listed - self._result_meta.keys():
            envelope = self.read_result(job_id)
            if envelope is None:
                continue  # collected since it was listed
            envelope.pop("result", None)
            if envelope.get("corrupt"):
                self.counters.inc("torn_records")
            self._remember_settled(job_id, envelope)

    def _remember_settled(self, job_id: str, meta: dict) -> None:
        self._result_meta[job_id] = meta
        if meta.get("key"):
            self._result_keys.setdefault(meta["key"], job_id)

    def _forget(self, job_id: str) -> None:
        """Drop a settled job whose envelope was collected; its outcome
        stays counted in :meth:`metrics`."""
        meta = self._result_meta.pop(job_id)
        if self._result_keys.get(meta.get("key")) == job_id:
            del self._result_keys[meta["key"]]
        self._count_outcome(self._pruned, meta)

    def _claim_files(self) -> List[Tuple[str, int, os.DirEntry]]:
        """(job id, epoch, entry) of every published claim file."""
        try:
            entries = list(os.scandir(self.claims_dir))
        except OSError:
            return []
        found = []
        for entry in entries:
            stem, sep, epoch_text = entry.name.rpartition(".e")
            if (sep and epoch_text.isdigit()
                    and not entry.name.startswith(".tmp-")):
                found.append((stem, int(epoch_text), entry))
        return found

    def _scan_claims(self) -> None:
        highest: Dict[str, Tuple[int, str]] = {}
        for job_id, epoch, entry in self._claim_files():
            if epoch > highest.get(job_id, (-1, ""))[0]:
                highest[job_id] = (epoch, entry.name)
        self._claims = {
            # A settled job needs only the epoch (from the filename), to
            # fence a late writer: skip its body read.
            job_id: (_stand_in(job_id, epoch) if job_id in self._result_meta
                     else self._parse_claim(job_id, epoch, name))
            for job_id, (epoch, name) in highest.items()
        }

    def _parse_claim(self, job_id: str, epoch: int, name: str) -> dict:
        """A claim file's content — or, when torn, a conservative stand-in.

        The epoch came from the *filename* (published atomically by
        ``os.link``), so fencing stays correct even when the body is
        unreadable; the stand-in merely counts as already expired."""
        path = self.claims_dir / name
        try:
            payload = json.loads(path.read_bytes())
            if not isinstance(payload, dict):
                raise ValueError("claim is not an object")
            return {
                "job_id": job_id,
                "epoch": epoch,
                "node": payload.get("node"),
                "crashes": int(payload.get("crashes") or 0),
                "expires_at": float(payload.get("expires_at") or 0.0),
                "released": bool(payload.get("released")),
                "torn": False,
            }
        except OSError:
            # Swept between scandir and read: treat as absent-but-fencing.
            return _stand_in(job_id, epoch)
        except (ValueError, TypeError):
            if name not in self._torn_claim_files:
                self._torn_claim_files.add(name)
                self.counters.inc("torn_claims")
                warnings.warn(
                    f"queue claim {name} is torn/corrupt; treating it as an "
                    f"expired lease at epoch {epoch} (the epoch in the "
                    f"filename still fences)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return _stand_in(job_id, epoch, released=False, torn=True)

    # -- claiming (worker role) -------------------------------------------------------

    def _claim_path(self, job_id: str, epoch: int) -> Path:
        return self.claims_dir / f"{job_id}.e{epoch}"

    def _write_temp(self, payload: dict, directory: Path,
                    fsync: bool = True) -> Path:
        """``payload`` as a complete (and by default fsync'd) temp file in
        ``directory``, ready to be linked or renamed into place."""
        tmp = directory / f".tmp-{self.node_id}-{uuid.uuid4().hex[:8]}"
        with open(tmp, "wb") as handle:
            handle.write((json.dumps(payload) + "\n").encode("utf-8"))
            handle.flush()
            if fsync and self.fsync:
                os.fsync(handle.fileno())
        return tmp

    def _publish_exclusive(self, payload: dict, target: Path,
                           fsync: bool = True, sync_dir: bool = False) -> bool:
        """Write ``payload`` to a temp file, then ``os.link`` it to
        ``target``: the name appears atomically with complete content,
        and only for exactly one caller.  ``sync_dir`` also fsyncs the
        directory, so the name itself survives power loss — the rule for
        a name that acknowledges a job or a computed outcome."""
        tmp = self._write_temp(payload, target.parent, fsync)
        try:
            os.link(tmp, target)
        except FileExistsError:
            return False
        finally:
            try:
                tmp.unlink()
            except OSError:
                pass
        if sync_dir and self.fsync:
            _fsync_dir(target.parent)
        return True

    def _acquire(self, job_id: str, epoch: int, crashes: int) -> Optional[Claim]:
        now = self._clock()
        claim = Claim(
            job_id=job_id,
            epoch=epoch,
            node=self.node_id,
            crashes=crashes,
            expires_at=now + self.lease_seconds,
            acquired_at=now,
        )
        won = self._publish_exclusive(
            {
                "schema": QUEUE_SCHEMA_VERSION,
                "job_id": job_id,
                "epoch": epoch,
                "node": self.node_id,
                "crashes": crashes,
                "acquired_at": now,
                "expires_at": claim.expires_at,
                "released": False,
            },
            self._claim_path(job_id, epoch),
        )
        return claim if won else None

    def claim_next(self) -> Optional[Tuple[QueueJob, Claim]]:
        """Claim the best runnable job, or None when nothing is claimable.

        Selection order: priority descending, then submission order.
        Along the way this performs the fleet housekeeping that falls
        out of claiming: expired leases are reclaimed at the next epoch
        (crash-charged unless released gracefully), jobs over the fleet
        crash budget are quarantined, and duplicate submissions of an
        already-committed content key are settled by copy instead of
        re-execution.
        """
        with self._lock:
            self.scan()
            now = self._clock()
            live_keys = set()
            candidates = []
            for entry in self._jobs.values():
                if entry.id in self._result_meta:
                    continue
                claim_info = self._claims.get(entry.id)
                if claim_info is not None and claim_info["expires_at"] > now:
                    if entry.key:
                        live_keys.add(entry.key)
                    continue
                candidates.append((entry, claim_info))
            candidates.sort(
                key=lambda pair: (-pair[0].priority,
                                  pair[0].submitted_at, pair[0].id)
            )
            for entry, claim_info in candidates:
                if entry.key:
                    twin = self._result_keys.get(entry.key)
                    if twin is not None:
                        self._settle_from_twin(entry, twin)
                        continue
                    if entry.key in live_keys:
                        self.counters.inc("singleflight_skips")
                        continue
                if claim_info is None:
                    epoch, crashes = 1, 0
                else:
                    epoch = claim_info["epoch"] + 1
                    crashes = claim_info["crashes"] + (
                        0 if claim_info["released"] else 1
                    )
                if crashes > self.max_job_crashes:
                    self._quarantine(entry, epoch, crashes)
                    continue
                claim = self._acquire(entry.id, epoch, crashes)
                if claim is None:
                    continue  # lost the race to another node
                self.counters.inc("claims")
                if claim_info is not None and not claim_info["released"]:
                    self.counters.inc("reclaims")
                if entry.key:
                    live_keys.add(entry.key)
                return entry, claim
            return None

    def _settle_from_twin(self, entry: QueueJob, twin_id: str) -> None:
        """Cross-node single-flight convergence: ``entry`` shares a
        content key with already-committed ``twin_id``, so it settles by
        copying the twin's envelope instead of re-simulating."""
        twin = self.read_result(twin_id)
        if twin is None:  # pragma: no cover - settled set said it exists
            return
        if self._publish_result(
            entry.id,
            twin.get("result"),
            state=str(twin.get("state") or "done"),
            node=self.node_id,
            epoch=0,
            intake=self._intake(entry),
            deduped=True,
            cached=bool(twin.get("cached")),
        ):
            self.counters.inc("dedup_settles")
        else:
            self.counters.inc("duplicate_commits")

    def renew(self, claim: Claim) -> bool:
        """Refresh a held lease; False when the lease has been reclaimed.

        Renewal rewrites only this claim's own epoch-named file, so it
        can never clobber a successor's claim.  Discovery of a higher
        epoch marks the claim lost — the job keeps running (a safe
        waste: its commit will be fenced), matching the guarantee that
        matters: the *outcome* is decided by the current lease holder.
        """
        with self._lock:
            if claim.lost:
                return False
            self._scan_claims()
            current = self._claims.get(claim.job_id)
            if current is not None and current["epoch"] > claim.epoch:
                claim.lost = True
                self.counters.inc("lease_lost")
                return False
            now = self._clock()
            claim.expires_at = now + self.lease_seconds
            self._rewrite_claim(claim, expires_at=claim.expires_at,
                                released=False)
            self.counters.inc("renewals")
            return True

    def release(self, claim: Claim, crashed: bool = False) -> None:
        """Give a held lease back so the job becomes claimable again.

        ``crashed=True`` charges the job's fleet crash budget (the local
        worker died under it); a graceful release — node drain — does
        not, because the interruption was the node's fault, not the
        job's.
        """
        with self._lock:
            if claim.lost:
                return
            self._rewrite_claim(claim, expires_at=self._clock() - 1.0,
                                released=not crashed)
            self.counters.inc("released")

    def _rewrite_claim(self, claim: Claim, expires_at: float,
                       released: bool) -> None:
        payload = {
            "schema": QUEUE_SCHEMA_VERSION,
            "job_id": claim.job_id,
            "epoch": claim.epoch,
            "node": claim.node,
            "crashes": claim.crashes,
            "acquired_at": claim.acquired_at,
            "expires_at": expires_at,
            "released": released,
        }
        os.replace(self._write_temp(payload, self.claims_dir),
                   self._claim_path(claim.job_id, claim.epoch))

    # -- commitment -------------------------------------------------------------------

    def _result_path(self, job_id: str) -> Path:
        return self.results_dir / f"{job_id}.json"

    def commit(
        self,
        claim: Claim,
        result: dict,
        state: str = "done",
        cached: bool = False,
    ) -> str:
        """Publish the result for a claimed job — exactly once, fenced.

        Returns ``"committed"`` or ``"duplicate"`` (the result already
        exists: an idempotent no-op).  Raises :class:`FencedWrite` when
        a higher fencing epoch exists — this writer was presumed dead
        and superseded; its late result must not land.
        """
        with self._lock:
            self._scan_claims()
            current = self._claims.get(claim.job_id)
            if claim.lost or (
                current is not None and current["epoch"] > claim.epoch
            ):
                claim.lost = True
                self.counters.inc("fenced_rejections")
                raise FencedWrite(
                    f"commit of {claim.job_id} at epoch {claim.epoch} "
                    f"rejected: lease reclaimed at epoch "
                    f"{current['epoch'] if current else '?'} "
                    f"(this node was presumed dead)"
                )
            entry = self._jobs.get(claim.job_id)
            if self._publish_result(
                claim.job_id,
                result,
                state=state,
                node=claim.node,
                epoch=claim.epoch,
                intake=self._intake(entry) if entry is not None else {},
                cached=cached,
                crashes=claim.crashes,
            ):
                return "committed"
            self.counters.inc("duplicate_commits")
            return "duplicate"

    def settle_unclaimed(
        self,
        job: dict,
        result: dict,
        priority: int = 0,
        tenant: str = "default",
        token: Optional[str] = None,
        key: Optional[str] = None,
        cached: bool = False,
    ) -> str:
        """Settle a cache hit, which needs no worker, with one envelope
        carrying its intake fields and no intake file (nothing can claim
        it, so no fence is needed).
        Returns the job id: the token's (:func:`token_job_id`) when
        ``token`` is given, and if that job already settled this writes
        nothing.  A cache hit's envelope is not fsync'd: its result is a
        copy of a durable one and it has no intake file, so power loss
        costs at most a resubmission, while an fsync would be most of a
        cache hit's latency."""
        with self._lock:
            job_id = self._new_id(token)
            self._publish_result(
                job_id, result, state="done", node=self.node_id, epoch=0,
                intake={"job": job, "priority": int(priority),
                        "tenant": tenant, "token": token, "key": key,
                        "submitted_at": self._clock()},
                cached=cached, fsync=not cached,
            )
            return job_id

    @staticmethod
    def _intake(entry: QueueJob) -> dict:
        return {"job": entry.job, "priority": entry.priority,
                "tenant": entry.tenant, "token": entry.token,
                "key": entry.key, "submitted_at": entry.submitted_at}

    @classmethod
    def _intake_record(cls, entry: QueueJob) -> dict:
        return {"schema": QUEUE_SCHEMA_VERSION, "id": entry.id,
                **cls._intake(entry)}

    def _publish_result(
        self,
        job_id: str,
        result: dict,
        state: str,
        node: Optional[str],
        epoch: int,
        intake: dict,
        deduped: bool = False,
        cached: bool = False,
        crashes: int = 0,
        fsync: bool = True,
    ) -> bool:
        """Publish ``job_id``'s envelope; False when it already exists."""
        meta = {
            "schema": QUEUE_SCHEMA_VERSION,
            "job_id": job_id,
            "state": state,
            "node": node,
            "epoch": epoch,
            "key": None,
            "deduped": deduped,
            "cached": cached,
            "crashes": crashes,
            "committed_at": self._clock(),
        }
        meta.update(intake)
        if not self._publish_exclusive(dict(meta, result=result),
                                       self._result_path(job_id),
                                       fsync=fsync, sync_dir=fsync):
            return False
        self.counters.inc("commits")
        self._remember_settled(job_id, meta)
        self._settled_cond.notify_all()
        return True

    def _quarantine(self, entry: QueueJob, epoch: int, crashes: int) -> None:
        """Settle a poison job fleet-wide: claim it (so concurrent
        quarantiners are arbitrated by the same exclusive-link race),
        then commit a PoisonJob failure."""
        claim = self._acquire(entry.id, epoch, crashes)
        if claim is None:
            return  # a concurrent node is quarantining (or retrying) it
        result = failure_result(
            entry.job, "PoisonJob",
            f"quarantined fleet-wide after {crashes} lease losses "
            f"(crashed or dead nodes); last epoch {epoch}",
            attempts=crashes,
        )
        try:
            self.commit(claim, result, state="quarantined")
            self.counters.inc("quarantined")
        except FencedWrite:  # pragma: no cover - we hold the top epoch
            pass

    # -- lookups (frontend role) ------------------------------------------------------

    def read_result(self, job_id: str) -> Optional[dict]:
        """The committed result envelope for ``job_id``, or None.

        Envelopes are published with complete content (link-after-write),
        so a parse failure means outside corruption: the job settled, but
        its outcome is lost.  Such an envelope reads as a ``failed`` one
        flagged ``corrupt``, with a ``CorruptEnvelope`` result, so the
        job stays settled and is never claimed again.
        """
        path = self._result_path(job_id)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            envelope = json.loads(raw)
            if isinstance(envelope, dict):
                return envelope
        except (ValueError, TypeError):
            pass
        entry = self._jobs.get(job_id)
        return {
            "job_id": job_id,
            "state": "failed",
            "corrupt": True,
            "committed_at": self._clock(),
            "result": failure_result(
                entry.job if entry is not None else None, "CorruptEnvelope",
                f"result envelope {path.name} is unreadable (corrupted "
                f"outside the queue); the job's outcome is lost"),
        }

    def lookup(self, job_id: str) -> Optional[dict]:
        """The status record for ``job_id`` (what ``/status`` serves), or
        None if unknown.

        States: ``queued`` (intaken, no live lease), ``running`` (live
        lease), or the terminal state recorded in the committed
        envelope.  Envelopes are immutable, so a settled id is answered
        from memory without touching the directory.
        """
        with self._lock:
            meta = self._result_meta.get(job_id)
            if meta is None:
                self.scan()
                meta = self._result_meta.get(job_id)
            entry = self._jobs.get(job_id)
            if meta is None and entry is None:
                return None
            info = dict(meta or {})
            if entry is not None:
                info.update(self._intake(entry))
            if meta is None:
                claim = self._claims.get(job_id) or {}
                running = claim.get("expires_at", 0.0) > self._clock()
                info.update(state="running" if running else "queued",
                            node=claim.get("node") if running else None,
                            epoch=claim.get("epoch", 0),
                            crashes=claim.get("crashes", 0))
            return {
                "id": job_id,
                "state": info["state"],
                "cached": bool(info.get("cached")),
                "deduped": bool(info.get("deduped")),
                "tenant": info.get("tenant", "default"),
                "priority": info.get("priority", 0),
                "node": info.get("node"),
                "epoch": info.get("epoch", 0),
                "crashes": info.get("crashes", 0),
                "key": info.get("key"),
                "job": info.get("job"),
                "submitted_at": info.get("submitted_at"),
                "finished_at": info.get("committed_at"),
            }

    def wait_settled(
        self, job_id: str, timeout: Optional[float] = None, poll: float = 0.05
    ) -> Optional[dict]:
        """Block until ``job_id`` commits; returns the envelope or None
        on timeout.  A commit through this handle wakes the waiter at
        once; a commit by another process is seen at the next ``poll``,
        because the only shared medium is a directory — frontends cap
        the wait server-side."""
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while True:
            envelope = self.read_result(job_id)
            if envelope is not None:
                return envelope
            wait = poll
            if deadline is not None:
                wait = min(poll, deadline - time.monotonic())
                if wait <= 0:
                    return None
            with self._lock:
                if job_id not in self._result_meta:
                    self._settled_cond.wait(wait)

    # -- node registry ----------------------------------------------------------------

    def write_node(self, role: str, payload: Optional[dict] = None) -> None:
        """Publish this node's heartbeat/registry file (atomic).

        Not fsync'd: it is soft state, rewritten every heartbeat, and
        what it records (a live pid) cannot outlive a power loss anyway.
        """
        document = {
            "schema": QUEUE_SCHEMA_VERSION,
            "node": self.node_id,
            "role": role,
            "pid": os.getpid(),
            "updated_at": self._clock(),
            "counters": self.counters.snapshot(),
        }
        if payload:
            document.update(payload)
        os.replace(self._write_temp(document, self.nodes_dir, fsync=False),
                   self.nodes_dir / f"{self.node_id}.json")

    def remove_node(self) -> None:
        """Leave the queue: delete this node's registry file and give up
        the ownership :meth:`take_over` took."""
        try:
            (self.nodes_dir / f"{self.node_id}.json").unlink()
        except OSError:
            pass
        if self._owner_lock in _OWNER_LOCKS:  # not a forked child's copy
            _OWNER_LOCKS.discard(self._owner_lock)
            os.close(self._owner_lock)  # drops the flock
        self._owner_lock = None

    def take_over(self) -> int:
        """Become the one live node under this handle's id after its
        predecessor stopped or died (``kill -9``); returns how many
        unsettled jobs it left.

        Ownership is an exclusive ``flock`` on ``nodes/<id>.lock``, held
        until :meth:`remove_node`; the kernel drops it when the owner
        dies.  While another live handle holds it this refuses
        (``RuntimeError``).  Otherwise it releases the predecessor's
        leases with no crash charge, so its jobs rerun now, not after a
        lease timeout.
        """
        lock_path = self.nodes_dir / f"{self.node_id}.lock"
        fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            raise RuntimeError(
                f"queue {self.root} is in use by a live node "
                f"{self.node_id!r} (it holds {lock_path}); stop that "
                f"service first"
            ) from None
        self._owner_lock = fd
        _OWNER_LOCKS.add(fd)
        try:
            self.write_node("worker", {"workers": 0})
            with self._lock:
                self.scan()
                for job_id, info in self._claims.items():
                    if (job_id not in self._result_meta
                            and info["node"] == self.node_id
                            and not info["released"]):
                        self.release(Claim(job_id, info["epoch"],
                                           self.node_id, info["crashes"],
                                           0.0, 0.0))
                return sum(1 for job_id in self._jobs
                           if job_id not in self._result_meta)
        except BaseException:
            self.remove_node()
            raise

    def fleet(self) -> dict:
        """The fleet view for ``/healthz``/``/metricsz``: who is alive,
        and the cross-node sums of the robustness counters."""
        now = self._clock()
        nodes: List[dict] = []
        sums: Dict[str, int] = {}
        try:
            entries = list(os.scandir(self.nodes_dir))
        except OSError:
            entries = []
        for entry in entries:
            if not entry.name.endswith(".json"):
                continue
            try:
                payload = json.loads(Path(entry.path).read_bytes())
                if not isinstance(payload, dict):
                    raise ValueError
            except (OSError, ValueError, TypeError):
                continue
            age = now - float(payload.get("updated_at") or 0.0)
            alive = age <= self.node_ttl
            nodes.append({
                "node": payload.get("node"),
                "role": payload.get("role"),
                "pid": payload.get("pid"),
                "alive": alive,
                "age_s": round(age, 3),
                "workers": payload.get("workers"),
                "busy": payload.get("busy"),
                "draining": payload.get("draining"),
            })
            for counter in ("claims", "fenced_rejections", "reclaims",
                            "commits", "duplicate_commits", "quarantined",
                            "dedup_settles", "lease_lost", "released"):
                counters = payload.get("counters") or {}
                sums[counter] = sums.get(counter, 0) + int(
                    counters.get(counter) or 0
                )
        nodes.sort(key=lambda n: str(n["node"]))
        return {
            "nodes": nodes,
            "nodes_alive": sum(1 for n in nodes if n["alive"]),
            "workers_alive": sum(
                1 for n in nodes if n["alive"] and n["role"] == "worker"
            ),
            "frontends_alive": sum(
                1 for n in nodes if n["alive"] and n["role"] == "frontend"
            ),
            "totals": sums,
        }

    # -- hygiene ----------------------------------------------------------------------

    def sweep(self, claim_gc_seconds: float = CLAIM_GC_SECONDS) -> dict:
        """Dead-node housekeeping: quarantine jobs over the fleet crash
        budget even when no node wants to claim them (so waiting clients
        see a terminal state, not an eternal requeue loop), delete the
        intake files of settled jobs (their envelopes carry the intake
        fields), GC claim files of long-settled jobs, and delete
        envelopes older than :data:`RESULT_GC_SECONDS`.  Safe to run
        from any node, any number of times."""
        with self._lock:
            self.scan()
            now = self._clock()
            quarantined = 0
            for entry in list(self._jobs.values()):
                if entry.id in self._result_meta:
                    continue
                claim_info = self._claims.get(entry.id)
                if claim_info is None or claim_info["expires_at"] > now:
                    continue
                crashes = claim_info["crashes"] + (
                    0 if claim_info["released"] else 1
                )
                if crashes > self.max_job_crashes:
                    self._quarantine(entry, claim_info["epoch"] + 1, crashes)
                    quarantined += 1
            for job_id in [job_id for job_id in self._jobs
                           if job_id in self._result_meta]:
                try:
                    self._intake_path(job_id).unlink(missing_ok=True)
                except OSError:
                    continue
                del self._jobs[job_id]
            removed = 0
            for stem, _, file_entry in self._claim_files():
                if stem not in self._result_meta:
                    continue
                # Age by the commit stamp (the queue's own clock), not
                # file mtime — clocks must come from one domain.
                meta = self._result_meta.get(stem) or {}
                committed_at = float(meta.get("committed_at") or 0.0)
                if now - committed_at < claim_gc_seconds:
                    continue
                try:
                    os.unlink(file_entry.path)
                    removed += 1
                except OSError:
                    continue
            return {"quarantined": quarantined, "claims_removed": removed,
                    "results_removed": self._gc_results(now)}

    def _gc_results(self, now: float) -> int:
        """Delete envelopes settled over :data:`RESULT_GC_SECONDS` ago
        whose intake file is gone (the sweep just deleted the settled
        ones), so the job can never look unsettled; returns how many.
        Their outcomes stay counted in :meth:`metrics`."""
        stale = [
            job_id for job_id, meta in self._result_meta.items()
            if job_id not in self._jobs
            and now - float(meta.get("committed_at") or 0.0)
            >= RESULT_GC_SECONDS
        ]
        for job_id in stale:
            try:
                self._result_path(job_id).unlink()
            except FileNotFoundError:
                pass  # another node collected it first
            self._forget(job_id)
        return len(stale)

    @staticmethod
    def _count_outcome(outcomes: dict, meta: dict) -> None:
        outcomes[meta["state"]] = outcomes.get(meta["state"], 0) + 1
        outcomes["cached"] += bool(meta.get("cached"))
        outcomes["deduped"] += bool(meta.get("deduped"))

    # -- introspection ----------------------------------------------------------------

    def pending_count(self) -> int:
        with self._lock:
            self.scan()
            return sum(
                1 for entry in self._jobs.values()
                if entry.id not in self._result_meta
                and not self._is_running(entry.id)
            )

    def _is_running(self, job_id: str) -> bool:
        claim_info = self._claims.get(job_id)
        return (
            claim_info is not None
            and claim_info["expires_at"] > self._clock()
        )

    def metrics(self) -> dict:
        """Queue occupancy + robustness counters (for ``/metricsz``)."""
        with self._lock:
            self.scan()
            now = self._clock()
            pending = running = 0
            oldest_unclaimed: Optional[float] = None
            for entry in self._jobs.values():
                if entry.id in self._result_meta:
                    continue
                if self._is_running(entry.id):
                    running += 1
                    continue
                pending += 1
                age = now - entry.submitted_at
                if oldest_unclaimed is None or age > oldest_unclaimed:
                    oldest_unclaimed = age
            # Settle totals from the durable envelopes, not counters: exact
            # across restarts and nodes for envelopes still on disk, plus
            # the ones this handle has garbage-collected.
            outcomes = dict(self._pruned)
            for meta in self._result_meta.values():
                self._count_outcome(outcomes, meta)
            snapshot = self.counters.snapshot()
            snapshot.update(
                node=self.node_id,
                pending=pending,
                running=running,
                settled=len(self._result_meta),
                outcomes=outcomes,
                known_jobs=len(self._jobs),
                oldest_unclaimed_age_s=(
                    round(oldest_unclaimed, 3)
                    if oldest_unclaimed is not None else None
                ),
                lease_seconds=self.lease_seconds,
                max_job_crashes=self.max_job_crashes,
            )
            return snapshot
