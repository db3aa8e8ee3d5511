"""Supervised multi-process worker pool for a worker node.

A pool of long-lived **forked worker processes** under a supervisor
that treats worker death as an event, not a disaster — how Lee's
hard-real-time multiwriter queues are designed so no single stuck
participant can wedge the structure (arXiv:0709.4558).  One hung
simulation cannot wedge the node, and an interpreter-killing bug
(segfault, OOM) costs one worker, not the service.

Each worker:

* runs dispatched jobs through the harness retry loop
  (:func:`repro.sim.harness.run_job_with_retries`), so transient
  failures retry with backoff *inside* the worker;
* emits a **heartbeat** — a shared ``multiprocessing.Value`` double it
  refreshes from a daemon thread every :data:`HEARTBEAT_INTERVAL` seconds.
  A worker that is SIGSTOPped, deadlocked, or spinning in C code stops
  beating and is declared hung.  (The beat is a shared double, not a
  pipe message, so it can never interleave with a result send.)

The supervisor (:meth:`ProcessWorkerPool.poll`, driven by the node's
loop) detects three failure shapes and turns each into a structured
event instead of an exception:

* ``WorkerCrashed`` — the process died (SIGKILL, segfault, OOM) without
  reporting a result;
* ``WorkerHung`` — the heartbeat went stale past ``heartbeat_timeout``;
  the worker is SIGKILLed;
* ``JobTimeout`` — the in-flight job exceeded ``job_timeout`` seconds;
  the worker is SIGKILLed.

In every case the dead worker is **restarted** immediately (the pool
never shrinks) and the node decides the in-flight job's fate: release
its lease with a crash charge, or — after ``max_job_crashes`` worker
losses — quarantine it as a poison job rather than crash-looping the
fleet forever.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.sim.harness import (
    SweepJob,
    TRANSIENT_ERRORS,
    _run_job,
    run_job_with_retries,
)
from repro.telemetry.metrics import CounterSet

#: Seconds between worker heartbeat refreshes.
HEARTBEAT_INTERVAL = 0.25

#: Harness backoff between a worker's in-process retries, seconds.
RETRY_BACKOFF = 0.5

#: Default staleness bound before a silent worker is declared hung.
#: Generous: a healthy worker beats ~40x within it even under full
#: simulation load (the beat thread only needs one GIL slice).
DEFAULT_HEARTBEAT_TIMEOUT = 10.0

#: Worker-loss kinds the pool reports (``error_type`` on the failure).
WORKER_LOSS_KINDS = ("WorkerCrashed", "WorkerHung", "JobTimeout")


def _pool_worker_main(
    conn,
    supervisor_end,
    heartbeat,
    job_runner: Optional[Callable],
    retries: int,
) -> None:
    """Worker-process entry: beat, receive jobs, report results.

    Runs in the forked child.  The result pipe is written only from
    this (main) thread; the heartbeat is a shared double refreshed by a
    daemon thread, alive even while a simulation monopolizes the main
    thread.  Every job answer is a :class:`CellResult` — harness-level
    failures are data — so the only ways to *not* answer are the ways
    the supervisor is built to detect: crash, kill, or hang.
    """
    # The fork copied the supervisor's end of this pipe; holding it open
    # would hide the supervisor's death (no EOF) and orphan this worker.
    supervisor_end.close()
    stop = threading.Event()

    def beat() -> None:
        while not stop.is_set():
            heartbeat.value = time.monotonic()
            stop.wait(HEARTBEAT_INTERVAL)

    heartbeat.value = time.monotonic()
    threading.Thread(target=beat, name="pool-heartbeat", daemon=True).start()
    runner = job_runner if job_runner is not None else _run_job
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return  # supervisor went away; die quietly
            if message[0] == "stop":
                return
            job = message[1]
            result = run_job_with_retries(
                job,
                retries=retries,
                backoff=RETRY_BACKOFF,
                transient=TRANSIENT_ERRORS,
                job_runner=runner,
            )
            try:
                conn.send(("result", result))
            except (OSError, BrokenPipeError):
                return
    finally:
        stop.set()
        try:
            conn.close()
        except OSError:
            pass


@dataclass
class _Worker:
    """Supervisor-side handle on one worker process."""

    proc: multiprocessing.Process
    conn: object
    heartbeat: object                   # multiprocessing.Value('d')
    job: Optional[SweepJob] = None
    job_id: Optional[str] = None
    job_started: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.job_id is not None

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid


class ProcessWorkerPool:
    """A fixed-size pool of supervised, restartable worker processes.

    The pool owns process lifecycle only; job bookkeeping (leases,
    requeue-vs-quarantine) stays in the worker node, which drives
    :meth:`dispatch` and :meth:`poll` from its loop.
    Events come back as tuples::

        ("result", job_id, job, cell_result)
        ("lost",   job_id, job, kind, message)   # kind in WORKER_LOSS_KINDS

    A lost worker has already been replaced by the time its event is
    returned — the pool size is an invariant, not a hope.
    """

    def __init__(
        self,
        size: int,
        job_runner: Optional[Callable] = None,
        retries: int = 1,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        job_timeout: Optional[float] = None,
    ) -> None:
        if size < 1:
            raise ValueError("need at least one worker")
        if heartbeat_timeout <= HEARTBEAT_INTERVAL:
            raise ValueError(
                f"heartbeat_timeout must exceed {HEARTBEAT_INTERVAL}s"
            )
        self.size = size
        self.job_runner = job_runner
        self.retries = retries
        self.heartbeat_timeout = heartbeat_timeout
        self.job_timeout = job_timeout
        self.counters = CounterSet(
            worker_restarts=0,
            worker_crashes=0,
            worker_hangs=0,
            job_timeouts=0,
        )
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            self._ctx = multiprocessing.get_context()
        self._workers: List[_Worker] = []
        self._stopped = False

    # -- lifecycle -------------------------------------------------------------------

    def start(self) -> "ProcessWorkerPool":
        for _ in range(self.size):
            self._workers.append(self._spawn())
        return self

    def _spawn(self) -> _Worker:
        heartbeat = self._ctx.Value("d", time.monotonic())
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(
                child_conn,
                parent_conn,
                heartbeat,
                self.job_runner,
                self.retries,
            ),
            name="repro-pool-worker",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return _Worker(proc=proc, conn=parent_conn, heartbeat=heartbeat)

    def stop(self) -> None:
        """Bring every worker down, killing busy ones (the node releases
        their leases)."""
        self._stopped = True
        for worker in self._workers:
            try:
                worker.conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        for worker in self._workers:
            if worker.busy:
                self._kill(worker)
            worker.proc.join(timeout=5.0)
            if worker.proc.is_alive():  # pragma: no cover - stubborn worker
                self._kill(worker)
                worker.proc.join(timeout=2.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        self._workers = []

    @staticmethod
    def _kill(worker: _Worker) -> None:
        """SIGKILL, not SIGTERM: a hung or SIGSTOPped worker ignores
        polite signals, and the worker holds no state worth flushing."""
        try:
            worker.proc.kill()
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass

    # -- dispatch --------------------------------------------------------------------

    def idle_workers(self) -> int:
        return sum(1 for w in self._workers if not w.busy)

    def dispatch(self, job_id: str, job: SweepJob) -> bool:
        """Hand one job to an idle worker; False if all are busy."""
        for worker in self._workers:
            if worker.busy:
                continue
            try:
                worker.conn.send(("job", job))
            except (OSError, BrokenPipeError):
                continue  # dying worker; poll() will replace it
            worker.job = job
            worker.job_id = job_id
            worker.job_started = time.monotonic()
            return True
        return False

    # -- supervision -----------------------------------------------------------------

    def poll(self) -> List[Tuple]:
        """One supervision pass: results, crashes, hangs, timeouts.

        Order matters: a finished result is always drained before the
        worker's liveness is judged, so a job whose answer made it up
        the pipe is never double-charged as a crash.
        """
        events: List[Tuple] = []
        now = time.monotonic()
        for index, worker in enumerate(list(self._workers)):
            # 1. Drain any completed result first.
            try:
                if worker.conn.poll():
                    kind, payload = worker.conn.recv()
                    if kind == "result" and worker.busy:
                        events.append(
                            ("result", worker.job_id, worker.job, payload)
                        )
                        worker.job = None
                        worker.job_id = None
                        worker.job_started = None
                    continue
            except (EOFError, OSError):
                pass  # pipe died mid-message; fall through to liveness
            # 2. Dead process?
            if not worker.proc.is_alive():
                events.append(self._lose(
                    index, worker, "WorkerCrashed",
                    f"worker pid={worker.pid} died with exit code "
                    f"{worker.proc.exitcode} without reporting a result",
                    counter="worker_crashes",
                ))
                continue
            # 3. Stale heartbeat?
            last_beat = worker.heartbeat.value
            if now - last_beat > self.heartbeat_timeout:
                events.append(self._lose(
                    index, worker, "WorkerHung",
                    f"worker pid={worker.pid} missed heartbeats for "
                    f"{now - last_beat:.1f}s "
                    f"(> {self.heartbeat_timeout:g}s); killed",
                    counter="worker_hangs", kill=True,
                ))
                continue
            # 4. Job over its wall-clock budget?
            if (
                worker.busy
                and self.job_timeout is not None
                and now - worker.job_started > self.job_timeout
            ):
                events.append(self._lose(
                    index, worker, "JobTimeout",
                    f"job exceeded the {self.job_timeout:g}s wall-clock "
                    f"budget on worker pid={worker.pid}; worker killed",
                    counter="job_timeouts", kill=True,
                ))
        return [event for event in events if event is not None]

    def _lose(
        self,
        index: int,
        worker: _Worker,
        kind: str,
        message: str,
        counter: str,
        kill: bool = False,
    ) -> Optional[Tuple]:
        """Replace a lost worker; returns a ``lost`` event if it held a
        job (an idle loss is just a restart, nothing to requeue)."""
        if kill:
            self._kill(worker)
        worker.proc.join(timeout=5.0)
        try:
            worker.conn.close()
        except OSError:
            pass
        self.counters.inc(counter)
        self.counters.inc("worker_restarts")
        if not self._stopped:
            self._workers[index] = self._spawn()
        if worker.busy:
            return ("lost", worker.job_id, worker.job, kind, message)
        return None

    # -- introspection ---------------------------------------------------------------

    def alive_count(self) -> int:
        return sum(1 for w in self._workers if w.proc.is_alive())

    def busy_count(self) -> int:
        return sum(1 for w in self._workers if w.busy)

    def connections(self) -> list:
        """The workers' result pipes, for a caller to wait on."""
        return [w.conn for w in self._workers]

    def pids(self) -> List[int]:
        return [w.pid for w in self._workers if w.pid is not None]

    def busy_pids(self) -> List[int]:
        return [w.pid for w in self._workers if w.busy and w.pid is not None]

    def stats(self) -> dict:
        snapshot = self.counters.snapshot()
        snapshot.update(
            size=self.size,
            alive=self.alive_count(),
            busy=self.busy_count(),
        )
        return snapshot

