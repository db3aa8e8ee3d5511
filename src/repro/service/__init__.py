"""Simulation-as-a-service: cache, admission, supervisor, queue, worker
nodes, server.

The serving layer over the reproduction (DESIGN.md §10).  Every
deployment runs one job path — a frontend appends to a durable queue, a
worker node claims, runs and commits — composed by
:class:`~repro.service.server.ReproService`:

* :mod:`repro.service.cache` — a content-addressed, on-disk result
  store (repeat experiments become file reads).  Its reads never fail:
  the frontend reads once per job at admission, and a worker node only
  writes, so a failing store costs cache entries, never results.
* :mod:`repro.service.scheduler` — front-door admission control
  (per-tenant token-bucket quotas, priority-aware shedding, backlog
  backpressure).  The job wire format (``job_to_dict``/``job_from_dict``)
  lives beside :class:`~repro.sim.harness.SweepJob` and is re-exported here.
* :mod:`repro.service.queue` — a durable job queue over a directory,
  with lease files, monotonic fencing epochs, and exactly-once result
  commitment, so N stateless frontends and N worker nodes survive
  ``kill -9`` and SIGSTOP zombies.
* :mod:`repro.service.supervisor` — the supervised multi-process worker
  pool: heartbeat-monitored forked workers, restarted on crash/hang.
* :mod:`repro.service.node` — the worker node that pulls from the queue
  onto the supervised pool: in-process under ``python -m repro serve``,
  or standalone as ``python -m repro work``.
* :mod:`repro.service.server` / :mod:`repro.service.client` — a
  stdlib-only HTTP API (``python -m repro serve``, fleet-frontend mode
  via ``--queue-dir``) and a client with idempotency tokens and
  ``Retry-After``-honoring capped jittered backoff.
"""

from repro.service.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    UncacheableJob,
    cache_key,
)
from repro.service.client import ServiceClient, ServiceError
from repro.service.node import WorkerNode, queue_key_for
from repro.service.queue import Claim, DurableQueue, FencedWrite, QueueJob
from repro.service.scheduler import (
    Admission,
    BacklogFull,
    RateLimited,
    SchedulerClosed,
    TokenBucket,
    UnknownJob,
)
from repro.service.server import ReproService
from repro.service.supervisor import ProcessWorkerPool
from repro.sim.harness import job_from_dict, job_to_dict

__all__ = [
    "Admission",
    "BacklogFull",
    "CACHE_SCHEMA_VERSION",
    "Claim",
    "DurableQueue",
    "FencedWrite",
    "ProcessWorkerPool",
    "QueueJob",
    "RateLimited",
    "ReproService",
    "ResultCache",
    "SchedulerClosed",
    "ServiceClient",
    "ServiceError",
    "TokenBucket",
    "UncacheableJob",
    "UnknownJob",
    "WorkerNode",
    "cache_key",
    "job_from_dict",
    "job_to_dict",
    "queue_key_for",
]
