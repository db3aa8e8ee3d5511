"""Admission control: quotas, shedding and backpressure.

The paper treats the issue queue as a resource worth explicit priority
policy; this module applies the same discipline to the service's own
front door.  Every deployment — ``serve`` with its in-process node, or
a ``serve --queue-dir`` frontend of a fleet — admits a submission
through :class:`Admission` before it reaches the durable queue
(:mod:`repro.service.queue`):

* **Per-tenant quotas** — an optional token bucket per tenant
  (:class:`TokenBucket`), all at one rate and burst: a tenant over its
  rate is rejected with :class:`RateLimited` carrying a ``retry_after``
  hint (HTTP 429 + ``Retry-After``), per Kawahara et
  al.'s case for principled admission control at a bounded buffer
  (arXiv:1207.5959).
* **Priority shedding** — past :data:`DEFAULT_SHED_WATERMARK` occupancy
  of the unclaimed backlog, priority <= 0 submissions are shed so the
  remaining headroom serves urgent work.
* **Backpressure** — a full backlog rejects every submission with
  :class:`BacklogFull` instead of queueing unbounded work.

Cache hits never reach admission: they cost no worker, so the frontend
answers them before it checks a quota or the backlog.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable, Dict, Optional

from repro.telemetry.metrics import CounterSet

#: Terminal job states (the only states carrying a result).
TERMINAL_STATES = ("done", "failed", "quarantined")

#: Default backlog occupancy past which priority<=0 jobs are shed.
DEFAULT_SHED_WATERMARK = 0.75

#: ``Retry-After`` for a full or shedding backlog, seconds.
BACKLOG_RETRY_AFTER = 5.0


class BacklogFull(RuntimeError):
    """The bounded backlog rejected the job; resubmit later (HTTP 429)."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class RateLimited(RuntimeError):
    """The tenant is over its admission quota (HTTP 429 + Retry-After)."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class SchedulerClosed(RuntimeError):
    """The service is shutting down and admits no new work (HTTP 503)."""

    retry_after = 5.0


class UnknownJob(KeyError):
    """No record exists for the requested job id (HTTP 404)."""


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    Not thread-safe: :class:`Admission` calls it under its lock.  :meth:`try_take` returns 0.0 on
    success or the seconds until a token will be available.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0 or burst < 1:
            raise ValueError("need rate > 0 and burst >= 1")
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._tokens = float(burst)
        self._last = clock()

    def try_take(self) -> float:
        now = self._clock()
        self._tokens = min(
            self.burst, self._tokens + (now - self._last) * self.rate
        )
        self._last = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return 0.0
        return (1.0 - self._tokens) / self.rate


class Admission:
    """Quota, shedding and backlog checks for one frontend.

    Thread-safe.  The frontend still holds its admit lock across
    :meth:`check` and the intake append, so two submissions cannot both
    take the last backlog slot.
    """

    def __init__(
        self,
        counters: CounterSet,
        max_backlog: int = 64,
        quota_rate: Optional[float] = None,
        quota_burst: float = 10.0,
    ) -> None:
        if max_backlog < 1:
            raise ValueError("max_backlog must be positive")
        self.counters = counters
        self._lock = threading.Lock()
        self.max_backlog = max_backlog
        # One bucket per tenant, made on its first submission
        # (``quota_rate=None``: unlimited).
        self._quota_rate = quota_rate
        self._quota_burst = quota_burst
        self._buckets: Dict[str, TokenBucket] = {}
        self._tenants: Dict[str, Dict[str, int]] = {}

    def _tenant(self, tenant: str) -> Dict[str, int]:
        return self._tenants.setdefault(
            tenant, {"submitted": 0, "rate_limited": 0, "shed": 0})

    def submitted(self, tenant: str) -> None:
        with self._lock:
            self._tenant(tenant)["submitted"] += 1

    def tenants(self) -> Dict[str, Dict[str, int]]:
        """A copy of the per-tenant counters."""
        with self._lock:
            return {t: dict(s) for t, s in self._tenants.items()}

    def check(self, tenant: str, priority: int, backlog: int) -> None:
        """Admit one submission against ``backlog`` unclaimed jobs, or
        raise :class:`RateLimited`/:class:`BacklogFull`."""
        with self._lock:
            stats = self._tenant(tenant)
            bucket = self._buckets.get(tenant)
            if bucket is None and self._quota_rate is not None:
                bucket = TokenBucket(self._quota_rate, self._quota_burst)
                self._buckets[tenant] = bucket
            if bucket is not None:
                wait = bucket.try_take()
                if wait > 0.0:
                    self.counters.inc("rate_limited")
                    stats["rate_limited"] += 1
                    raise RateLimited(
                        f"tenant {tenant!r} is over its admission quota "
                        f"({bucket.rate:g}/s, burst {bucket.burst:g})",
                        retry_after=max(1.0, math.ceil(wait)),
                    )
            if backlog >= self.max_backlog:
                self.counters.inc("rejected_backlog")
                raise BacklogFull(
                    f"backlog full ({backlog} unclaimed >= "
                    f"{self.max_backlog}); retry after the queue drains",
                    retry_after=BACKLOG_RETRY_AFTER,
                )
            shed_at = DEFAULT_SHED_WATERMARK * self.max_backlog
            if priority <= 0 and backlog >= shed_at:
                self.counters.inc("shed")
                stats["shed"] += 1
                raise BacklogFull(
                    f"load shedding: backlog at {backlog}/{self.max_backlog}, "
                    f"above the {DEFAULT_SHED_WATERMARK:.0%} watermark; only "
                    f"priority > 0 submissions are admitted",
                    retry_after=BACKLOG_RETRY_AFTER,
                )
