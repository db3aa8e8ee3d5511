"""Stdlib-only HTTP front end: simulation-as-a-service.

:class:`ReproService` is a frontend over a
:class:`~repro.service.queue.DurableQueue`: it admits submissions
(:class:`~repro.service.scheduler.Admission`), answers cache hits from
the content-addressed :class:`~repro.service.cache.ResultCache`, and
serves status and results from the queue's durable state through a
``ThreadingHTTPServer`` speaking a small JSON API:

========  ==============  ====================================================
method    path            behaviour
========  ==============  ====================================================
POST      ``/submit``     admit one job ``{"workload", "policy", ...}``;
                          returns its record (429 quota/backlog, 503 closed)
POST      ``/batch``      admit ``{"jobs": [...]}`` independently; per-job
                          records or errors, never all-or-nothing
GET       ``/status/ID``  the job record, without the result payload
GET       ``/result/ID``  the result once terminal (202 while pending;
                          ``?wait=1&timeout=S`` blocks, capped server-side)
GET       ``/healthz``    liveness + version + uptime
GET       ``/metricsz``   server / cache / admission / queue / node counters
========  ==============  ====================================================

Everything is ``http.server`` + ``json`` — no third-party dependency,
per the repo's stdlib-only constraint.  One OS thread per in-flight
request (``ThreadingHTTPServer``) is plenty: the simulation work itself
is bounded by the worker pool, and request handling is I/O.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional, Tuple, Union
from urllib.parse import parse_qs, urlparse

from repro._version import __version__
from repro.service.cache import DEFAULT_MAX_BYTES, CircuitBreaker, ResultCache
from repro.service.node import WorkerNode, queue_key_for
from repro.service.queue import (
    DEFAULT_LEASE_SECONDS,
    DurableQueue,
    refuse_legacy,
    token_job_id,
)
from repro.service.scheduler import (
    DEFAULT_SHED_WATERMARK,
    Admission,
    BacklogFull,
    RateLimited,
    SchedulerClosed,
    TERMINAL_STATES,
    UnknownJob,
    job_from_dict,
    job_to_dict,
)
from repro.telemetry.metrics import CounterSet

#: Largest accepted request body; a job spec is a few hundred bytes.
MAX_BODY_BYTES = 1 << 20

#: Hard server-side cap on ``/result?wait=1`` blocking, seconds.
MAX_RESULT_WAIT = 120.0

#: Stable id of the in-process node of ``serve`` without ``--queue-dir``:
#: a restart on the same cache dir finds its predecessor's registry file
#: (and pid) under this name.
LOCAL_NODE_ID = "local"

#: What admission raises for a rejected submission.
ADMISSION_ERRORS = (ValueError, KeyError, BacklogFull, RateLimited,
                    SchedulerClosed)


def _rejection(exc: Exception) -> Tuple[int, dict]:
    """HTTP status and error payload for one of :data:`ADMISSION_ERRORS`:
    400 for a bad spec, 429 for quota/backlog, 503 while shutting down
    (the last two with a ``retry_after`` hint)."""
    if isinstance(exc, (ValueError, KeyError)):
        return 400, {"error": str(exc)}
    status = 503 if isinstance(exc, SchedulerClosed) else 429
    return status, {"error": str(exc), "retry_after": exc.retry_after}


class _ServiceHandler(BaseHTTPRequestHandler):
    """Routes requests to the owning :class:`ReproService` (set as the
    ``service`` attribute of a per-service subclass)."""

    service: "ReproService"
    protocol_version = "HTTP/1.1"
    server_version = f"repro-serve/{__version__}"

    # -- plumbing --------------------------------------------------------------------

    def log_message(self, fmt, *args):  # noqa: D102 - silence default stderr spam
        pass

    def _reply(
        self, status: int, payload: dict, headers: Optional[dict] = None
    ) -> None:
        body = (json.dumps(payload) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, str(value))
        self.end_headers()
        self.wfile.write(body)
        self.service.counters.inc("responses")
        if status >= 400:
            self.service.counters.inc(f"responses_{status}")

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise ValueError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValueError("empty request body; expected a JSON object")
        payload = json.loads(raw.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    # -- routes ----------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self.service.counters.inc("requests")
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if url.path == "/healthz":
                self._reply(200, self.service.health())
            elif url.path == "/metricsz":
                self._reply(200, self.service.metrics())
            elif len(parts) == 2 and parts[0] == "status":
                self._reply(200, self.service.status_payload(parts[1]))
            elif len(parts) == 2 and parts[0] == "result":
                self._get_result(parts[1], parse_qs(url.query))
            else:
                self._reply(404, {"error": f"no route for {url.path!r}"})
        except UnknownJob as exc:
            self._reply(404, {"error": f"unknown job id {exc.args[0]!r}"})
        except Exception as exc:  # pragma: no cover - last-ditch 500
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _get_result(self, job_id: str, query: dict) -> None:
        wait = query.get("wait", ["0"])[0] not in ("0", "", "false")
        timeout = min(
            float(query.get("timeout", [str(MAX_RESULT_WAIT)])[0]),
            MAX_RESULT_WAIT,
        )
        status, payload = self.service.result_payload(
            job_id, wait=wait, timeout=timeout
        )
        self._reply(status, payload)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self.service.counters.inc("requests")
        url = urlparse(self.path)
        try:
            payload = self._read_json()
        except (ValueError, json.JSONDecodeError) as exc:
            self._reply(400, {"error": str(exc)})
            return
        try:
            if url.path == "/submit":
                self._reply(200, self.service.admit(payload))
            elif url.path == "/batch":
                jobs = payload.get("jobs")
                if not isinstance(jobs, list):
                    raise ValueError("batch payload needs a 'jobs' array")
                self._reply(200, {"jobs": [self._admit_soft(j) for j in jobs]})
            else:
                self._reply(404, {"error": f"no route for {url.path!r}"})
        except ADMISSION_ERRORS as exc:
            status, body = _rejection(exc)
            headers = None
            if "retry_after" in body:
                headers = {"Retry-After": int(body["retry_after"])}
            self._reply(status, body, headers=headers)
        except Exception as exc:  # pragma: no cover - last-ditch 500
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _admit_soft(self, payload) -> dict:
        """Batch admission: one bad/rejected job never poisons the rest."""
        try:
            return self.service.admit(payload)
        except ADMISSION_ERRORS as exc:
            status, body = _rejection(exc)
            return dict(body, status=status)


class ReproService:
    """The serving stack: a queue frontend behind an HTTP server.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`address`).  Use :meth:`start` for a background server or
    :meth:`serve_forever` for a foreground one (the CLI).

    Without ``queue_dir`` the service also runs one in-process
    :class:`~repro.service.node.WorkerNode` over a private queue at
    ``<cache_dir>/queue`` (a temporary directory without a cache dir),
    sharing its queue handle, cache and breaker; the node's stable id
    lets a restart after ``kill -9`` take over its leases at once.  With
    ``queue_dir`` it is a stateless fleet frontend and ``python -m repro
    work`` nodes run the jobs.  Both admit through :class:`Admission`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir: Optional[Union[str, Path]] = None,
        cache_max_bytes: int = DEFAULT_MAX_BYTES,
        workers: int = 2,
        max_backlog: int = 64,
        timeout: Optional[float] = None,
        job_runner=None,
        max_job_crashes: int = 2,
        heartbeat_timeout: float = 10.0,
        quota_rate: Optional[float] = None,
        quota_burst: float = 10.0,
        quotas: Optional[dict] = None,
        shed_watermark: float = DEFAULT_SHED_WATERMARK,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 30.0,
        queue_dir: Optional[Union[str, Path]] = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        fsync: bool = True,
    ) -> None:
        if cache_dir is not None:
            for name in ("jobs.wal", "pending-jobs.jsonl"):
                refuse_legacy(Path(cache_dir) / name)
        self.counters = CounterSet()
        # Job counters, shared with the local node when there is one.
        self.jobs = CounterSet(
            submitted=0, cache_hits=0, token_dedup=0, rejected_backlog=0,
            rejected_closed=0, rate_limited=0, shed=0, cache_errors=0,
            cache_bypass=0,
        )
        self.cache = (
            ResultCache(cache_dir, max_bytes=cache_max_bytes)
            if cache_dir is not None
            else None
        )
        self.breaker = CircuitBreaker(
            failure_threshold=breaker_threshold, cooldown=breaker_cooldown
        )
        self.admission = Admission(
            self.jobs, max_backlog=max_backlog, quota_rate=quota_rate,
            quota_burst=quota_burst, quotas=quotas,
            shed_watermark=shed_watermark,
        )
        self._admit_lock = threading.Lock()
        self._closed = False
        self._private_dir: Optional[str] = None
        self.node: Optional[WorkerNode] = None
        self._node_thread: Optional[threading.Thread] = None
        self._hb_stop = threading.Event()
        self._hb_thread: Optional[threading.Thread] = None
        local = queue_dir is None
        if local:
            if cache_dir is not None:
                queue_dir = Path(cache_dir) / "queue"
            else:
                queue_dir = self._private_dir = tempfile.mkdtemp(
                    prefix="repro-queue-")
        self.queue = DurableQueue(
            queue_dir,
            node_id=LOCAL_NODE_ID if local else
            f"frontend-{uuid.uuid4().hex[:8]}",
            lease_seconds=lease_seconds,
            max_job_crashes=max_job_crashes,
            fsync=fsync,
        )
        self.recovered = 0
        if local:
            self.recovered = self.queue.take_over()
            try:
                self.node = WorkerNode(
                    self.queue, cache_dir=self.cache, workers=workers,
                    job_timeout=timeout, heartbeat_timeout=heartbeat_timeout,
                    job_runner=job_runner,
                    counters=self.jobs,
                )
                self.node.breaker = self.breaker
                # Fork the workers before this service binds its socket
                # or starts a thread, so they inherit neither.
                self.node.start()
                self.httpd = self._bind(host, port)
            except BaseException:
                if self.node is not None:
                    self.node.pool.stop()
                self.queue.remove_node()
                raise
            self._node_thread = threading.Thread(
                target=self.node.run_forever, name="repro-local-node",
                daemon=True,
            )
            self._node_thread.start()
        else:
            self.httpd = self._bind(host, port)
            self._hb_thread = threading.Thread(
                target=self._heartbeat_loop,
                name="repro-frontend-heartbeat",
                daemon=True,
            )
            self._hb_thread.start()
        self._started_at = time.time()
        self._serve_thread: Optional[threading.Thread] = None

    def _bind(self, host: str, port: int) -> ThreadingHTTPServer:
        handler = type("_BoundHandler", (_ServiceHandler,), {"service": self})
        return ThreadingHTTPServer((host, port), handler)

    def _heartbeat_loop(self) -> None:
        interval = min(self.queue.node_ttl / 3.0, 2.0)
        while not self._hb_stop.is_set():
            try:
                self.queue.write_node("frontend", {
                    "requests": self.counters.snapshot().get("requests", 0),
                })
            except OSError:  # pragma: no cover - disk hiccup; retry next beat
                pass
            self._hb_stop.wait(interval)

    # -- lifecycle -------------------------------------------------------------------

    @property
    def address(self) -> tuple:
        return self.httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ReproService":
        """Serve in a daemon thread; returns self for chaining."""
        self._serve_thread = threading.Thread(
            target=self.httpd.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._serve_thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve in the calling thread until :meth:`stop` (or Ctrl-C)."""
        self.httpd.serve_forever()

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> dict:
        """Stop the HTTP listener, then the local node (if any).

        With ``drain`` the node works until the queue is empty or
        ``timeout`` expires; then running jobs' leases are released with
        no crash charge, and leftovers stay queued for the next start.
        Returns ``{"drained": bool, "requeued": int}``.
        """
        self._closed = True
        if self._serve_thread is not None:
            self.httpd.shutdown()
            self._serve_thread.join(timeout=5.0)
            self._serve_thread = None
        self.httpd.server_close()
        if self.node is None:
            self._hb_stop.set()
            if self._hb_thread is not None:
                self._hb_thread.join(timeout=5.0)
            self.queue.write_node("frontend", {"stopped": True})
            return {"drained": True, "requeued": 0}
        deadline = time.monotonic() + timeout if timeout is not None else None
        while drain and (deadline is None or time.monotonic() < deadline):
            backlog = self.queue.metrics()
            if not backlog["pending"] and not backlog["running"]:
                break
            time.sleep(0.05)
        self.node.stop()
        self._node_thread.join(timeout=30.0)
        # The queue is empty or the window is spent: release what runs.
        self.node.drain(timeout=0.0)
        leftover = self.queue.pending_count()
        self.queue.remove_node()
        if self._private_dir is not None:
            shutil.rmtree(self._private_dir, ignore_errors=True)
        return {"drained": not leftover, "requeued": leftover}

    # -- admission -------------------------------------------------------------------

    def admit(self, payload: dict) -> dict:
        """Validate and admit one submission payload; returns its record.

        A cache hit costs no worker, so it settles at once, before any
        quota or backlog check.  A tokened job's id comes from its token,
        so the replay check is two ``stat``s, and the exclusive publish of
        that id gives concurrent posts of one token one job, on any
        frontend.
        """
        job = job_from_dict(payload)
        priority = int(payload.get("priority") or 0)
        tenant = payload.get("tenant") or "default"
        if not isinstance(tenant, str):
            raise ValueError("tenant must be a string")
        token = payload.get("token")
        if token is not None and not isinstance(token, str):
            raise ValueError("token must be a string")
        if self._closed:
            self.jobs.inc("rejected_closed")
            raise SchedulerClosed("service is shutting down")
        key = queue_key_for(job)
        job_dict = job_to_dict(job, priority, tenant)
        hit = None
        if key is not None and self.cache is not None:
            hit = self.breaker.guard(lambda: self.cache.get(key), self.jobs)
        replay = token_job_id(token) if token is not None else None
        with self._admit_lock:
            if replay is not None and self.queue.admitted(replay):
                self.jobs.inc("token_dedup")
                return self.status_payload(replay)
            self.jobs.inc("submitted")
            self.admission.submitted(tenant)
            if hit is not None:
                self.jobs.inc("cache_hits")
                job_id = self.queue.settle_unclaimed(
                    job_dict, hit.to_dict(), priority=priority,
                    tenant=tenant, token=token, key=key, cached=True,
                )
            else:
                self.admission.check(tenant, priority,
                                     self.queue.pending_count())
                job_id = self.queue.append(
                    job_dict, priority=priority, tenant=tenant, token=token,
                    key=key).id
        if hit is None and self.node is not None:
            self.node.wake()
        return self.status_payload(job_id)

    # -- lookups ---------------------------------------------------------------------

    def result_payload(
        self, job_id: str, wait: bool, timeout: float
    ) -> Tuple[int, dict]:
        """(status code, payload) for ``GET /result/ID``: 200 with the
        result once terminal, 202 with the bare record while pending."""
        record = self.status_payload(job_id)
        if record["state"] not in TERMINAL_STATES and wait:
            self.queue.wait_settled(job_id, timeout=timeout)
            record = self.status_payload(job_id)
        if record["state"] not in TERMINAL_STATES:
            return 202, record
        envelope = self.queue.read_result(job_id)
        record["result"] = (
            envelope.get("result") if envelope is not None else None
        )
        return 200, record

    def status_payload(self, job_id: str) -> dict:
        """The job record ``GET /status/ID`` serves (no result)."""
        record = self.queue.lookup(job_id)
        if record is None:
            raise UnknownJob(job_id)
        return record

    # -- payload builders ------------------------------------------------------------

    def health(self) -> dict:
        queue_metrics = self.queue.metrics()
        payload = {
            "status": "ok",
            "version": __version__,
            "uptime_s": round(time.time() - self._started_at, 3),
            "recovered_jobs": self.recovered,
            "mode": "frontend" if self.node is None else "single",
            "queue_depth": queue_metrics["pending"],
            "queue_running": queue_metrics["running"],
            "oldest_unclaimed_age_s": queue_metrics["oldest_unclaimed_age_s"],
            "breaker": self.breaker.state,
        }
        if self.node is not None:
            payload.update(workers_alive=self.node.pool.alive_count(),
                           workers=self.node.pool.size)
            return payload
        fleet = self.queue.fleet()
        payload.update(
            nodes_alive=fleet["nodes_alive"],
            workers_alive=fleet["workers_alive"],
            frontends_alive=fleet["frontends_alive"],
            fenced_rejections=fleet["totals"].get("fenced_rejections", 0),
        )
        return payload

    def metrics(self) -> dict:
        """``/metricsz``: ``scheduler`` holds this frontend's admission
        and job counters plus the queue-wide settle totals, read from
        the durable envelopes; ``node`` is the local node (pool, worker
        pids), or None on a fleet frontend."""
        queue_metrics = self.queue.metrics()
        outcomes = queue_metrics["outcomes"]
        scheduler = self.jobs.snapshot()
        scheduler.update(
            queued=queue_metrics["pending"],
            running=queue_metrics["running"],
            completed=outcomes["done"] - outcomes["cached"]
            - outcomes["deduped"],
            failed=outcomes["failed"],
            quarantined=outcomes["quarantined"],
            deduped=outcomes["deduped"],
            max_backlog=self.admission.max_backlog,
            workers=self.node.pool.size if self.node is not None else 0,
            closed=self._closed,
            tenants=self.admission.tenants(),
            breaker=self.breaker.stats(),
        )
        return {
            "version": __version__,
            "server": self.counters.snapshot(),
            "cache": self.cache.stats() if self.cache is not None else None,
            "scheduler": scheduler,
            "queue": queue_metrics,
            "fleet": self.queue.fleet(),
            "node": self.node.stats() if self.node is not None else None,
        }
