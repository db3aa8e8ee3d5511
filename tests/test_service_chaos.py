"""Chaos tests for the service layer.

Every test here injects a real fault — SIGKILLed workers and servers,
SIGSTOPped (hung) workers, failing cache writes — and asserts the
service's contract under it: an accepted job is either completed with a
valid result or reported as quarantined; it is never silently lost, and
the cache is never corrupted.  Everything goes through :class:`ReproService` and its HTTP
API.

The process-pool runners below are plain module functions: the pool
forks its workers, so the runner (and any sentinel paths baked into a
``functools.partial``) crosses into the child by fork inheritance.
Kill-once semantics use sentinel *files* because in-memory flags reset
with every respawned worker.
"""

import itertools
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import pytest

from conftest import CountingRunner
from repro.config import get_config
from repro.service import (
    ReproService,
    ResultCache,
    ServiceClient,
    ServiceError,
    TokenBucket,
    cache_key,
)
from repro.service import queue as queue_module
from repro.service import server as server_module
from repro.service.queue import DurableQueue
from repro.sim.harness import SweepJob, _run_job

MEDIUM = get_config("medium")
N = 2500


def job(workload="exchange2", policy="age", **kwargs):
    return SweepJob(workload, policy, MEDIUM, N, **kwargs)


# -- process-pool job runners (fork-inherited; sentinel files for once-only) ----------


def crash_once_runner(sentinel, sweep_job, _trace_cache=None):
    """SIGKILL the worker on the first execution ever, then behave."""
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as handle:
            handle.write(str(os.getpid()))
        os.kill(os.getpid(), signal.SIGKILL)
    return _run_job(sweep_job, _trace_cache)


def crash_policy_runner(sweep_job, _trace_cache=None):
    """A poison pill: every execution of a 'circ' job kills its worker."""
    if sweep_job.policy == "circ":
        os.kill(os.getpid(), signal.SIGKILL)
    return _run_job(sweep_job, _trace_cache)


def hang_once_runner(sentinel, sweep_job, _trace_cache=None):
    """SIGSTOP the worker on the first execution ever (heartbeat goes
    stale: the supervisor must declare it hung and SIGKILL it)."""
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as handle:
            handle.write(str(os.getpid()))
        os.kill(os.getpid(), signal.SIGSTOP)
    return _run_job(sweep_job, _trace_cache)


def slow_runner(sweep_job, _trace_cache=None):
    time.sleep(60.0)
    return _run_job(sweep_job, _trace_cache)  # pragma: no cover


class CrashRunner(CountingRunner):
    """Counts each execution, then SIGKILLs its worker."""

    def before_run(self) -> None:
        os.kill(os.getpid(), signal.SIGKILL)


def spec(policy="age", **kwargs):
    return {"workload": "exchange2", "policy": policy,
            "num_instructions": N, **kwargs}


def wait_terminal(client, job_id, timeout=60.0):
    result = client.wait_result(job_id, timeout=timeout)
    record = client.status(job_id)
    assert record["state"] in ("done", "failed", "quarantined"), record
    return record, result


def serving(**kwargs):
    """A started one-worker service and a client for it."""
    kwargs.setdefault("workers", 1)
    svc = ReproService(**kwargs).start()
    client = ServiceClient(svc.url, max_retries=0)
    client.wait_healthy()
    return svc, client


class TestWorkerCrashRecovery:
    def test_sigkilled_worker_is_restarted_and_job_requeued(self, tmp_path):
        runner = partial(crash_once_runner, str(tmp_path / "crashed"))
        svc, client = serving(job_runner=runner, max_job_crashes=2)
        try:
            record = client.submit(**spec())
            record, result = wait_terminal(client, record["id"])
            assert record["state"] == "done" and result.ok
            assert record["crashes"] == 1
            node = client.metricsz()["node"]
            assert node["worker_losses"] == 1
            assert node["pool"]["worker_crashes"] == 1
            assert node["pool"]["worker_restarts"] >= 1
            assert node["pool"]["alive"] == 1
        finally:
            svc.stop(drain=False)

    def test_poison_job_is_quarantined_while_others_complete(self, tmp_path):
        svc, client = serving(job_runner=crash_policy_runner,
                              max_job_crashes=1)
        try:
            poison = client.submit(**spec(policy="circ"))
            healthy = client.submit(**spec(policy="age"))
            poison_record, poison_result = wait_terminal(
                client, poison["id"], timeout=90.0
            )
            assert poison_record["state"] == "quarantined"
            assert poison_result is not None and not poison_result.ok
            assert poison_result.error_type == "PoisonJob"
            assert poison_record["crashes"] == 2  # max_job_crashes + 1 losses
            healthy_record, healthy_result = wait_terminal(
                client, healthy["id"], timeout=90.0
            )
            assert healthy_record["state"] == "done" and healthy_result.ok
            assert client.metricsz()["scheduler"]["quarantined"] == 1
        finally:
            svc.stop(drain=False)

    def test_hung_worker_is_detected_killed_and_replaced(self, tmp_path):
        runner = partial(hang_once_runner, str(tmp_path / "hung"))
        svc, client = serving(job_runner=runner, heartbeat_timeout=1.0)
        try:
            record = client.submit(**spec())
            record, result = wait_terminal(client, record["id"], timeout=90.0)
            assert record["state"] == "done" and result.ok
            assert client.metricsz()["node"]["pool"]["worker_hangs"] == 1
        finally:
            svc.stop(drain=False)

    def test_job_over_wallclock_budget_fails_once(self):
        # A deterministic simulation over its budget would overrun it
        # again: the timeout is the job's result, with no crash charge.
        svc, client = serving(job_runner=slow_runner, timeout=0.5)
        try:
            record = client.submit(**spec())
            record, result = wait_terminal(client, record["id"], timeout=60.0)
            assert record["state"] == "failed"
            assert record["crashes"] == 0
            assert result.error_type == "JobTimeout"
            assert result.attempts == 1
            node = client.metricsz()["node"]
            assert node["pool"]["job_timeouts"] == 1
            assert node.get("worker_losses", 0) == 0
        finally:
            svc.stop(drain=False)

    def test_shutdown_spills_inflight_jobs_as_retryable(self, tmp_path):
        cache_dir = tmp_path / "cache"
        svc, client = serving(cache_dir=cache_dir, job_runner=slow_runner)
        record = client.submit(**spec())
        deadline = time.monotonic() + 30.0
        while client.status(record["id"])["state"] != "running":
            assert time.monotonic() < deadline, "job never started"
            time.sleep(0.02)
        outcome = svc.stop(drain=True, timeout=0.3)
        assert outcome == {"drained": False, "requeued": 1}
        assert svc.status_payload(record["id"])["state"] == "queued"
        # The durable queue still holds it: a fresh service finishes it,
        # and the interrupted run cost it no crash.
        fresh, client = serving(cache_dir=cache_dir)
        try:
            _, result = wait_terminal(client, record["id"], timeout=90.0)
            assert result.ok
            assert client.metricsz()["scheduler"]["completed"] == 1
            assert client.status(record["id"])["crashes"] == 0
        finally:
            fresh.stop()


def test_sweep_bounds_the_queue_directory(tmp_path, monkeypatch):
    # The private queue stays bounded while the server runs: the sweep
    # deletes settled jobs' intake files, and then their old envelopes.
    svc, client = serving(lease_seconds=1.0)  # sweeps every second
    try:
        for _ in range(50):
            wait_terminal(client, client.submit(**spec())["id"])
        queue = svc.queue
        assert queue.pending_count() == 0
        deadline = time.monotonic() + 30.0
        while os.listdir(queue.jobs_dir):
            assert time.monotonic() < deadline, "intake never swept"
            time.sleep(0.05)
        monkeypatch.setattr(queue_module, "RESULT_GC_SECONDS", 0.0)
        while len(list(queue.results_dir.iterdir())) >= 10:
            assert time.monotonic() < deadline, "results never swept"
            time.sleep(0.05)
        # Collected envelopes still count as settled work.
        assert client.metricsz()["queue"]["outcomes"]["done"] == 50
    finally:
        svc.stop()


class TestRestartRecovery:
    def test_sigkilled_server_restart_reruns_inflight_jobs_at_once(
        self, tmp_path
    ):
        """``kill -9`` of ``serve`` mid-job, then a restart on the same
        cache dir: every accepted job ends done or quarantined, none is
        charged a crash, and none waits out its lease."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        lease = 60.0

        def serve():
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--cache-dir", str(tmp_path), "--workers", "1",
                 "--lease", str(lease)],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                env=env,
            )
            match = None
            while match is None:
                line = proc.stdout.readline()
                assert line, "server exited before listening"
                match = re.search(r"listening on (http://\S+)", line)
            client = ServiceClient(match.group(1))
            client.wait_healthy(timeout=30)
            return proc, client

        proc, client = serve()
        try:
            ids = [client.submit(**spec(policy, num_instructions=30_000))["id"]
                   for policy in ("age", "swque")]
            deadline = time.monotonic() + 60.0
            while client.status(ids[0])["state"] != "running":
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.02)
            proc.kill()                     # SIGKILL: no drain, no release
            proc.wait(timeout=30)
            restarted = time.monotonic()
            proc, client = serve()
            assert client.healthz()["recovered_jobs"] == 2
            for job_id in ids:
                record, _ = wait_terminal(client, job_id, timeout=lease)
                assert record["state"] in ("done", "quarantined")
                assert record["crashes"] == 0
            assert time.monotonic() - restarted < lease
            assert client.status(ids[0])["epoch"] == 2
        finally:
            proc.kill()
            proc.wait(timeout=30)

    def test_concurrent_take_overs_admit_exactly_one(self, tmp_path):
        """Two servers started together on one cache dir race for its
        private queue: exactly one owns it.  A forked child does not keep
        the ownership after its parent lets go."""
        barrier = threading.Barrier(4)

        def take_over(_):
            handle = DurableQueue(tmp_path, node_id="local")
            barrier.wait()
            try:
                handle.take_over()
            except RuntimeError as exc:
                assert "in use" in str(exc)
                return None
            return handle

        with ThreadPoolExecutor(max_workers=4) as pool:
            owners = [h for h in pool.map(take_over, range(4)) if h]
        assert len(owners) == 1
        context = multiprocessing.get_context("fork")
        started = context.Event()

        def linger():
            started.set()  # after the fork hooks ran
            time.sleep(60)

        child = context.Process(target=linger)
        child.start()
        try:
            assert started.wait(30)
            owners[0].remove_node()
            successor = DurableQueue(tmp_path, node_id="local")
            successor.take_over()
            successor.remove_node()
        finally:
            child.kill()
            child.join()

    def test_second_server_on_a_live_private_queue_is_refused(self, tmp_path):
        svc = ReproService(cache_dir=tmp_path, workers=1)
        try:
            with pytest.raises(RuntimeError, match="in use"):
                ReproService(cache_dir=tmp_path, workers=1)
        finally:
            svc.stop()
        ReproService(cache_dir=tmp_path, workers=1).stop()

    def test_quarantine_survives_restart_and_never_reruns(self, tmp_path):
        cache_dir = tmp_path / "cache"
        runner = CrashRunner(tmp_path / "runs")
        svc, client = serving(cache_dir=cache_dir, job_runner=runner,
                              max_job_crashes=0)
        try:
            poison = client.submit(**spec(policy="circ"))["id"]
            before, result = wait_terminal(client, poison, timeout=90.0)
        finally:
            svc.stop(drain=False)
        assert before["state"] == "quarantined"
        assert result.error_type == "PoisonJob"
        runner = CountingRunner(runner.root)  # same record of runs
        svc, client = serving(cache_dir=cache_dir, job_runner=runner)
        try:
            after, again = wait_terminal(client, poison)
            assert after["state"] == "quarantined"
            assert again.error_message == result.error_message
            fresh = client.submit(**spec(policy="age"))["id"]
            assert fresh != poison
            assert wait_terminal(client, fresh, timeout=90.0)[1].ok
        finally:
            svc.stop()
        # One run: the crash before the restart.  Then only the fresh job.
        assert [key.split("|")[1] for key in runner.calls] == ["circ", "age"]

    def test_directory_of_an_earlier_format_is_refused(self, tmp_path):
        """Formats no build writes any more are refused by name, never
        silently ignored; ``*.imported`` leftovers are not refused."""
        for name in ("jobs.wal", "pending-jobs.jsonl"):
            cache_dir = tmp_path / name.replace(".", "-")
            cache_dir.mkdir()
            (cache_dir / name).write_text("{}\n")
            with pytest.raises(RuntimeError, match=f"{name}.*2f75f93"):
                ReproService(cache_dir=cache_dir, workers=1)
        (tmp_path / "queue" / "segments").mkdir(parents=True)
        with pytest.raises(RuntimeError, match="segments.*2f75f93"):
            DurableQueue(tmp_path / "queue")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src"),
             env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(tmp_path / "jobs-wal")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1
        assert "jobs.wal" in proc.stderr and "2f75f93" in proc.stderr
        clean = tmp_path / "clean"
        clean.mkdir()
        for name in ("jobs.wal.imported", "pending-jobs.jsonl.imported"):
            (clean / name).write_text("{}\n")
        ReproService(cache_dir=clean, workers=1).stop()


class TestCacheFaults:
    def test_failing_cache_degrades_to_compute_and_return(
        self, tmp_path, monkeypatch
    ):
        class FailingCache(ResultCache):
            broken = True

            def put(self, key, result, job=None):
                if self.broken:
                    raise OSError("disk full")
                return super().put(key, result, job)

        monkeypatch.setattr(server_module, "ResultCache", FailingCache)
        svc, client = serving(cache_dir=tmp_path)
        cache = svc.cache
        try:
            # Every put fails; each is counted, and results still flow.
            for count, policy in enumerate(("age", "shift"), start=1):
                record = client.submit(**spec(policy=policy))
                record, result = wait_terminal(client, record["id"])
                assert record["state"] == "done" and result.ok
                assert client.metricsz()["scheduler"]["cache_errors"] == count
            assert len(cache) == 0  # nothing persisted while broken
            # The disk heals: the next fresh job is cached at once.
            cache.broken = False
            third = client.submit(**spec(policy="swque"))
            _, result = wait_terminal(client, third["id"])
            assert result.ok
            assert len(cache) == 1
            assert client.metricsz()["scheduler"]["cache_errors"] == 2
        finally:
            svc.stop()


class TestAdmissionControl:
    def test_token_bucket(self):
        clock = [0.0]
        bucket = TokenBucket(rate=1.0, burst=2, clock=lambda: clock[0])
        assert bucket.try_take() == 0.0
        assert bucket.try_take() == 0.0
        assert bucket.try_take() == pytest.approx(1.0)
        clock[0] = 1.0  # one token refilled
        assert bucket.try_take() == 0.0

    def test_per_tenant_quota_rate_limits_independently(self):
        svc, client = serving(quota_rate=0.001, quota_burst=1.0)
        try:
            client.submit(**spec(policy="age"), tenant="alice")
            with pytest.raises(ServiceError) as excinfo:
                client.submit(**spec(policy="shift"), tenant="alice")
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after >= 1.0
            # A different tenant has its own bucket.
            client.submit(**spec(policy="shift"), tenant="bob")
            tenants = client.metricsz()["scheduler"]["tenants"]
            assert tenants["alice"]["rate_limited"] == 1
            assert tenants["bob"]["rate_limited"] == 0
        finally:
            svc.stop(drain=False)


class TestClientBackoff:
    def test_retries_honor_retry_after_then_succeed(self):
        sleeps = []
        client = ServiceClient(
            "http://127.0.0.1:1", max_retries=3, backoff=0.25,
            sleep=sleeps.append,
        )
        calls = {"n": 0}

        def fake_request(path, payload=None):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise ServiceError(429, {"error": "busy"}, retry_after=2.0)
            return {"ok": True}

        client._request_once = fake_request
        assert client._request("/submit", {}) == {"ok": True}
        assert sleeps == [2.0, 2.0]  # server hint wins over backoff

    def test_retry_after_beyond_backoff_cap_is_honored(self):
        """The server's hint ranges up to 60s; clamping it to the
        client's own backoff_cap would re-hit an overloaded server
        early.  Only the (much larger) retry_after_cap bounds it."""
        sleeps = []
        client = ServiceClient(
            "http://127.0.0.1:1", max_retries=1, backoff_cap=3.0,
            sleep=sleeps.append,
        )

        def busy_then_ok(path, payload=None):
            if not sleeps:
                raise ServiceError(429, {"error": "busy"}, retry_after=45.0)
            return {"ok": True}

        client._request_once = busy_then_ok
        assert client._request("/submit", {}) == {"ok": True}
        assert sleeps == [45.0]  # not clamped to backoff_cap
        assert client._retry_delay(
            0, ServiceError(429, {}, retry_after=1e9)
        ) == client.retry_after_cap

    def test_backoff_is_capped_and_jittered_without_hint(self):
        sleeps = []
        import random

        client = ServiceClient(
            "http://127.0.0.1:1", max_retries=4, backoff=1.0,
            backoff_cap=3.0, sleep=sleeps.append, rng=random.Random(7),
        )

        def always_busy(path, payload=None):
            raise ServiceError(503, {"error": "draining"})

        client._request_once = always_busy
        with pytest.raises(ServiceError):
            client._request("/healthz")
        assert len(sleeps) == 4
        for i, delay in enumerate(sleeps):
            cap = min(1.0 * (2 ** i), 3.0)
            assert 0.5 * cap <= delay <= cap  # jitter in [0.5, 1.0) x cap

    def test_non_retryable_errors_fail_fast(self):
        sleeps = []
        client = ServiceClient("http://127.0.0.1:1", max_retries=3,
                               sleep=sleeps.append)

        def bad_request(path, payload=None):
            raise ServiceError(400, {"error": "nope"})

        client._request_once = bad_request
        with pytest.raises(ServiceError):
            client._request("/submit", {})
        assert sleeps == []


class TestCrashNeverCorruptsCache:
    def test_sigkill_mid_job_preserves_cache_integrity(self, tmp_path):
        """The acceptance-criteria property, exercised across several
        kill timings: a worker SIGKILLed at an arbitrary point during a
        job never leaves a corrupt cache entry, and the job still
        completes after the supervisor restarts the worker."""
        try:
            from hypothesis import HealthCheck, given, settings, strategies as st
        except ImportError:  # pragma: no cover - hypothesis not installed
            pytest.skip("hypothesis unavailable")

        runs = itertools.count()

        @settings(
            max_examples=4,
            deadline=None,
            suppress_health_check=list(HealthCheck),
        )
        @given(delay=st.floats(min_value=0.0, max_value=0.2), seed=st.integers(0, 3))
        def property_holds(delay, seed):
            # One cache dir per *execution*, not per example value:
            # hypothesis re-runs identical examples (database replay,
            # shrinking), and a reused dir turns the second run into a
            # warm-cache hit that never dispatches a worker.
            cache_dir = tmp_path / f"cache-{next(runs)}"
            svc, client = serving(cache_dir=cache_dir, max_job_crashes=3)
            try:
                the_job = SweepJob("exchange2", "age", MEDIUM, 40_000,
                                   seed=seed)
                record = client.submit(workload="exchange2", policy="age",
                                       num_instructions=40_000, seed=seed)
                # SIGKILL the worker once it picks the job up, after an
                # arbitrary slice of the job's runtime.
                deadline = time.monotonic() + 30.0
                while not client.metricsz()["node"]["busy_pids"]:
                    assert time.monotonic() < deadline, "job never dispatched"
                    time.sleep(0.005)
                time.sleep(delay)
                for pid in client.metricsz()["node"]["busy_pids"]:
                    os.kill(pid, signal.SIGKILL)
                record, result = wait_terminal(client, record["id"],
                                               timeout=120.0)
                assert record["state"] == "done" and result.ok
                # The cache entry (if any) must be whole, valid JSON that
                # round-trips to the same committed-instruction count.
                assert svc.cache.counters.get("corrupt_entries") == 0
                entry = svc.cache.get(cache_key(the_job))
                if entry is not None:
                    assert entry.stats.committed == result.stats.committed
            finally:
                svc.stop(drain=False)

        property_holds()


class TestHealthAndMetricsSurface:
    def test_process_pool_service_reports_fleet_state(self, tmp_path):
        svc, client = serving(cache_dir=tmp_path / "cache")
        try:
            health = client.wait_healthy()
            assert health["mode"] == "single"
            assert health["workers_alive"] == 1
            assert health["queue_depth"] == 0
            assert "recovered_jobs" in health and "queue_running" in health
            metrics = client.metricsz()
            node = metrics["node"]
            assert node["pool"]["alive"] == 1
            assert node["worker_pids"], "worker pids must be exported"
            assert metrics["queue"]["pending"] == 0
            sched = metrics["scheduler"]
            assert "rate_limited" in sched and "quarantined" in sched
            assert metrics["cache"]["evict_race"] == 0
        finally:
            svc.stop(drain=False)
