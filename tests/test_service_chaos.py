"""Chaos tests for the fleet-grade service layer (ISSUE 6).

Every test here injects a real fault — SIGKILLed workers, SIGSTOPped
(hung) workers, torn write-ahead journals, failing cache backends — and
asserts the service's contract under it: an accepted job is either
completed with a valid result or reported as quarantined; it is never
silently lost, and the cache is never corrupted.

The process-pool runners below are plain module functions: the pool
forks its workers, so the runner (and any sentinel paths baked into a
``functools.partial``) crosses into the child by fork inheritance.
Kill-once semantics use sentinel *files* because in-memory flags reset
with every respawned worker.
"""

import itertools
import json
import os
import signal
import threading
import time
import warnings
from functools import partial

import pytest

from repro.config import get_config
from repro.service import (
    CircuitBreaker,
    JobJournal,
    JobScheduler,
    RateLimited,
    ResultCache,
    ServiceClient,
    ServiceError,
    TokenBucket,
    cache_key,
)
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


def wait_terminal(scheduler, job_id, timeout=60.0):
    result = scheduler.result(job_id, wait=True, timeout=timeout)
    record = scheduler.record(job_id)
    assert record.terminal, f"job {job_id} still {record.state!r}"
    return record, result


class TestWorkerCrashRecovery:
    def test_sigkilled_worker_is_restarted_and_job_requeued(self, tmp_path):
        runner = partial(crash_once_runner, str(tmp_path / "crashed"))
        scheduler = JobScheduler(
            workers=1, job_runner=runner, pool="process", max_job_crashes=2
        )
        try:
            record = scheduler.submit(job())
            record, result = wait_terminal(scheduler, record.id)
            assert record.state == "done" and result.ok
            assert record.crashes == 1
            metrics = scheduler.metrics()
            assert metrics["requeued"] == 1
            assert metrics["worker_pool"]["worker_crashes"] == 1
            assert metrics["worker_pool"]["worker_restarts"] >= 1
            assert metrics["worker_pool"]["alive"] == 1
        finally:
            scheduler.shutdown(drain=False)

    def test_poison_job_is_quarantined_while_others_complete(self, tmp_path):
        scheduler = JobScheduler(
            workers=1, job_runner=crash_policy_runner, pool="process",
            max_job_crashes=1,
        )
        try:
            poison = scheduler.submit(job(policy="circ"))
            healthy = scheduler.submit(job(policy="age"))
            poison_record, poison_result = wait_terminal(
                scheduler, poison.id, timeout=90.0
            )
            assert poison_record.state == "quarantined"
            assert poison_result is not None and not poison_result.ok
            assert poison_result.error_type == "PoisonJob"
            assert poison_record.crashes == 2  # max_job_crashes + 1 losses
            healthy_record, healthy_result = wait_terminal(
                scheduler, healthy.id, timeout=90.0
            )
            assert healthy_record.state == "done" and healthy_result.ok
            assert scheduler.metrics()["quarantined"] == 1
        finally:
            scheduler.shutdown(drain=False)

    def test_hung_worker_is_detected_killed_and_replaced(self, tmp_path):
        runner = partial(hang_once_runner, str(tmp_path / "hung"))
        scheduler = JobScheduler(
            workers=1, job_runner=runner, pool="process",
            heartbeat_interval=0.05, heartbeat_timeout=1.0,
        )
        try:
            record = scheduler.submit(job())
            record, result = wait_terminal(scheduler, record.id, timeout=90.0)
            assert record.state == "done" and result.ok
            assert scheduler.metrics()["worker_pool"]["worker_hangs"] == 1
        finally:
            scheduler.shutdown(drain=False)

    def test_job_over_wallclock_budget_times_out_then_quarantines(self):
        scheduler = JobScheduler(
            workers=1, job_runner=slow_runner, pool="process",
            timeout=0.5, max_job_crashes=0,
        )
        try:
            record = scheduler.submit(job())
            record, result = wait_terminal(scheduler, record.id, timeout=60.0)
            assert record.state == "quarantined"
            assert "JobTimeout" in result.error_message
            assert scheduler.metrics()["worker_pool"]["job_timeouts"] == 1
        finally:
            scheduler.shutdown(drain=False)

    def test_shutdown_spills_inflight_jobs_as_retryable(self, tmp_path):
        wal = tmp_path / "jobs.wal"
        scheduler = JobScheduler(
            workers=1, job_runner=slow_runner, pool="process", journal=wal
        )
        record = scheduler.submit(job())
        deadline = time.monotonic() + 30.0
        while scheduler.record(record.id).state != "running":
            assert time.monotonic() < deadline, "job never started"
            time.sleep(0.02)
        outcome = scheduler.shutdown(drain=True, timeout=0.3)
        assert not outcome["drained"]
        assert outcome["spilled"] == 1
        assert scheduler.record(record.id).state == "retryable"
        # The WAL still holds the accept: a fresh scheduler finishes it.
        fresh = JobScheduler(workers=1, journal=JobJournal(wal), pool="thread")
        try:
            summary = fresh.recover_journal()
            assert summary["recovered"] == 1
            assert fresh.drain(timeout=90.0)
            assert fresh.metrics()["completed"] == 1
            assert fresh.journal.pending_count() == 0
        finally:
            fresh.shutdown()


class TestJournalRecovery:
    def _accept(self, journal, job_id, priority=0, policy="age"):
        journal.record_accept(
            job_id,
            {
                "workload": "exchange2",
                "policy": policy,
                "config": "medium",
                "num_instructions": N,
                "seed": None,
                "max_cycles": None,
                "warmup_instructions": None,
            },
            priority=priority,
        )

    def test_torn_trailing_record_recovers_with_warning(self, tmp_path):
        wal = tmp_path / "jobs.wal"
        journal = JobJournal(wal)
        self._accept(journal, "j1")
        self._accept(journal, "j2")
        # Simulate a hard crash mid-append: truncate inside the last line.
        raw = wal.read_bytes()
        wal.write_bytes(raw[: len(raw) - 17])
        replay = JobJournal(wal)
        with pytest.warns(RuntimeWarning, match="torn/corrupt"):
            pending, quarantined, torn = replay.recover()
        assert torn == 1
        assert [p["id"] for p in pending] == ["j1"]
        # Post-recovery compaction rewrote a clean journal.
        again = JobJournal(wal)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pending, _, torn = again.recover()
        assert torn == 0 and len(pending) == 1

    def test_hard_crash_recovery_reruns_every_accepted_job(self, tmp_path):
        wal = tmp_path / "jobs.wal"
        crashed = JobJournal(wal)
        for i, done in [(1, True), (2, False), (3, False)]:
            self._accept(crashed, f"j{i}", priority=i)
            if done:
                crashed.record_done(f"j{i}")
        # "Crash": the journal object is simply abandoned, nothing
        # drained or compacted.  A fresh scheduler must pick up j2+j3.
        scheduler = JobScheduler(workers=2, journal=JobJournal(wal),
                                 pool="thread")
        try:
            summary = scheduler.recover_journal()
            assert summary["recovered"] == 2
            assert summary["torn"] == 0
            assert scheduler.drain(timeout=120.0)
            assert scheduler.metrics()["completed"] >= 1
            assert scheduler.journal.pending_count() == 0
        finally:
            scheduler.shutdown()

    def test_accept_written_with_the_old_fast_flag_recovers_and_runs(
        self, tmp_path
    ):
        # Earlier builds wrote the removed engine switch into every job
        # dict (``"fast": false``); such a journal must still replay.
        wal = tmp_path / "jobs.wal"
        wal.write_text(
            '{"op": "accept", "id": "jold-000001", "job": {"workload": '
            '"exchange2", "policy": "age", "config": "medium", '
            '"num_instructions": 2500, "seed": null, "max_cycles": null, '
            '"warmup_instructions": null, "fast": false, "priority": 0, '
            '"tenant": "default"}, "priority": 0, "tenant": "default"}\n'
        )
        scheduler = JobScheduler(workers=1, journal=JobJournal(wal),
                                 pool="thread")
        try:
            summary = scheduler.recover_journal()
            assert summary == {"recovered": 1, "quarantined": 0,
                               "torn": 0, "skipped": 0}
            assert scheduler.drain(timeout=120.0)
            assert scheduler.metrics()["completed"] == 1
        finally:
            scheduler.shutdown()

    def test_quarantine_tombstone_is_not_resurrected(self, tmp_path):
        wal = tmp_path / "jobs.wal"
        journal = JobJournal(wal)
        self._accept(journal, "j1")
        journal.record_quarantine("j1", "WorkerCrashed: poison")
        pending, quarantined, torn = JobJournal(wal).recover()
        assert pending == []
        assert [q["id"] for q in quarantined] == ["j1"]

    def test_recovery_survives_legacy_id_collision(self, tmp_path):
        """Regression: WAL accept ids from the dead process must never
        collide with the restarted scheduler's fresh ids.  A collision
        let ``record_done`` on the *old* accept tombstone the freshly
        re-admitted job, un-journaling it — a second crash then lost it
        permanently."""
        wal = tmp_path / "jobs.wal"
        crashed = JobJournal(wal)
        # The ids a naive per-process counter would regenerate first.
        self._accept(crashed, "j000001")
        self._accept(crashed, "j000002", policy="shift")

        release = threading.Event()

        def gate_runner(sweep_job, _trace_cache=None):
            assert release.wait(timeout=60), "gate never released"
            return _run_job(sweep_job, _trace_cache)

        scheduler = JobScheduler(workers=1, journal=JobJournal(wal),
                                 job_runner=gate_runner, pool="thread")
        try:
            summary = scheduler.recover_journal()
            assert summary["recovered"] == 2
            # Both re-admitted jobs are still journaled while unfinished:
            # a crash right now must be able to recover them again.
            assert scheduler.journal.pending_count() == 2
            release.set()
            assert scheduler.drain(timeout=120.0)
            assert scheduler.journal.pending_count() == 0
        finally:
            release.set()
            scheduler.shutdown()

    def test_quarantine_history_survives_compaction_and_restart(self, tmp_path):
        wal = tmp_path / "jobs.wal"
        journal = JobJournal(wal)
        self._accept(journal, "j1")
        journal.record_quarantine("j1", "WorkerCrashed: poison")
        journal.compact()
        pending, quarantined, torn = JobJournal(wal).recover()
        assert pending == [] and torn == 0
        assert [q["id"] for q in quarantined] == ["j1"]
        # The reason survives too: operators inspect poison jobs after a
        # restart, and recover() itself compacts — so round-trip again.
        records = [json.loads(line) for line in
                   wal.read_text().splitlines() if line.strip()]
        tombs = [r for r in records if r["op"] == "quarantine"]
        assert tombs and tombs[0]["reason"] == "WorkerCrashed: poison"

    def test_compaction_bounds_journal_growth(self, tmp_path):
        wal = tmp_path / "jobs.wal"
        journal = JobJournal(wal, compact_interval=10)
        for i in range(50):
            self._accept(journal, f"j{i}")
            journal.record_done(f"j{i}")
        assert journal.counters.get("compactions") >= 4
        assert journal.pending_count() == 0
        assert wal.read_bytes() == b""


class TestCircuitBreaker:
    def test_state_machine(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=2, cooldown=5.0,
                                 clock=lambda: clock[0])
        assert breaker.state == "closed" and breaker.allow()
        breaker.failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.failure()  # threshold: trips open
        assert breaker.state == "open" and not breaker.allow()
        clock[0] = 5.0  # cooldown elapsed: one probe allowed
        assert breaker.allow()
        assert breaker.state == "half_open"
        assert not breaker.allow()  # probe outstanding
        breaker.failure()  # probe failed: re-open
        assert breaker.state == "open"
        clock[0] = 10.0
        assert breaker.allow()
        breaker.success()
        assert breaker.state == "closed"
        assert breaker.stats()["trips"] == 2

    def test_failing_cache_degrades_to_compute_and_return(self, tmp_path):
        class FailingCache(ResultCache):
            broken = True

            def get(self, key):
                if self.broken:
                    raise OSError("disk on fire")
                return super().get(key)

            def put(self, key, result, job=None):
                if self.broken:
                    raise OSError("disk on fire")
                return super().put(key, result, job)

        cache = FailingCache(tmp_path)
        scheduler = JobScheduler(
            cache=cache, workers=1, job_runner=_run_job, pool="thread",
            breaker_threshold=2, breaker_cooldown=0.05,
        )
        try:
            # Each submit costs one failing get; each settle one failing
            # put — after two failures the breaker is open and cache
            # access is skipped entirely, yet results still flow.
            first = scheduler.submit(job(policy="age"))
            _, result = wait_terminal(scheduler, first.id)
            assert result.ok
            second = scheduler.submit(job(policy="shift"))
            _, result = wait_terminal(scheduler, second.id)
            assert result.ok
            metrics = scheduler.metrics()
            assert metrics["cache_errors"] >= 2
            assert metrics["breaker"]["state"] == "open"
            assert metrics["cache_bypass"] >= 1
            assert len(cache) == 0  # nothing persisted while broken
            # Backend heals; after the cooldown the half-open probe
            # succeeds and caching resumes.
            cache.broken = False
            time.sleep(0.06)
            third = scheduler.submit(job(policy="swque"))
            _, result = wait_terminal(scheduler, third.id)
            assert result.ok
            assert scheduler.cache_breaker.state == "closed"
            assert len(cache) == 1
        finally:
            scheduler.shutdown()


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
        scheduler = JobScheduler(
            workers=1, job_runner=_run_job, pool="thread",
            quota_rate=0.001, quota_burst=1.0,
        )
        try:
            scheduler.submit(job(policy="age"), tenant="alice")
            with pytest.raises(RateLimited) as excinfo:
                scheduler.submit(job(policy="shift"), tenant="alice")
            assert excinfo.value.retry_after >= 1.0
            # A different tenant has its own bucket.
            scheduler.submit(job(policy="shift"), tenant="bob")
            tenants = scheduler.metrics()["tenants"]
            assert tenants["alice"]["rate_limited"] == 1
            assert tenants["bob"]["rate_limited"] == 0
        finally:
            scheduler.shutdown()


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
            cache = ResultCache(cache_dir)
            scheduler = JobScheduler(
                cache=cache, workers=1, pool="process", max_job_crashes=3
            )
            try:
                the_job = SweepJob("exchange2", "age", MEDIUM, 40_000,
                                   seed=seed)
                record = scheduler.submit(the_job)
                # SIGKILL the worker once it picks the job up, after an
                # arbitrary slice of the job's runtime.
                deadline = time.monotonic() + 30.0
                while not scheduler._pool.busy_pids():
                    assert time.monotonic() < deadline, "job never dispatched"
                    time.sleep(0.005)
                time.sleep(delay)
                for pid in scheduler._pool.busy_pids():
                    os.kill(pid, signal.SIGKILL)
                record, result = wait_terminal(scheduler, record.id,
                                               timeout=120.0)
                assert record.state == "done" and result.ok
                # The cache entry (if any) must be whole, valid JSON that
                # round-trips to the same committed-instruction count.
                assert cache.counters.get("corrupt_entries") == 0
                entry = cache.get(cache_key(the_job))
                if entry is not None:
                    assert entry.stats.committed == result.stats.committed
            finally:
                scheduler.shutdown(drain=False)

        property_holds()


class TestHealthAndMetricsSurface:
    def test_process_pool_service_reports_fleet_state(self, tmp_path):
        from repro.service import ReproService

        svc = ReproService(cache_dir=tmp_path / "cache", workers=1).start()
        try:
            client = ServiceClient(svc.url)
            health = client.wait_healthy()
            assert health["pool"] == "process"
            assert health["workers_alive"] == 1
            assert health["breaker"] == "closed"
            assert health["wal_pending"] == 0
            assert "wal_bytes" in health and "queue_depth" in health
            metrics = client.metricsz()
            sched = metrics["scheduler"]
            assert sched["worker_pool"]["alive"] == 1
            assert sched["worker_pids"], "worker pids must be exported"
            assert sched["wal"]["pending"] == 0
            assert sched["breaker"]["state"] == "closed"
            assert "rate_limited" in sched and "quarantined" in sched
            assert metrics["cache"]["evict_race"] == 0
        finally:
            svc.stop(drain=False)
