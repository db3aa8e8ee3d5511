"""End-to-end tests for simulation-as-a-service (repro.service).

The acceptance demos live here: two identical submissions simulate once
(single-flight), a server restart followed by the same submission is a
warm-cache hit with no re-simulation, and a drain shutdown under load
completes every accepted job or leaves it queued for the next start.
Everything goes through :class:`ReproService` and its HTTP API.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import CountingRunner, GateRunner
from repro.config import MEDIUM
from repro.service import (
    ReproService,
    ResultCache,
    SchedulerClosed,
    ServiceClient,
    ServiceError,
    cache_key,
    job_from_dict,
    job_to_dict,
)
from repro.sim.harness import SweepJob
from repro.sim.results import SimResult
from repro.sim.simulator import simulate

N = 2500


def job(workload="exchange2", policy="age", **kwargs):
    return SweepJob(workload, policy, MEDIUM, N, **kwargs)


def spec(policy="age", **kwargs):
    return {"workload": "exchange2", "policy": policy,
            "num_instructions": N, **kwargs}


def key_of(policy="age"):
    return job(policy=policy).key


@pytest.fixture
def gated(tmp_path):
    """A one-worker service whose first job blocks until released."""
    services = []

    def make(**kwargs):
        runner = GateRunner(tmp_path / "gate")
        kwargs.setdefault("workers", 1)
        svc = ReproService(job_runner=runner, **kwargs).start()
        services.append((svc, runner))
        client = ServiceClient(svc.url, max_retries=0)
        client.wait_healthy()
        return svc, runner, client

    yield make
    for svc, runner in services:
        runner.release()
        svc.stop(drain=False)


class TestJobWireFormat:
    def test_round_trip(self):
        original = job(seed=7, max_cycles=90_000)
        rebuilt = job_from_dict(json.loads(json.dumps(job_to_dict(original))))
        assert rebuilt == original

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            job_from_dict({"workload": "gcc", "policy": "age"})

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown IQ policy"):
            job_from_dict({"workload": "xz", "policy": "lifo"})

    def test_unknown_config_rejected(self):
        with pytest.raises(ValueError, match="unknown processor config"):
            job_from_dict({"workload": "xz", "policy": "age",
                           "config": "xlarge"})

    def test_non_integer_budget_rejected(self):
        with pytest.raises(ValueError, match="num_instructions"):
            job_from_dict({"workload": "xz", "policy": "age",
                           "num_instructions": "many"})


class TestSchedulerCore:
    def test_result_matches_direct_simulation(self, tmp_path):
        svc = ReproService(cache_dir=tmp_path, workers=1).start()
        try:
            client = ServiceClient(svc.url)
            record = client.submit(**spec())
            result = client.wait_result(record["id"], timeout=120)
            direct = simulate("exchange2", "age", num_instructions=N)
            assert isinstance(result, SimResult)
            assert result.ipc == direct.ipc
            assert result.commit_digest == direct.commit_digest
        finally:
            svc.stop()

    def test_fresh_job_costs_one_cache_read(self, tmp_path):
        """Admission is the only cache read; the node only writes."""
        svc = ReproService(cache_dir=tmp_path, workers=1).start()
        try:
            client = ServiceClient(svc.url)
            record = client.submit(**spec())
            assert client.wait_result(record["id"], timeout=120).ok
            cache = client.metricsz()["cache"]
            assert cache["misses"] == 1
            assert cache["hits"] == 0 and cache["stores"] == 1
        finally:
            svc.stop()

    def test_single_flight_identical_submissions_simulate_once(
        self, gated, tmp_path
    ):
        """Acceptance: two identical `submit` calls simulate once."""
        svc, runner, client = gated(cache_dir=tmp_path / "cache")
        first = client.submit(**spec())
        assert runner.wait_entered()
        second = client.submit(**spec())     # identical, while in flight
        assert not second["cached"]
        runner.release()
        result_a = client.wait_result(first["id"], timeout=120)
        result_b = client.wait_result(second["id"], timeout=120)
        assert result_a.to_dict() == result_b.to_dict()
        assert result_a.ok
        assert len(runner.calls) == 1        # one simulation, ever
        assert client.status(second["id"])["deduped"]
        metrics = client.metricsz()["scheduler"]
        assert metrics["deduped"] == 1
        assert metrics["submitted"] == 2
        assert metrics["completed"] == 1

    def test_priority_orders_the_backlog(self, gated):
        svc, runner, client = gated()
        blocker = client.submit(**spec())
        assert runner.wait_entered()
        low = client.submit(**spec(policy="shift"), priority=0)
        high = client.submit(**spec(policy="swque"), priority=10)
        runner.release()
        client.wait_result(low["id"], timeout=120)
        client.wait_result(high["id"], timeout=120)
        # The high-priority cell ran before the earlier-submitted low one.
        assert runner.calls[1] == key_of("swque")
        assert runner.calls[2] == key_of("shift")
        assert client.status(blocker["id"])["state"] == "done"

    def test_backpressure_rejects_when_backlog_full(self, gated):
        svc, runner, client = gated(max_backlog=2)
        client.submit(**spec())              # occupies the worker
        assert runner.wait_entered()
        # Priority > 0 bypasses the shed watermark, so these two hit
        # the hard backlog bound itself.
        client.submit(**spec(policy="shift"), priority=1)
        client.submit(**spec(policy="swque"), priority=1)
        with pytest.raises(ServiceError, match="backlog full") as excinfo:
            client.submit(**spec(policy="circ"), priority=1)
        assert excinfo.value.status == 429
        assert client.metricsz()["scheduler"]["rejected_backlog"] == 1

    def test_load_shedding_rejects_low_priority_past_watermark(self, gated):
        svc, runner, client = gated(max_backlog=4)
        client.submit(**spec())              # occupies the worker
        assert runner.wait_entered()
        client.submit(**spec(policy="shift"))
        client.submit(**spec(policy="swque"))
        client.submit(**spec(policy="circ-pc"))
        # 3 queued >= 0.75 * 4: priority-0 work is shed...
        with pytest.raises(ServiceError, match="load shedding"):
            client.submit(**spec(policy="circ"))
        # ...but urgent work is still admitted.
        urgent = client.submit(**spec(policy="circ"), priority=5)
        assert urgent["state"] == "queued"
        assert client.metricsz()["scheduler"]["shed"] == 1

    def test_submit_after_shutdown_is_rejected(self):
        svc = ReproService(workers=1)
        svc.stop()
        with pytest.raises(SchedulerClosed):
            svc.admit(spec())

    def test_unknown_job_id(self):
        svc = ReproService(workers=1).start()
        try:
            with pytest.raises(ServiceError) as excinfo:
                ServiceClient(svc.url).status("j999999")
            assert excinfo.value.status == 404
        finally:
            svc.stop()

    def test_harness_failure_becomes_failed_record(self):
        # A diverging cell: the harness reports it as a FailedResult.
        svc = ReproService(workers=1).start()
        try:
            client = ServiceClient(svc.url)
            record = client.submit(**spec(max_cycles=300))
            result = client.wait_result(record["id"], timeout=120)
            assert not result.ok
            assert result.error_type == "SimulationDiverged"
            assert client.status(record["id"])["state"] == "failed"
            assert client.metricsz()["scheduler"]["failed"] == 1
        finally:
            svc.stop()

    def test_diverging_job_is_simulated_once(self, tmp_path):
        # Deterministic: a re-run would diverge again, so none is made.
        runner = CountingRunner(tmp_path / "runs")
        svc = ReproService(workers=1, job_runner=runner).start()
        try:
            client = ServiceClient(svc.url)
            record = client.submit(**spec(max_cycles=300))
            result = client.wait_result(record["id"], timeout=120)
            assert result.error_type == "SimulationDiverged"
            assert result.attempts == 1
            assert len(runner.calls) == 1
        finally:
            svc.stop()


class TestConcurrentAdmission:
    def test_concurrent_submissions_settle_once_each(self, tmp_path):
        """HTTP threads and the local node share one queue handle.  With
        more client threads than cores and a short switch interval,
        every submission gets its own id and exactly one envelope, and
        each distinct spec is simulated once."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        svc = ReproService(cache_dir=tmp_path, workers=2).start()
        try:
            def client_thread(index):
                client = ServiceClient(svc.url)
                ids = [client.submit(**spec(("age", "swque")[(index + k) % 2]))
                       ["id"] for k in range(4)]
                return [(job_id, client.wait_result(job_id, timeout=120).ok)
                        for job_id in ids]

            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(client_thread, i) for i in range(6)]
                answers = [a for f in futures for a in f.result(timeout=300)]
            ids = [job_id for job_id, _ in answers]
            assert all(ok for _, ok in answers)
            assert len(set(ids)) == len(ids) == 24
            envelopes = list((tmp_path / "queue" / "results").glob("*.json"))
            assert sorted(e.stem for e in envelopes) == sorted(ids)
            metrics = ServiceClient(svc.url).metricsz()["scheduler"]
            assert metrics["submitted"] == 24
            assert metrics["completed"] == 2
        finally:
            sys.setswitchinterval(interval)
            svc.stop()


    def test_token_converges_on_a_cache_hit(self, tmp_path):
        """Retried POSTs of one token get the first post's job id when
        the job is a cache hit: concurrent posts on one frontend, and a
        retry on another frontend over the same queue and cache."""
        cache_dir, queue_dir = tmp_path / "cache", tmp_path / "queue"
        ResultCache(cache_dir).put(cache_key(job()), simulate(
            "exchange2", "age", MEDIUM, num_instructions=N))
        first = ReproService(cache_dir=cache_dir, queue_dir=queue_dir)
        second = ReproService(cache_dir=cache_dir, queue_dir=queue_dir)
        try:
            payload = dict(spec(), token="retry-me")
            with ThreadPoolExecutor(max_workers=4) as pool:
                records = list(pool.map(
                    lambda _: first.admit(dict(payload)), range(8)))
            assert records[0]["cached"]
            assert {record["id"] for record in records} == {records[0]["id"]}
            assert second.admit(dict(payload))["id"] == records[0]["id"]
            assert first.jobs.get("cache_hits") == 1
        finally:
            first.stop()
            second.stop()


    def test_fresh_tokened_admission_lists_no_directory(
        self, tmp_path, monkeypatch
    ):
        """A new token is checked with two ``stat``s of its id, not by
        scanning the queue."""
        cache_dir = tmp_path / "cache"
        ResultCache(cache_dir).put(cache_key(job()), simulate(
            "exchange2", "age", MEDIUM, num_instructions=N))
        svc = ReproService(cache_dir=cache_dir, queue_dir=tmp_path / "queue")
        try:
            listed = []
            scandir = os.scandir
            monkeypatch.setattr(os, "scandir", lambda *args: (
                listed.append(args) or scandir(*args)))
            record = svc.admit(dict(spec(), token="fresh"))
            monkeypatch.undo()
            assert record["cached"] and record["state"] == "done"
            assert listed == []
        finally:
            svc.stop()


class TestDrainAndSpill:
    def test_drain_completes_every_accepted_job(self, tmp_path):
        """Acceptance: drain shutdown under load completes accepted work."""
        svc = ReproService(cache_dir=tmp_path, workers=2)
        records = [
            svc.admit(spec(policy=policy))
            for policy in ("shift", "age", "circ", "swque")
        ]
        outcome = svc.stop(drain=True)
        assert outcome == {"drained": True, "requeued": 0}
        for record in records:
            status, payload = svc.result_payload(record["id"], wait=False,
                                                 timeout=0)
            assert status == 200 and payload["state"] == "done"
            assert payload["result"]["stats"]["committed"] > 0

    def test_drain_timeout_spills_queued_jobs_as_retryable(self, tmp_path):
        """Acceptance: what drain cannot finish stays queued, not lost."""
        cache_dir = tmp_path / "cache"
        runner = GateRunner(tmp_path / "gate")
        svc = ReproService(cache_dir=cache_dir, workers=1, job_runner=runner)
        running = svc.admit(spec())
        assert runner.wait_entered()
        queued = [
            svc.admit(spec(policy="shift", priority=3)),
            svc.admit(spec(policy="swque")),
        ]
        outcome = {}
        shutdown = threading.Thread(
            target=lambda: outcome.update(svc.stop(drain=True, timeout=0.2))
        )
        shutdown.start()
        time.sleep(0.8)                   # let the drain window expire
        runner.release()
        shutdown.join(timeout=120)
        assert not shutdown.is_alive()
        # The gated job's lease was released, not charged: all three
        # jobs wait in the durable queue as retryable.
        assert outcome == {"drained": False, "requeued": 3}
        for record in [running] + queued:
            assert svc.status_payload(record["id"])["state"] == "queued"

        # A fresh service on the same cache dir runs them.
        restarted = ReproService(cache_dir=cache_dir, workers=1).start()
        try:
            client = ServiceClient(restarted.url)
            assert client.healthz()["recovered_jobs"] == 3
            for record in [running] + queued:
                assert client.wait_result(record["id"], timeout=120).ok
                status = client.status(record["id"])
                assert status["crashes"] == 0
            assert {client.status(r["id"])["priority"] for r in queued} == {
                3, 0}
        finally:
            restarted.stop()


@pytest.fixture
def service(tmp_path):
    """A running service on an ephemeral port, drained at teardown."""
    svc = ReproService(cache_dir=tmp_path / "cache", workers=2).start()
    try:
        yield svc
    finally:
        svc.stop(drain=True, timeout=30)


class TestHttpApi:
    def test_healthz(self, service):
        health = ServiceClient(service.url).wait_healthy()
        assert health["status"] == "ok"
        assert health["version"]

    def test_submit_status_result_flow(self, service):
        client = ServiceClient(service.url)
        record = client.submit(workload="exchange2", policy="age",
                               num_instructions=N)
        assert record["state"] in ("queued", "running", "done")
        result = client.wait_result(record["id"])
        assert result.ok and result.ipc > 0
        status = client.status(record["id"])
        assert status["state"] == "done"
        assert "result" not in status     # status stays light

    def test_second_identical_submission_is_a_cache_hit(self, service):
        client = ServiceClient(service.url)
        first = client.submit(workload="exchange2", policy="swque",
                              num_instructions=N)
        client.wait_result(first["id"])
        second = client.submit(workload="exchange2", policy="swque",
                               num_instructions=N)
        assert second["state"] == "done" and second["cached"]
        metrics = client.metricsz()
        assert metrics["cache"]["hits"] >= 1
        assert metrics["scheduler"]["cache_hits"] >= 1

    def test_batch_admits_independently(self, service):
        client = ServiceClient(service.url)
        records = client.batch([
            {"workload": "exchange2", "policy": "age",
             "num_instructions": N},
            {"workload": "gcc", "policy": "age"},          # unknown: 400
            {"workload": "exchange2", "policy": "shift",
             "num_instructions": N},
        ])
        assert "id" in records[0] and "id" in records[2]
        assert records[1]["status"] == 400
        assert "unknown workload" in records[1]["error"]
        for admitted in (records[0], records[2]):
            assert ServiceClient(service.url).wait_result(admitted["id"]).ok

    def test_pending_result_is_202_without_wait(self, gated):
        svc, runner, client = gated(cache_dir=None)
        record = client.submit(workload="exchange2", policy="age",
                               num_instructions=N)
        assert runner.wait_entered()
        pending = client.result(record["id"])     # no wait: still running
        assert pending["state"] == "running"
        assert "result" not in pending

    def test_api_errors(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError) as excinfo:
            client.submit(workload="gcc", policy="age")
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.status("j999999")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client._request("/nowhere")
        assert excinfo.value.status == 404

    def test_backlog_full_maps_to_429(self, gated):
        svc, runner, client = gated(cache_dir=None, max_backlog=1)
        client.submit(workload="exchange2", policy="age",
                      num_instructions=N)
        assert runner.wait_entered()
        client.submit(workload="exchange2", policy="shift",
                      num_instructions=N)
        with pytest.raises(ServiceError) as excinfo:
            client.submit(workload="exchange2", policy="swque",
                          num_instructions=N)
        assert excinfo.value.status == 429

    def test_metricsz_exports_all_three_counter_groups(self, service):
        metrics = ServiceClient(service.url).metricsz()
        assert metrics["server"]["requests"] >= 1
        for key in ("submitted", "completed", "deduped", "queued",
                    "rate_limited", "workers"):
            assert key in metrics["scheduler"]
        for key in ("hits", "misses", "stores", "evictions", "entries",
                    "bytes"):
            assert key in metrics["cache"]


class TestWarmRestart:
    def test_restart_serves_from_cache_without_resimulating(self, tmp_path):
        """Acceptance: restart + same submission = warm hit, no sim."""
        cache_dir = tmp_path / "cache"
        spec = dict(workload="exchange2", policy="swque", num_instructions=N)

        first_service = ReproService(cache_dir=cache_dir, workers=1).start()
        client = ServiceClient(first_service.url)
        client.wait_healthy()
        record = client.submit(**spec)
        original = client.wait_result(record["id"])
        first_service.stop(drain=True, timeout=60)

        # A fresh process, same cache directory.  The counting runner
        # proves no simulation happens: it is never invoked.
        runner = GateRunner(tmp_path / "gate")
        second_service = ReproService(
            cache_dir=cache_dir, workers=1, job_runner=runner
        ).start()
        try:
            client = ServiceClient(second_service.url)
            client.wait_healthy()
            rerun = client.submit(**spec)
            assert rerun["state"] == "done" and rerun["cached"]
            served = client.wait_result(rerun["id"])
            assert served.to_dict() == original.to_dict()
            assert runner.calls == []            # zero re-simulation
            assert client.metricsz()["cache"]["hits"] >= 1
        finally:
            second_service.stop(drain=True, timeout=30)
