"""Unit and property tests for the distributed job queue (ISSUE 7).

Everything here runs on a fake, manually-advanced clock shared by every
queue handle, so lease expiry, reclaim, and fencing are deterministic —
no sleeps, no wall-clock flakiness.  The hypothesis property at the
bottom drives arbitrary interleavings of claim / stall / reclaim /
late-commit across three simulated nodes and asserts the two invariants
the whole design exists for: no accepted job is ever lost, and no job
ever commits twice.
"""

from __future__ import annotations

import json
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service import queue as queue_module
from repro.service.queue import (
    Claim,
    DurableQueue,
    FencedWrite,
    token_job_id,
)

JOB = {"workload": "exchange2", "policy": "age", "config": "medium",
       "num_instructions": 2500}


class FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def clock():
    return FakeClock()


def make_queue(root, clock, node_id, **kwargs):
    kwargs.setdefault("lease_seconds", 10.0)
    kwargs.setdefault("fsync", False)
    return DurableQueue(root, node_id=node_id, clock=clock, **kwargs)


class TestIntakeAndClaim:
    def test_append_claim_commit_round_trip(self, tmp_path, clock):
        fe = make_queue(tmp_path, clock, "fe")
        worker = make_queue(tmp_path, clock, "w1")
        entry = fe.append(dict(JOB))
        assert fe.lookup(entry.id)["state"] == "queued"
        got = worker.claim_next()
        assert got is not None
        claimed, claim = got
        assert claimed.id == entry.id
        assert claim.epoch == 1
        assert fe.lookup(entry.id)["state"] == "running"
        assert worker.commit(claim, {"ok": 1}) == "committed"
        record = fe.lookup(entry.id)
        assert record["state"] == "done"
        assert fe.read_result(entry.id)["result"] == {"ok": 1}

    def test_priority_order_then_fifo(self, tmp_path, clock):
        fe = make_queue(tmp_path, clock, "fe")
        low = fe.append(dict(JOB), priority=0)
        clock.advance(0.1)
        high = fe.append(dict(JOB), priority=5)
        clock.advance(0.1)
        low2 = fe.append(dict(JOB), priority=0)
        worker = make_queue(tmp_path, clock, "w1")
        order = [worker.claim_next()[0].id for _ in range(3)]
        assert order == [high.id, low.id, low2.id]

    def test_claim_is_exclusive_across_nodes(self, tmp_path, clock):
        fe = make_queue(tmp_path, clock, "fe")
        fe.append(dict(JOB))
        w1 = make_queue(tmp_path, clock, "w1")
        w2 = make_queue(tmp_path, clock, "w2")
        assert w1.claim_next() is not None
        assert w2.claim_next() is None

    def test_empty_queue_claims_nothing(self, tmp_path, clock):
        worker = make_queue(tmp_path, clock, "w1")
        assert worker.claim_next() is None


class TestLeasesAndFencing:
    def test_renew_extends_the_lease(self, tmp_path, clock):
        fe = make_queue(tmp_path, clock, "fe")
        fe.append(dict(JOB))
        worker = make_queue(tmp_path, clock, "w1")
        _, claim = worker.claim_next()
        clock.advance(8.0)
        assert worker.renew(claim)
        clock.advance(8.0)  # 16s total: expired without the renewal
        other = make_queue(tmp_path, clock, "w2")
        assert other.claim_next() is None  # still leased

    def test_expired_lease_is_reclaimed_with_crash_charge(self, tmp_path, clock):
        fe = make_queue(tmp_path, clock, "fe")
        entry = fe.append(dict(JOB))
        w1 = make_queue(tmp_path, clock, "w1")
        _, claim1 = w1.claim_next()
        clock.advance(11.0)  # past the 10s lease: w1 is presumed dead
        w2 = make_queue(tmp_path, clock, "w2")
        got = w2.claim_next()
        assert got is not None
        entry2, claim2 = got
        assert entry2.id == entry.id
        assert claim2.epoch == 2
        assert claim2.crashes == 1
        assert w2.counters.snapshot()["reclaims"] == 1

    def test_graceful_release_requeues_without_crash_charge(self, tmp_path, clock):
        fe = make_queue(tmp_path, clock, "fe")
        fe.append(dict(JOB))
        w1 = make_queue(tmp_path, clock, "w1")
        _, claim1 = w1.claim_next()
        w1.release(claim1)  # drain: not the job's fault
        w2 = make_queue(tmp_path, clock, "w2")
        _, claim2 = w2.claim_next()
        assert claim2.epoch == 2
        assert claim2.crashes == 0

    def test_zombie_commit_is_fenced_and_counted(self, tmp_path, clock):
        """The SIGSTOP-zombie protocol in miniature: w1's lease expires
        while it is stalled, w2 reclaims at a higher epoch, and w1's
        late write must be rejected — not merged, not duplicated."""
        fe = make_queue(tmp_path, clock, "fe")
        entry = fe.append(dict(JOB))
        w1 = make_queue(tmp_path, clock, "w1")
        _, zombie_claim = w1.claim_next()
        clock.advance(11.0)
        w2 = make_queue(tmp_path, clock, "w2")
        _, claim2 = w2.claim_next()
        with pytest.raises(FencedWrite):
            w1.commit(zombie_claim, {"stale": True})
        assert w1.counters.snapshot()["fenced_rejections"] == 1
        assert w2.commit(claim2, {"fresh": True}) == "committed"
        assert fe.read_result(entry.id)["result"] == {"fresh": True}

    def test_renewal_discovers_lost_lease(self, tmp_path, clock):
        fe = make_queue(tmp_path, clock, "fe")
        fe.append(dict(JOB))
        w1 = make_queue(tmp_path, clock, "w1")
        _, claim1 = w1.claim_next()
        clock.advance(11.0)
        w2 = make_queue(tmp_path, clock, "w2")
        w2.claim_next()
        assert not w1.renew(claim1)
        assert claim1.lost
        assert w1.counters.snapshot()["lease_lost"] == 1
        with pytest.raises(FencedWrite):
            w1.commit(claim1, {"stale": True})

    def test_commit_race_lands_exactly_one_result(self, tmp_path, clock):
        """Even if the fence check races (both holders see no higher
        epoch than their own), the exclusive result link arbitrates:
        exactly one envelope, the loser counts a duplicate."""
        fe = make_queue(tmp_path, clock, "fe")
        entry = fe.append(dict(JOB))
        w1 = make_queue(tmp_path, clock, "w1")
        _, claim = w1.claim_next()
        # Simulate the adversarial schedule: a copy of the claim commits
        # through a second handle that has not rescanned.
        w1_shadow = make_queue(tmp_path, clock, "w1")
        shadow = Claim(job_id=claim.job_id, epoch=claim.epoch, node="w1",
                       crashes=0, expires_at=claim.expires_at,
                       acquired_at=claim.acquired_at)
        assert w1.commit(claim, {"first": True}) == "committed"
        assert w1_shadow.commit(shadow, {"second": True}) == "duplicate"
        assert w1_shadow.counters.snapshot()["duplicate_commits"] == 1
        assert fe.read_result(entry.id)["result"] == {"first": True}


class TestPoisonAndSingleFlight:
    def test_poison_job_quarantines_fleet_wide(self, tmp_path, clock):
        fe = make_queue(tmp_path, clock, "fe")
        entry = fe.append(dict(JOB))
        # Three different nodes each claim and then "die" (lease expires).
        for index in range(3):
            worker = make_queue(tmp_path, clock, f"w{index}",
                                max_job_crashes=2)
            got = worker.claim_next()
            assert got is not None
            clock.advance(11.0)
        # crashes now exceed the budget: the next claimer quarantines.
        last = make_queue(tmp_path, clock, "w-final", max_job_crashes=2)
        assert last.claim_next() is None
        record = fe.lookup(entry.id)
        assert record["state"] == "quarantined"
        envelope = fe.read_result(entry.id)
        assert envelope["result"]["error_type"] == "PoisonJob"
        assert last.counters.snapshot()["quarantined"] == 1

    def test_duplicate_submission_single_flights_across_nodes(self, tmp_path, clock):
        fe1 = make_queue(tmp_path, clock, "fe1")
        fe2 = make_queue(tmp_path, clock, "fe2")
        first = fe1.append(dict(JOB), key="cache-key-A")
        clock.advance(0.1)
        twin = fe2.append(dict(JOB), key="cache-key-A")
        worker = make_queue(tmp_path, clock, "w1")
        entry, claim = worker.claim_next()
        assert entry.id == first.id
        # The twin is skipped while the primary holds a live claim.
        assert worker.claim_next() is None
        assert worker.counters.snapshot()["singleflight_skips"] >= 1
        worker.commit(claim, {"ok": 1})
        # After the primary commits, the twin settles by copy.
        assert worker.claim_next() is None
        record = fe2.lookup(twin.id)
        assert record["state"] == "done"
        assert record["deduped"]
        assert fe2.read_result(twin.id)["result"] == {"ok": 1}
        assert worker.counters.snapshot()["dedup_settles"] == 1

    def test_sweep_quarantines_without_a_claimant(self, tmp_path, clock):
        fe = make_queue(tmp_path, clock, "fe", max_job_crashes=0)
        entry = fe.append(dict(JOB))
        worker = make_queue(tmp_path, clock, "w1", max_job_crashes=0)
        worker.claim_next()
        clock.advance(11.0)
        outcome = fe.sweep()
        assert outcome["quarantined"] == 1
        assert fe.lookup(entry.id)["state"] == "quarantined"

    def test_sweep_gcs_settled_claims_after_grace(self, tmp_path, clock):
        fe = make_queue(tmp_path, clock, "fe")
        fe.append(dict(JOB))
        worker = make_queue(tmp_path, clock, "w1")
        _, claim = worker.claim_next()
        worker.commit(claim, {"ok": 1})
        assert len(list(worker.claims_dir.iterdir())) == 1
        assert worker.sweep(claim_gc_seconds=0.0)["claims_removed"] == 1
        assert len(list(worker.claims_dir.iterdir())) == 0


class TestIdempotencyTokens:
    def test_token_finds_job_across_frontends(self, tmp_path, clock):
        fe1 = make_queue(tmp_path, clock, "fe1")
        fe2 = make_queue(tmp_path, clock, "fe2")
        entry = fe1.append(dict(JOB), token="tok-1")
        assert entry.id == token_job_id("tok-1")
        assert fe2.admitted(entry.id)  # one stat of jobs/<id>.json
        assert fe2.lookup(entry.id)["state"] == "queued"
        assert not fe2.admitted(token_job_id("tok-unknown"))

    def test_one_token_admits_one_job_on_two_frontends(self, tmp_path, clock):
        fe1 = make_queue(tmp_path, clock, "fe1")
        fe2 = make_queue(tmp_path, clock, "fe2")
        first = fe1.append(dict(JOB), token="T")
        second = fe2.append(dict(JOB), token="T")
        assert second.id == first.id
        assert os.listdir(fe1.jobs_dir) == [f"{first.id}.json"]
        assert fe1.pending_count() == fe2.pending_count() == 1
        assert fe2.counters.get("appended") == 0
        assert fe2.counters.get("duplicate_commits") == 0
        # Racing posts of one new token on four handles: one job.
        handles = [make_queue(tmp_path, clock, f"fe{i}") for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                ids = list(pool.map(
                    lambda i: handles[i % 4].append(dict(JOB), token="U").id,
                    range(16), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert set(ids) == {token_job_id("U")}
        assert sum(h.counters.get("appended") for h in handles) == 1
        assert len(os.listdir(fe1.jobs_dir)) == 2

    def test_any_token_makes_a_filename(self, tmp_path, clock):
        fe = make_queue(tmp_path, clock, "fe")
        entry = fe.append(dict(JOB), token="../../etc/passwd \n\u00e9")
        assert entry.id.startswith("t") and len(entry.id) == 33
        assert (fe.jobs_dir / f"{entry.id}.json").exists()

    def test_tokened_cache_hit_settles_once(self, tmp_path, clock):
        fe1 = make_queue(tmp_path, clock, "fe1")
        fe2 = make_queue(tmp_path, clock, "fe2")
        job_id = fe1.settle_unclaimed(dict(JOB), {"ok": 1}, cached=True,
                                      token="T")
        assert fe2.settle_unclaimed(dict(JOB), {"ok": 2}, cached=True,
                                    token="T") == job_id
        assert fe2.read_result(job_id)["result"] == {"ok": 1}
        assert fe2.counters.get("duplicate_commits") == 0


class TestTornRecovery:
    def test_torn_claim_body_still_fences_by_filename(self, tmp_path, clock):
        fe = make_queue(tmp_path, clock, "fe")
        entry = fe.append(dict(JOB))
        w1 = make_queue(tmp_path, clock, "w1")
        _, claim1 = w1.claim_next()
        # Corrupt the claim body (crash mid-rewrite of a renewal).
        path = w1.claims_dir / f"{entry.id}.e1"
        path.write_bytes(b'{"job_id": "' + entry.id.encode() + b'", "ep')
        w2 = make_queue(tmp_path, clock, "w2")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = w2.claim_next()
        # Torn body reads as an expired lease — but the epoch in the
        # *filename* still fences: the reclaim is at epoch 2, never 1.
        assert got is not None
        assert got[1].epoch == 2
        assert w2.counters.snapshot()["torn_claims"] == 1
        assert any("torn/corrupt" in str(w.message) for w in caught)
        with pytest.raises(FencedWrite):
            w1.commit(claim1, {"stale": True})

    def test_corrupt_intake_file_counted_once(self, tmp_path, clock):
        fe = make_queue(tmp_path, clock, "fe")
        (fe.jobs_dir / "jbad.json").write_text("not json at all\n")
        (fe.jobs_dir / "jx.json").write_text(
            json.dumps({"id": "jx", "job": dict(JOB)}) + "\n")
        reader = make_queue(tmp_path, clock, "w1")
        reader.scan()
        reader.scan()
        assert reader.counters.snapshot()["torn_records"] == 1
        assert reader.lookup("jx") is not None
        got = reader.claim_next()
        assert got is not None and got[0].id == "jx"


    def test_corrupt_envelope_settles_once_as_failed(self, tmp_path, clock):
        fe = make_queue(tmp_path, clock, "fe")
        entry = fe.append(dict(JOB))
        w1 = make_queue(tmp_path, clock, "w1")
        _, claim = w1.claim_next()
        assert w1.commit(claim, {"ok": 1}) == "committed"
        # Outside corruption of the committed envelope: the outcome is
        # lost, but the job did settle and must never run again.
        (w1.results_dir / f"{entry.id}.json").write_bytes(b'{"job_id": "')
        w2 = make_queue(tmp_path, clock, "w2")
        for _ in range(3):
            clock.advance(11.0)  # past another lease window
            assert w2.claim_next() is None
        assert w2.counters.get("torn_records") == 1
        assert w2.counters.get("duplicate_commits") == 0
        assert w2.lookup(entry.id)["state"] == "failed"
        assert w2.metrics()["outcomes"]["failed"] == 1
        result = w2.read_result(entry.id)["result"]
        assert result["error_type"] == "CorruptEnvelope"
        assert result["workload"] == JOB["workload"]


class TestIntakeFiles:
    def test_sweep_deletes_settled_intake_files(self, tmp_path, clock):
        fe = make_queue(tmp_path, clock, "fe")
        done = fe.append(dict(JOB))
        keep = fe.append(dict(JOB))
        worker = make_queue(tmp_path, clock, "w1")
        entry, claim = worker.claim_next()
        assert entry.id == done.id
        worker.commit(claim, {"ok": 1})
        worker.sweep()
        assert os.listdir(fe.jobs_dir) == [f"{keep.id}.json"]
        # Every handle still sees the settled job, through its envelope,
        # and the pending one.
        for handle in (fe, worker):
            assert handle.lookup(done.id)["state"] == "done"
            assert handle.lookup(done.id)["job"] == JOB
            assert handle.pending_count() == 1
        assert worker.claim_next()[0].id == keep.id

class TestFsyncRule:
    def test_acknowledging_names_fsync_their_directory(
        self, tmp_path, clock, monkeypatch
    ):
        fe = make_queue(tmp_path, clock, "fe", fsync=True)
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced.append(os.fstat(fd).st_ino)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        inode = {name: os.stat(getattr(fe, f"{name}_dir")).st_ino
                 for name in ("jobs", "claims", "results")}
        entry = fe.append(dict(JOB))
        assert inode["jobs"] in synced
        synced.clear()
        _, claim = fe.claim_next()
        assert synced and inode["claims"] not in synced  # claim body only
        synced.clear()
        assert fe.commit(claim, {"ok": 1}) == "committed"
        assert inode["results"] in synced
        synced.clear()
        fe.settle_unclaimed(dict(JOB), {"ok": 2}, cached=True, token="hit")
        assert synced == []
        assert fe.lookup(entry.id)["state"] == "done"


class TestFrontendMemory:
    def test_frontend_forgets_envelopes_another_node_collected(
        self, tmp_path, clock, monkeypatch
    ):
        frontend = make_queue(tmp_path, clock, "fe")
        node = make_queue(tmp_path, clock, "w1")
        for index in range(5):
            frontend.append(dict(JOB))
            _, claim = node.claim_next()
            node.commit(claim, {"ok": index})
        frontend.settle_unclaimed(dict(JOB), {"ok": "hit"}, cached=True)
        before = frontend.metrics()["outcomes"]
        assert len(frontend._result_meta) == 6
        monkeypatch.setattr(queue_module, "RESULT_GC_SECONDS", 0.0)
        assert node.sweep()["results_removed"] == 6
        assert frontend.metrics()["outcomes"] == before
        assert frontend._result_meta == {}
        assert frontend.metrics()["outcomes"] == before  # counted once


class TestFleetView:
    def test_metrics_and_oldest_unclaimed_age(self, tmp_path, clock):
        fe = make_queue(tmp_path, clock, "fe")
        fe.append(dict(JOB))
        clock.advance(7.0)
        metrics = fe.metrics()
        assert metrics["pending"] == 1
        assert metrics["running"] == 0
        assert metrics["oldest_unclaimed_age_s"] == pytest.approx(7.0)

    def test_fleet_liveness_by_ttl(self, tmp_path, clock):
        fe = make_queue(tmp_path, clock, "fe", node_ttl=15.0)
        fe.write_node("frontend")
        worker = make_queue(tmp_path, clock, "w1", node_ttl=15.0)
        worker.write_node("worker")
        fleet = fe.fleet()
        assert fleet["nodes_alive"] == 2
        assert fleet["workers_alive"] == 1
        assert fleet["frontends_alive"] == 1
        clock.advance(20.0)
        fe.write_node("frontend")  # only the frontend heartbeats again
        fleet = fe.fleet()
        assert fleet["nodes_alive"] == 1
        assert fleet["workers_alive"] == 0


# -- the property: arbitrary interleavings never lose or double-commit ---------------


def _drain(queue, clock):
    """Drive the fleet to completion: expire every lease and let one
    node claim + commit until nothing is left."""
    for _ in range(200):
        clock.advance(queue.lease_seconds + 1.0)
        got = queue.claim_next()
        if got is None:
            if queue.pending_count() == 0:
                return
            continue
        entry, claim = got
        try:
            queue.commit(claim, {"drained": True})
        except FencedWrite:  # pragma: no cover - no competing claims left
            pass
    raise AssertionError("fleet never drained")  # pragma: no cover


class TestInterleavingProperty:
    def test_random_interleavings_settle_every_job_exactly_once(self, tmp_path):
        try:
            from hypothesis import HealthCheck, given, settings
            from hypothesis import strategies as st
        except ImportError:  # pragma: no cover - hypothesis not installed
            pytest.skip("hypothesis unavailable")

        ops = st.lists(
            st.one_of(
                st.just(("submit",)),
                st.tuples(st.just("claim"), st.integers(0, 2)),
                st.tuples(st.just("commit"), st.integers(0, 2)),
                st.tuples(st.just("renew"), st.integers(0, 2)),
                st.tuples(st.just("release"), st.integers(0, 2)),
                st.tuples(st.just("advance"),
                          st.floats(0.5, 15.0, allow_nan=False)),
            ),
            min_size=1, max_size=40,
        )

        @settings(max_examples=25, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])
        @given(script=ops)
        def run(script):
            import tempfile
            root = tempfile.mkdtemp(dir=tmp_path)
            clock = FakeClock()
            # max_job_crashes high enough that the interleaving itself
            # never quarantines — every job must end in a real commit.
            nodes = [make_queue(root, clock, f"n{i}", max_job_crashes=10_000)
                     for i in range(3)]
            held = {0: [], 1: [], 2: []}
            submitted = []
            commits_ok = {}
            for op in script:
                if op[0] == "submit":
                    entry = nodes[0].append(dict(JOB))
                    submitted.append(entry.id)
                elif op[0] == "claim":
                    got = nodes[op[1]].claim_next()
                    if got is not None:
                        held[op[1]].append(got[1])
                elif op[0] == "commit" and held[op[1]]:
                    claim = held[op[1]].pop(0)
                    try:
                        outcome = nodes[op[1]].commit(claim, {"v": 1})
                    except FencedWrite:
                        continue
                    if outcome == "committed":
                        commits_ok[claim.job_id] = (
                            commits_ok.get(claim.job_id, 0) + 1
                        )
                elif op[0] == "renew" and held[op[1]]:
                    nodes[op[1]].renew(held[op[1]][0])
                elif op[0] == "release" and held[op[1]]:
                    nodes[op[1]].release(held[op[1]].pop(0))
                elif op[0] == "advance":
                    clock.advance(op[1])
            # Invariant 1: nothing ever commits twice.
            assert all(count == 1 for count in commits_ok.values())
            # Invariant 2: no accepted job is lost — the fleet drains to
            # exactly one settled envelope per submission.
            _drain(nodes[1], clock)
            for job_id in submitted:
                record = nodes[2].lookup(job_id)
                assert record is not None
                assert record["state"] == "done"
            # Structural exactly-once: one result file per job, ever.
            results = list(nodes[0].results_dir.iterdir())
            assert len(results) == len(set(submitted))

        run()
