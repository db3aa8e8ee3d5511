"""Queue scan cost must not grow with settled jobs.

A settled job needs only the fencing epoch in its claim's filename, so
scans skip its claim body; its envelope is immutable, so a status
lookup is answered from memory; and an idempotency-token lookup reads
no claims.  What a scan lists stays bounded too: a writer compacts its
segment as jobs settle, and the sweep deletes old envelopes.
"""

from __future__ import annotations

from repro.service import queue as queue_module
from repro.service.queue import RESULT_GC_SECONDS, DurableQueue

JOB = {"workload": "exchange2", "policy": "age", "config": "medium",
       "num_instructions": 2500}

SETTLED = 20


def settled_queue(root):
    frontend = DurableQueue(root, node_id="fe", fsync=False)
    worker = DurableQueue(root, node_id="w1", fsync=False)
    ids = []
    for index in range(SETTLED):
        ids.append(frontend.append(dict(JOB), token=f"tok-{index}").id)
        _, claim = worker.claim_next()
        assert worker.commit(claim, {"ok": index}) == "committed"
    return ids


class TestSettledJobsCostNothing:
    def test_scan_reads_no_claim_body_of_a_settled_job(
        self, tmp_path, monkeypatch
    ):
        settled_queue(tmp_path)
        reader = DurableQueue(tmp_path, node_id="reader", fsync=False)
        parsed = []
        parse = DurableQueue._parse_claim

        def counting_parse(self, job_id, epoch, name):
            parsed.append(job_id)
            return parse(self, job_id, epoch, name)

        monkeypatch.setattr(DurableQueue, "_parse_claim", counting_parse)
        for _ in range(3):
            reader.scan()
        assert parsed == []
        # The epochs still fence: every settled job is known at epoch 1.
        assert all(info["epoch"] == 1 for info in reader._claims.values())
        assert len(reader._claims) == SETTLED

    def test_settled_lookup_and_token_lookup_do_no_full_scan(
        self, tmp_path, monkeypatch
    ):
        ids = settled_queue(tmp_path)
        reader = DurableQueue(tmp_path, node_id="reader", fsync=False)
        reader.scan()
        scans = []
        monkeypatch.setattr(reader, "scan", lambda: scans.append("scan"))
        monkeypatch.setattr(reader, "_scan_claims",
                            lambda: scans.append("claims"))
        for job_id in ids:
            record = reader.lookup(job_id)
            assert record["state"] == "done"
            assert record["submitted_at"] is not None
        assert reader.find_token("tok-3") == ids[3]
        assert reader.find_token("tok-unknown") is None
        assert scans == []


class TestSettledJobsAreCollected:
    def test_segment_and_results_stay_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(queue_module, "COMPACT_INTERVAL", 10)
        clock = [1000.0]
        queue = DurableQueue(tmp_path, node_id="local", fsync=False,
                             clock=lambda: clock[0])
        for index in range(50):
            queue.append(dict(JOB), token=f"tok-{index}")
            _, claim = queue.claim_next()
            assert queue.commit(claim, {"ok": index}) == "committed"
            assert len(queue._segment_path.read_text().splitlines()) <= 10
        hit = queue.settle_unclaimed(dict(JOB), {"ok": "hit"}, cached=True,
                                     token="tok-hit")
        assert queue.counters.get("compactions") >= 4
        young = queue.sweep()
        assert young["results_removed"] == 0
        assert queue.lookup(hit)["state"] == "done"

        clock[0] += RESULT_GC_SECONDS
        assert queue.sweep()["results_removed"] > 40
        assert len(list(queue.results_dir.iterdir())) < 10
        assert queue.lookup(hit) is None
        assert queue.find_token("tok-hit") is None
        outcomes = queue.metrics()["outcomes"]
        assert outcomes["done"] == 51 and outcomes["cached"] == 1

        # A fresh handle sees only what is left, all of it settled.
        reader = DurableQueue(tmp_path, node_id="reader", fsync=False,
                              clock=lambda: clock[0])
        assert reader.pending_count() == 0
        assert reader.claim_next() is None
