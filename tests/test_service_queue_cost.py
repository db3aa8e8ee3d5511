"""Queue scan cost must not grow with settled jobs.

A settled job needs only the fencing epoch in its claim's filename, so
scans skip its claim body; its envelope is immutable, so a status
lookup is answered from memory; and an idempotency-token lookup is two
``stat``s of the token's id.  What a scan lists stays bounded too: the
sweep deletes settled jobs' intake files, and then old envelopes.
"""

from __future__ import annotations

import os

from repro.service.queue import RESULT_GC_SECONDS, DurableQueue, token_job_id

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
        assert ids[3] == token_job_id("tok-3")
        listed = []
        scandir = os.scandir
        monkeypatch.setattr(os, "scandir",
                            lambda path: listed.append(path) or scandir(path))
        assert reader.admitted(ids[3])
        assert not reader.admitted(token_job_id("tok-unknown"))
        assert scans == [] and listed == []


class TestSettledJobsAreCollected:
    def test_intake_and_results_stay_bounded(self, tmp_path):
        clock = [1000.0]
        queue = DurableQueue(tmp_path, node_id="local", fsync=False,
                             clock=lambda: clock[0])
        for index in range(50):
            queue.append(dict(JOB), token=f"tok-{index}")
            _, claim = queue.claim_next()
            assert queue.commit(claim, {"ok": index}) == "committed"
            if index % 10 == 9:
                queue.sweep()
                assert os.listdir(queue.jobs_dir) == []
            assert len(os.listdir(queue.jobs_dir)) <= 10
        hit = queue.settle_unclaimed(dict(JOB), {"ok": "hit"}, cached=True,
                                     token="tok-hit")
        young = queue.sweep()
        assert young["results_removed"] == 0
        assert queue.lookup(hit)["state"] == "done"

        clock[0] += RESULT_GC_SECONDS
        assert queue.sweep()["results_removed"] > 40
        assert len(list(queue.results_dir.iterdir())) < 10
        assert queue.lookup(hit) is None
        assert not queue.admitted(token_job_id("tok-hit"))
        outcomes = queue.metrics()["outcomes"]
        assert outcomes["done"] == 51 and outcomes["cached"] == 1

        # A fresh handle sees only what is left, all of it settled.
        reader = DurableQueue(tmp_path, node_id="reader", fsync=False,
                              clock=lambda: clock[0])
        assert reader.pending_count() == 0
        assert reader.claim_next() is None
