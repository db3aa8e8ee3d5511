#!/usr/bin/env python3
"""Chaos smoke test for the fleet-grade service (CI chaos-smoke job).

Three phases against real ``python -m repro`` subprocesses:

1. **Worker kill** — submit a batch to a single-node server, SIGKILL
   one worker process of its in-process node mid-batch (pids come from
   ``/metricsz``), and assert that every job still completes and
   ``/metricsz`` reports >= 1 worker restart.
2. **Server kill** — submit a fresh batch, SIGKILL the *server* before
   it can finish, restart it on the same cache directory, and assert
   its private durable queue recovers the accepted jobs: after the
   restarted server drains, resubmitting the identical specs is served
   entirely from the cache (completed) or reported quarantined —
   nothing silently lost.
3. **Fleet kill** — a distributed fleet: two ``serve --queue-dir``
   frontends and two ``repro work`` nodes over one queue directory.
   Submit a batch through frontend 1, then SIGKILL frontend 1 *and*
   one worker node mid-batch.  The surviving frontend must answer for
   every job (exactly one committed result each, no duplicates) and
   ``/metricsz`` must show the dead node's leases were reclaimed.

Run it standalone::

    python examples/chaos_smoke.py
"""

import os
import re
import signal
import subprocess
import sys
import tempfile
import time

from repro.service import ServiceClient

WORKERS = 2

#: Big enough that a batch is still in flight when chaos strikes.
PHASE1_BATCH = [
    {"workload": "exchange2", "policy": policy, "num_instructions": 120_000}
    for policy in ("age", "swque", "circ", "shift")
]
PHASE2_BATCH = [
    {"workload": "leela", "policy": policy, "num_instructions": 120_000}
    for policy in ("age", "swque", "circ", "shift")
]
PHASE3_BATCH = [
    {"workload": "xz", "policy": policy, "num_instructions": 120_000,
     "seed": seed}
    for policy in ("age", "swque", "circ", "shift")
    for seed in (1, 2)
]


def start_server(cache_dir: str,
                 queue_dir: str = None) -> "tuple[subprocess.Popen, ServiceClient]":
    command = [
        sys.executable, "-m", "repro", "serve",
        "--port", "0",
        "--cache-dir", cache_dir,
        "--workers", str(WORKERS),
    ]
    if queue_dir is not None:
        command += ["--queue-dir", queue_dir]
    proc = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    deadline = time.monotonic() + 30.0
    url = None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            time.sleep(0.05)
            continue
        print(f"  [server] {line.rstrip()}")
        match = re.search(r"listening on (http://\S+)", line)
        if match:
            url = match.group(1)
            break
    if url is None:
        proc.kill()
        raise SystemExit("server never reported its address")
    client = ServiceClient(url)
    client.wait_healthy(timeout=30)
    return proc, client


def submit(client: ServiceClient, batch) -> list:
    ids = []
    for record in client.batch(batch):
        if "error" in record:
            raise SystemExit(f"submission rejected: {record['error']}")
        ids.append(record["id"])
    return ids


def phase1_worker_kill(client: ServiceClient) -> None:
    print("phase 1: SIGKILL one worker mid-batch")
    ids = submit(client, PHASE1_BATCH)
    pids = client.metricsz()["node"]["worker_pids"]
    victim = pids[0]
    print(f"  killing worker pid={victim} (pool: {pids})")
    os.kill(victim, signal.SIGKILL)
    for job_id in ids:
        result = client.wait_result(job_id, timeout=600)
        state = client.status(job_id)["state"]
        if state != "done" or not result.ok:
            raise SystemExit(
                f"FAIL: job {job_id} ended {state!r} after the worker kill"
            )
    pool = client.metricsz()["node"]["pool"]
    print(f"  all {len(ids)} jobs completed; "
          f"restarts={pool['worker_restarts']} alive={pool['alive']}")
    if pool["worker_restarts"] < 1:
        raise SystemExit("FAIL: /metricsz shows no worker restart")
    if pool["alive"] != WORKERS:
        raise SystemExit(f"FAIL: pool shrank to {pool['alive']}/{WORKERS}")


def phase2_server_kill(proc: subprocess.Popen, client: ServiceClient,
                       cache_dir: str) -> "tuple[subprocess.Popen, ServiceClient]":
    print("phase 2: SIGKILL the server mid-batch, recover from its queue")
    accepted = submit(client, PHASE2_BATCH)
    print(f"  accepted {len(accepted)} jobs; killing server pid={proc.pid}")
    proc.kill()  # SIGKILL: no drain — only the durable queue survives
    proc.wait(timeout=30)
    proc, client = start_server(cache_dir)
    health = client.healthz()
    print(f"  restarted; recovered_jobs={health['recovered_jobs']}")
    # Wait for the recovered backlog to drain.
    deadline = time.monotonic() + 600.0
    while time.monotonic() < deadline:
        queue = client.metricsz()["queue"]
        if queue["pending"] == 0 and queue["running"] == 0:
            break
        time.sleep(0.5)
    else:
        raise SystemExit("FAIL: recovered backlog never drained")
    # Every accepted spec must now be either cached (completed) or
    # quarantined — resubmitting is content-addressed, so a completed
    # job answers instantly from the cache.
    unfinished = []
    for spec, record in zip(PHASE2_BATCH, client.batch(PHASE2_BATCH)):
        if "error" in record:
            raise SystemExit(f"FAIL: resubmission rejected: {record['error']}")
        if record["cached"]:
            continue
        client.wait_result(record["id"], timeout=600)
        final = client.status(record["id"])
        if final["state"] != "quarantined":
            unfinished.append((spec, final["state"]))
    if unfinished:
        raise SystemExit(
            f"FAIL: {len(unfinished)} accepted job(s) were lost across the "
            f"crash (not cached, not quarantined): {unfinished}"
        )
    pending = client.healthz()["queue_depth"]
    print(f"  every accepted job accounted for; queue_depth={pending}")
    return proc, client


def start_worker_node(queue_dir: str, cache_dir: str,
                      node_id: str) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "work",
            "--queue-dir", queue_dir,
            "--cache-dir", cache_dir,
            "--workers", str(WORKERS),
            "--lease", "2",
            "--node-id", node_id,
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.STDOUT,
        env={**os.environ, "PYTHONPATH": "src"},
    )


def phase3_fleet_kill() -> None:
    print("phase 3: distributed fleet — SIGKILL a frontend and a worker "
          "node mid-batch")
    queue_dir = tempfile.mkdtemp(prefix="repro-chaos-queue-")
    cache_dir = tempfile.mkdtemp(prefix="repro-chaos-fleet-")
    fe1_proc, fe1 = start_server(cache_dir, queue_dir=queue_dir)
    fe2_proc, fe2 = start_server(cache_dir, queue_dir=queue_dir)
    w1 = start_worker_node(queue_dir, cache_dir, "chaos-w1")
    w2 = start_worker_node(queue_dir, cache_dir, "chaos-w2")
    procs = [fe1_proc, fe2_proc, w1, w2]
    try:
        ids = submit(fe1, PHASE3_BATCH)
        print(f"  accepted {len(ids)} jobs via frontend 1")
        # Let the victims pick up work before chaos strikes.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if fe2.metricsz()["queue"]["running"] >= 3:
                break
            time.sleep(0.2)
        print(f"  killing frontend 1 pid={fe1_proc.pid} and worker node "
              f"pid={w1.pid}")
        fe1_proc.kill()
        os.kill(w1.pid, signal.SIGKILL)
        # The *surviving* frontend must answer for every job — frontends
        # are stateless over the shared queue.
        for job_id in ids:
            result = fe2.wait_result(job_id, timeout=600)
            state = fe2.status(job_id)["state"]
            if state != "done" or not result.ok:
                raise SystemExit(
                    f"FAIL: job {job_id} ended {state!r} after the fleet kill"
                )
        # Exactly once: one committed envelope per job, fleet-wide.
        results = [
            name for name in os.listdir(os.path.join(queue_dir, "results"))
            if name.endswith(".json")
        ]
        if len(results) != len(ids):
            raise SystemExit(
                f"FAIL: {len(ids)} jobs but {len(results)} result envelopes"
            )
        totals = fe2.metricsz()["fleet"]["totals"]
        print(f"  all {len(ids)} jobs committed exactly once; "
              f"reclaims={totals['reclaims']} "
              f"duplicate_commits={totals['duplicate_commits']} "
              f"fenced={totals['fenced_rejections']}")
        if totals["reclaims"] < 1:
            raise SystemExit(
                "FAIL: /metricsz shows no lease reclaim after the node kill"
            )
        if totals["duplicate_commits"] != 0:
            raise SystemExit("FAIL: duplicate commit slipped through fencing")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()


def main() -> int:
    cache_dir = tempfile.mkdtemp(prefix="repro-chaos-")
    proc, client = start_server(cache_dir)
    try:
        phase1_worker_kill(client)
        proc, client = phase2_server_kill(proc, client, cache_dir)
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
    phase3_fleet_kill()
    print("OK: fleet survived worker SIGKILL, server SIGKILL, and a "
          "frontend+node SIGKILL with no job lost and no duplicate commit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
