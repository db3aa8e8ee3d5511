#!/usr/bin/env python3
"""Submit a batch to a running `repro serve` instance — twice.

The first pass simulates every cell; the second pass is served entirely
from the content-addressed result cache (asserted via the per-job
``cached`` flag and the server's ``/metricsz`` counters).  Each job the
server simulates costs exactly one cache read, at admission: the run
fails unless ``cache.misses`` grows by the number of cold-pass jobs it
simulated.  Last, one
payload is submitted twice under one idempotency token: both records
must carry the same job id, and ``/metricsz`` must count the replay.
This script doubles as the CI service smoke test.

Start a server, then point the script at it:

    python -m repro serve --port 8642 --cache-dir .repro-cache &
    python examples/service_client.py --url http://127.0.0.1:8642

With no running server (and no --url), the script starts an in-process
service on an ephemeral port and tears it down afterwards.
"""

import argparse
import sys
import tempfile
import uuid

from repro.service import ReproService, ServiceClient

BATCH = [
    {"workload": "exchange2", "policy": "age", "num_instructions": 20_000},
    {"workload": "exchange2", "policy": "swque", "num_instructions": 20_000},
    {"workload": "leela", "policy": "swque", "num_instructions": 20_000},
]


def run_batch(client: ServiceClient, label: str) -> int:
    """Submit the batch, wait for every result; returns the # of cache hits."""
    records = client.batch(BATCH)
    hits = 0
    for spec, record in zip(BATCH, records):
        if "error" in record:
            raise SystemExit(f"submission rejected: {record['error']}")
        result = client.wait_result(record["id"], timeout=300)
        status = client.status(record["id"])
        hit = status["cached"] or record.get("cached")
        hits += bool(hit)
        print(f"  [{label}] {spec['workload']:<10} {spec['policy']:<6} "
              f"IPC={result.ipc:5.3f}  "
              f"{'cache hit' if hit else 'simulated'}")
    return hits


def replay_token(client: ServiceClient) -> bool:
    """Submit one payload twice under a per-run token; True when the
    replay returned the first record's job id and was counted."""
    token = f"ci-replay-{uuid.uuid4()}"
    first = client.submit(**BATCH[0], token=token)
    again = client.submit(**BATCH[0], token=token)
    dedup = client.metricsz()["scheduler"]["token_dedup"]
    print(f"token replay: {first['id']} then {again['id']}, "
          f"token_dedup={dedup}")
    return first["id"] == again["id"] and dedup >= 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--url", default=None,
                        help="base URL of a running server "
                             "(default: start one in-process)")
    args = parser.parse_args()

    service = None
    if args.url is None:
        cache_dir = tempfile.mkdtemp(prefix="repro-service-")
        service = ReproService(cache_dir=cache_dir, workers=2).start()
        print(f"started in-process service at {service.url} "
              f"(cache: {cache_dir})")
        url = service.url
    else:
        url = args.url

    try:
        client = ServiceClient(url)
        health = client.wait_healthy(timeout=30)
        print(f"server healthy: version {health['version']}, "
              f"up {health['uptime_s']}s")

        misses_before = client.metricsz()["cache"]["misses"]
        print("first pass (cold cache):")
        simulated = len(BATCH) - run_batch(client, "cold")

        print("second pass (identical batch):")
        hits = run_batch(client, "warm")

        metrics = client.metricsz()
        cache = metrics["cache"]
        print(f"cache: {cache['hits']} hits, {cache['misses']} misses, "
              f"{cache['entries']} entries, {cache['bytes']} bytes")
        print(f"scheduler: {metrics['scheduler']['completed']} simulated, "
              f"{metrics['scheduler']['cache_hits']} served from cache, "
              f"{metrics['scheduler']['deduped']} deduplicated")

        if hits != len(BATCH):
            print(f"FAIL: expected {len(BATCH)} warm-pass cache hits, "
                  f"got {hits}", file=sys.stderr)
            return 1
        if cache["hits"] < len(BATCH):
            print("FAIL: /metricsz does not report the cache hits",
                  file=sys.stderr)
            return 1
        if cache["misses"] - misses_before != simulated:
            print(f"FAIL: {simulated} simulated job(s) cost "
                  f"{cache['misses'] - misses_before} cache misses; "
                  f"expected one read each", file=sys.stderr)
            return 1
        if not replay_token(client):
            print("FAIL: a replayed token did not return the same job",
                  file=sys.stderr)
            return 1
        print("OK: second pass was served entirely from the result cache, "
              "each simulated job cost one cache read, and a replayed "
              "token returned the same job")
        return 0
    finally:
        if service is not None:
            service.stop(drain=True, timeout=60)


if __name__ == "__main__":
    sys.exit(main())
