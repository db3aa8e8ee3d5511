"""``service-single`` and ``service-fleet``: closed-loop clients on the service.

Two ``ServiceClient`` threads run in a closed loop.  Each round hands
both threads one job spec; each thread submits its spec, waits for the
result through ``wait_result``, and the next round starts once both have
their answer.  A run is a fixed number of rounds, set from ``--seconds``
before it starts, so every run of a workload does the same work.  The
seeded round stream mixes three kinds of round:

* ``fresh`` -- a new trace seed, one thread per policy (cache miss, then
  simulate, then cache put; the two answers pair up for the SWQUE gain);
* ``hit`` -- each thread resubmits a spec that finished in an earlier
  round (cache hit);
* ``dup`` -- both threads submit the same new spec at once (single-flight).

``service-single`` drives ``ReproService(cache_dir=...)``: the supervised
process pool and the fsynced write-ahead journal.  ``service-fleet``
drives a ``queue_dir`` frontend plus one in-process ``WorkerNode``, so
every job goes through the durable queue and the node's poll loop.

After the run every distinct spec is simulated outside the service, and
every answer -- cached and deduplicated ones included -- must carry that
simulation's commit digest.

Job size and mix are chosen, not measured traffic: the repository holds
no record of what its users submit.  A job is 20k instructions, what the
example client and the existing service throughput benchmark submit.
The mix is 40% cache hits, 40% single-flight twins and 20% fresh specs,
so the cache's read and write paths and deduplication all run in every
run.  Hits stay below half of the jobs, so the latency p50 falls among
simulated jobs, not in the gap between hits (milliseconds) and
simulations (about a second), where it would jump from run to run.
Twins outnumber fresh pairs because a twin costs one simulation for two
answers, and every distinct spec is simulated again for the check.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List

from common import (
    NO_QUEUE,
    Checks,
    Tracer,
    exact_counts,
    median,
    peak_rss_mb,
    ratio,
    tail,
    time_cache_layer,
    time_queue_layer,
)

#: Programs a job may name: both of the paper's classes.
PROGRAMS = ("exchange2", "deepsjeng", "leela", "perlbench",
            "lbm", "omnetpp", "xz", "fotonik3d")
POLICIES = ("swque", "age")

#: Instructions per job: what ``examples/service_client.py`` and
#: ``benchmarks/test_service_throughput.py`` submit (the service's own
#: default is 30k).  The service warms up on the first half.
JOB_INSTRUCTIONS = 20_000

#: Client threads, and simulation workers behind the service.
CLIENTS = 2
WORKERS = 2

#: Round kinds, repeated in this order: fresh (F), hit (H), dup (D).  A
#: fixed pattern keeps the mix, and so the latency percentiles, the same
#: in every run; the seed picks the specs.
ROUND_PATTERN = "FHDHD"

#: Nominal rounds per host second: ``--seconds`` buys that many rounds,
#: in whole patterns, and at least :data:`MIN_PATTERNS` patterns: 40
#: jobs, which leave 10 samples beyond the 75th latency percentile.
ROUNDS_PER_SECOND = 1.0
MIN_PATTERNS = 4

#: Fresh rounds at the head of the stream whose specs give the exact
#: modelled counts, and specs among them run layer by layer in-process:
#: a fixed, seed-derived set, however many rounds a run holds.
EXACT_FRESH_ROUNDS = 4
LAYER_SPECS = 4

#: First span track of the processes that check answers.
CHECKER_TRACK = 100

#: Set-up repetitions; ``setup_s`` reports their median.
SETUP_REPEATS = 5

#: Upper bound on one job's submit-to-result time.
JOB_TIMEOUT = 60.0


def round_count(seconds: float) -> int:
    patterns = max(MIN_PATTERNS,
                   round(seconds * ROUNDS_PER_SECOND / len(ROUND_PATTERN)))
    return patterns * len(ROUND_PATTERN)


def spec_rounds(seed: int, count: int) -> List[List[dict]]:
    """The seeded stream of rounds, one spec per client thread.  New specs
    take the programs in seeded shuffles of all eight, so every run
    weighs the programs alike."""
    rng = random.Random(f"perfbench-service:{seed}")
    finished: List[dict] = []
    rounds = []
    programs: List[str] = []

    def new_spec(policy: str) -> dict:
        if not programs:
            programs.extend(PROGRAMS)
            rng.shuffle(programs)
        return {"workload": programs.pop(), "policy": policy,
                "num_instructions": JOB_INSTRUCTIONS,
                "seed": rng.randrange(1, 2**31)}

    for index in range(count):
        kind = ROUND_PATTERN[index % len(ROUND_PATTERN)]
        if kind == "H" and finished:
            specs = [rng.choice(finished) for _ in range(CLIENTS)]
            kind = "hit"
        elif kind == "D":
            specs = [new_spec(rng.choice(POLICIES))] * CLIENTS
            kind = "dup"
        else:
            first = new_spec("swque")
            specs = [dict(first, policy=policy) for policy in POLICIES]
            kind = "fresh"
        rounds.append([dict(spec, kind=kind) for spec in specs])
        finished.extend(specs)
    return rounds


def spec_key(spec: dict) -> tuple:
    return (spec["workload"], spec["policy"], spec["num_instructions"], spec["seed"])


class Stack:
    """One running service deployment: frontend, and a node for the fleet."""

    def __init__(self, kind: str, root: Path) -> None:
        from repro.service import ReproService, ServiceClient, WorkerNode

        started = time.perf_counter()
        self.cache_dir = root / "cache"
        self.queue_dir = root / "queue"
        self.service = None
        self.node = None
        self.thread = None
        try:
            if kind == "service-fleet":
                self.service = ReproService(queue_dir=self.queue_dir,
                                            cache_dir=self.cache_dir).start()
                self.node = WorkerNode(self.queue_dir, cache_dir=self.cache_dir,
                                       workers=WORKERS).start()
                self.thread = threading.Thread(target=self.node.run_forever,
                                               name="perfbench-node", daemon=True)
                self.thread.start()
            else:
                self.service = ReproService(cache_dir=self.cache_dir,
                                            workers=WORKERS).start()
            ServiceClient(self.service.url).wait_healthy(timeout=30)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def stop(self) -> None:
        """Stop the node and the service, and wait for their workers."""
        try:
            if self.node is not None:
                # Every job has its answer, so nothing is in flight: end the
                # poll loop first, then drain from this thread alone (the two
                # must not write the node's heartbeat file at once).
                self.node.stop()
                if self.thread is not None:
                    self.thread.join(timeout=30)
                self.node.drain(timeout=30)
        finally:
            if self.service is not None:
                self.service.stop()


class Loop:
    """The closed loop: rounds of one job per client thread."""

    def __init__(self, url: str, tracer: Tracer, checks: Checks) -> None:
        from repro.service import ServiceClient

        self.tracer = tracer
        self.checks = checks
        self.retries = 0
        self._lock = threading.Lock()
        self.clients = [ServiceClient(url, sleep=self._sleep) for _ in range(CLIENTS)]
        self.jobs: List[dict] = []

    def _sleep(self, seconds: float) -> None:
        with self._lock:
            self.retries += 1
        time.sleep(seconds)

    def _job(self, track: int, spec: dict, label: str) -> dict:
        from repro.service import ServiceError

        client = self.clients[track]
        tracer = self.tracer
        payload = {k: v for k, v in spec.items() if k != "kind"}
        job = {"spec": spec, "id": None, "result": None}
        start = time.perf_counter()
        try:
            with tracer.span("service.job", label, track):
                with tracer.span("client.submit", label, track):
                    record = client.submit(**payload)
                job["id"] = record["id"]
                job["submit_s"] = time.perf_counter() - start
                with tracer.span("client.wait_result", label, track):
                    job["result"] = client.wait_result(record["id"],
                                                       timeout=JOB_TIMEOUT)
        except (ServiceError, OSError, TimeoutError) as exc:
            job["error"] = f"{type(exc).__name__}: {exc}"
        job["latency_s"] = time.perf_counter() - start
        job["observed_at"] = time.time()
        return job

    def run(self, rounds: List[List[dict]]) -> None:
        """Run every round, in order."""
        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
            for index, specs in enumerate(rounds):
                futures = [pool.submit(self._job, track, spec, f"r{index}.c{track}")
                           for track, spec in enumerate(specs)]
                for future in futures:
                    job = future.result()
                    self.checks.attempt()
                    if "error" in job:
                        self.checks.fail(f"job {job['spec']}: {job['error']}")
                    self.jobs.append(job)
        self.wall_s = time.perf_counter() - started


def _annotate(stack: Stack, jobs: List[dict], checks: Checks) -> None:
    """Server-side record of every job: flags and server timestamps."""
    from repro.service import ServiceClient
    from repro.sim.results import SimResult

    client = ServiceClient(stack.service.url)
    for job in jobs:
        if job["id"] is None:
            continue
        status = client.status(job["id"])
        job["cached"] = bool(status.get("cached"))
        job["deduped"] = bool(status.get("deduped"))
        job["state"] = status.get("state")
        job["server_s"] = (status.get("finished_at") or 0.0) - (status.get("submitted_at") or 0.0)
        job["observe_lag_s"] = job["observed_at"] - (status.get("finished_at") or job["observed_at"])
        if job["result"] is not None and not isinstance(job["result"], SimResult):
            checks.fail(f"job {job['id']} failed: {job['result'].error_type}")
            job["result"] = None
        checks.expect(job["state"] == "done", f"job {job['id']} ended {job['state']}")


def reference(spec: dict) -> dict:
    """In-process ``simulate()`` of one spec, in a checker process."""
    from repro.sim import simulate

    start = time.perf_counter()
    result = simulate(spec["workload"], spec["policy"],
                      num_instructions=spec["num_instructions"], seed=spec["seed"])
    return {"result": result, "start": start, "end": time.perf_counter(),
            "pid": os.getpid()}


def _references(specs: List[dict], jobs: List[dict], tracer: Tracer,
                checks: Checks) -> Dict[tuple, dict]:
    """``simulate()`` of ``specs`` and of every job's spec, outside the
    service; every answer must carry the digest of its spec's reference."""
    specs = {spec_key(spec): spec for spec in specs}
    for job in jobs:
        specs.setdefault(spec_key(job["spec"]), job["spec"])
    # Forked, like the service's own workers: every service and client
    # thread has been joined by now, and a spawn context would start
    # multiprocessing's resource tracker, a process that outlives the run.
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=WORKERS, mp_context=context) as pool:
        outcomes = list(pool.map(reference, specs.values()))
    refs: Dict[tuple, dict] = {}
    tracks: Dict[int, int] = {}
    for key, outcome in zip(specs, outcomes):
        track = tracks.setdefault(outcome["pid"], CHECKER_TRACK + len(tracks))
        tracer.add("sim.simulate", outcome["start"], outcome["end"], str(key), track)
        refs[key] = {"result": outcome["result"], "spec": specs[key],
                     "sim_s": outcome["end"] - outcome["start"]}
    for job in jobs:
        expected = refs[spec_key(job["spec"])]["result"]
        result = job["result"]
        if result is not None:
            checks.expect(
                result.commit_digest == expected.commit_digest
                and result.stats.cycles == expected.stats.cycles,
                f"job {job['id']} ({job['spec']['kind']}) digest differs from "
                f"in-process simulate()",
            )
    return refs


def _queue_state(stack: Stack, job_ids: List[str], checks: Checks,
                 fleet_totals: dict) -> Dict[str, float]:
    """Commit and claim counts read from the queue directory itself; the
    heartbeat-summed fleet total is kept beside them as ``*_approx``."""
    if stack.node is None:
        return dict(NO_QUEUE)
    envelopes = {path.stem for path in (stack.queue_dir / "results").glob("*.json")}
    checks.expect(
        envelopes == set(job_ids) and len(job_ids) == len(set(job_ids)),
        f"{len(envelopes)} result envelopes for {len(set(job_ids))} jobs",
    )
    epochs: Dict[str, List[int]] = {}
    for path in (stack.queue_dir / "claims").iterdir():
        stem, sep, epoch = path.name.rpartition(".e")
        if sep and epoch.isdigit():
            epochs.setdefault(stem, []).append(int(epoch))
    counters = {}
    for queue in (stack.service.queue, stack.node.queue):
        for name, value in queue.counters.snapshot().items():
            counters[name] = counters.get(name, 0) + value
    claims = sum(len(e) for e in epochs.values())
    return {
        "queue.claims": claims,
        "queue.leased_jobs": len(epochs),
        "queue.claims_per_job": ratio(claims, len(epochs)),
        "queue.reclaims": sum(1 for e in epochs.values() for epoch in e if epoch > 1),
        "queue.fenced_rejections": counters.get("fenced_rejections", 0),
        "queue.duplicate_commits": counters.get("duplicate_commits", 0),
        "queue.commits": len(envelopes),
        "queue.commits_approx": fleet_totals.get("commits", 0),
    }


def _drive(stack: Stack, rounds, tracer: Tracer, checks: Checks):
    """Run the closed loop on ``stack``, then stop it; returns the loop,
    the server's ``/metricsz`` payload, and the queue's durable counts."""
    try:
        loop = Loop(stack.service.url, tracer, checks)
        loop.run(rounds)
        _annotate(stack, loop.jobs, checks)
        # Read right after the last answer: heartbeat totals may lag.
        metrics = stack.service.metrics()
    finally:
        stack.stop()
    job_ids = [job["id"] for job in loop.jobs if job["id"] is not None]
    queue = _queue_state(stack, job_ids, checks,
                         (metrics.get("fleet") or {}).get("totals") or {})
    return loop, metrics, queue


def run(workload: str, seed: int, seconds: float, traced: bool,
        scratch: Path, checks: Checks, tracer: Tracer, log) -> Dict[str, float]:
    rounds = spec_rounds(seed, round_count(seconds))
    phase = time.perf_counter()
    setups = []
    for attempt in range(SETUP_REPEATS):
        stack = Stack(workload, scratch / f"stack-{attempt}")
        setups.append(stack.setup_s)
        if attempt < SETUP_REPEATS - 1:
            stack.stop()
    log(f"{workload}: closed loop, {CLIENTS} clients, {WORKERS} workers, "
        f"{len(rounds)} rounds of {JOB_INSTRUCTIONS}-instruction jobs; "
        f"set-up {median(setups):.3f}s ({time.perf_counter() - phase:.1f}s "
        f"for {SETUP_REPEATS} deployments)")

    tracing, tracer.enabled = tracer.enabled, False
    loop, metrics, queue_values = _drive(stack, rounds, tracer, checks)
    jobs = list(loop.jobs)
    exact_specs = [spec for specs in rounds if specs[0]["kind"] == "fresh"
                   for spec in specs][:2 * EXACT_FRESH_ROUNDS]
    if tracing:
        # The same rounds again, traced, on a fresh deployment: the gap
        # between the two runs is the tracing overhead.
        untraced = loop
        tracer.enabled = True
        stack = Stack(workload, scratch / "stack-traced")
        loop, metrics, queue_values = _drive(stack, rounds, tracer, checks)
        jobs += loop.jobs
    phase = time.perf_counter()
    refs = _references(exact_specs if tracing else [], jobs, tracer, checks)
    checked_s = time.perf_counter() - phase

    window = loop.jobs
    latencies = [job["latency_s"] for job in window if job["result"] is not None]
    hits = [job["latency_s"] for job in window if job.get("cached") and job["result"]]
    pct, tail_value, beyond = tail(latencies)
    kinds = {}
    for job in window:
        kinds[job["spec"]["kind"]] = kinds.get(job["spec"]["kind"], 0) + 1
    log(f"  {len(window)} jobs {kinds} in {loop.wall_s:.2f}s; "
        f"{len(hits)} cache hits, {sum(1 for j in window if j.get('deduped'))} "
        f"deduped; latency tail p{pct:g} of {len(latencies)} samples, "
        f"{beyond} beyond it; "
        f"{len(refs)} distinct specs checked outside the service in "
        f"{checked_s:.1f}s")
    if not tracing:
        # Answers the service simulated for this job, not from its cache or
        # a twin; counts are the service's measured window (after warm-up).
        simulated = [job["result"] for job in window if job["result"] is not None
                     and not job.get("cached") and not job.get("deduped")]
        return {
            "sim_insts_per_s": ratio(sum(r.stats.committed for r in simulated), loop.wall_s),
            "sim_cycles_per_s": ratio(sum(r.stats.cycles for r in simulated), loop.wall_s),
            "job_latency_p50_s": median(latencies),
            "job_latency_tail_s": tail_value,
            "hit_latency_p50_s": median(hits),
            "jobs_per_s": ratio(len(latencies), loop.wall_s),
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss_mb(),
        }
    values = _traced_values(stack, window, jobs, exact_specs, refs, loop, metrics,
                            scratch, checks, tracer, log)
    values.update(queue_values)
    values["trace.overhead_frac"] = ratio(loop.wall_s, untraced.wall_s) - 1.0
    if stack.node is not None:
        log(f"  commits: {values['queue.commits']} durable envelopes, "
            f"{values['queue.commits_approx']} from heartbeat totals (approx)")
    return values


def _traced_values(stack, window, jobs, exact_specs, refs, loop, metrics, scratch,
                   checks, tracer, log) -> Dict[str, float]:
    from repro.service import cache_key, job_from_dict
    from simload import layer_runs, layer_values
    from repro.workloads import generate_trace, get_profile
    from repro.workloads.spec2017 import PAPER_RESULTS

    exact = [refs[spec_key(spec)] for spec in exact_specs]
    values = exact_counts([
        (f"{ref['spec']['workload']}:{ref['spec']['seed']}", ref["spec"]["policy"],
         ref["result"].stats)
        for ref in exact
    ])
    # Host-side layer costs of the head of those specs, run in-process.
    gen_calls, runs = [], []
    for ref in exact[:LAYER_SPECS]:
        spec = ref["spec"]
        key = spec_key(spec)
        label = str(key)
        start = time.perf_counter()
        with tracer.span("workloads.generate_trace", label):
            trace = generate_trace(get_profile(spec["workload"]),
                                   spec["num_instructions"], seed=spec["seed"])
        gen_calls.append(time.perf_counter() - start)
        spec_runs = layer_runs(trace, spec["policy"], min(20_000, len(trace) // 2),
                               tracer, label, checks)
        checks.expect(
            spec_runs["plain"]["result"].commit_digest == ref["result"].commit_digest,
            f"{label}: the hand-built pipeline disagrees with simulate()",
        )
        runs.append(spec_runs)
    values.update(layer_values(runs))

    entries = []
    for key, ref in refs.items():
        spec = {k: v for k, v in ref["spec"].items() if k != "kind"}
        job = job_from_dict(spec)
        entries.append((cache_key(job), job, ref["result"]))
    puts, gets, mismatches = time_cache_layer(entries, scratch / "layers", tracer,
                                              source_dir=stack.cache_dir)
    checks.expect(mismatches == 0, f"{mismatches} cached results lost the digest")
    values.update(time_queue_layer(
        [{k: v for k, v in job["spec"].items() if k != "kind"} for job in jobs],
        scratch / "layers", tracer))

    answered = [job for job in window if job["result"] is not None]
    fresh = [job for job in answered if not job.get("cached") and not job.get("deduped")]
    overheads = [1.0 - refs[spec_key(job["spec"])]["sim_s"] / job["latency_s"]
                 for job in fresh]
    counters = metrics.get("scheduler") or {}
    cached = sum(1 for job in window if job.get("cached"))
    deduped = sum(1 for job in window if job.get("deduped"))
    values.update({
        "workloads.trace_gen_s": median(gen_calls),
        "workloads.traces": len(gen_calls),
        "service.jobs": len(window),
        "service.submit_s": median(job["submit_s"] for job in answered),
        "service.server_s": median(job["server_s"] for job in answered),
        "service.observe_lag_s": median(job["observe_lag_s"] for job in answered),
        "service.sim_s": median(ref["sim_s"] for ref in refs.values()),
        "service.overhead_frac": median(overheads),
        "service.cache_hit_ratio": ratio(cached, len(window)),
        "service.cache_hits": cached,
        "service.dedup_ratio": ratio(deduped, len(window)),
        "service.deduped": deduped,
        "service.cache_get_s": median(gets),
        "service.cache_put_s": median(puts),
        "service.client_retries": loop.retries,
        "service.shed": counters.get("shed", 0),
        "service.rate_limited": counters.get("rate_limited", 0),
    })
    log(f"  swque vs age: {values['core.swque_gain_vs_age']:+.2%} over the first "
        f"{values['core.swque_gain_pairs']} fresh-round pairs "
        f"(paper: INT +{PAPER_RESULTS['fig9_speedup_int_medium']:.1%}, MLP ~0; "
        f"model unvalidated against hardware)")
    log(f"  overhead 1 - sim/latency: median {values['service.overhead_frac']:.1%} "
        f"over {len(fresh)} simulated jobs; {len(runs)} specs profiled in-process")
    return values
