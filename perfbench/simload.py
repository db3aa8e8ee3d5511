"""``sim-int`` and ``sim-mem``: ``simulate()`` over pre-generated traces.

One client, no workers: the benchmark process calls ``simulate()``
(default engine, ``medium`` config) on each (program, policy) cell in
turn, in a fixed number of whole passes over the cells, so every run of
a workload does the same work and every cell weighs the same in every
figure.  Traces are generated from the workload seed before timing
starts.

Two trace sets come from the seed:

* timed traces (:data:`TIMED_INSTRUCTIONS`) are short, so one run holds
  several passes: a cell's time is its best over the passes, and the
  latency tail has enough samples beyond it.  They run with no warm-up,
  so every simulated instruction and cycle is counted: a warm-up only
  resets the counters mid-run, it does not change the work;
* model traces (:data:`MODEL_INSTRUCTIONS`, traced runs only) are long
  enough for the modelled counts to start after a warm-up that covers
  SWQUE's first mode decisions (its switch interval is 10k instructions).
  Short timed traces start cold, so their host time leans towards
  cold-cache stalls; the per-layer host costs come from the model traces,
  whose measured window has the class's own character.

There is no service on these workloads.  A cache hit here is what a
sweep re-running a finished cell would take in-process: the cell's
content address, ``ResultCache.get``, and a digest check, timed between
passes.

Throughput and the p50s are taken over each cell's best time across the
run.  On a shared 2-core host the program's speed drops by a third to a
half for spells of a few to some thirty seconds; a cell's fastest pass,
and its fastest cache hit, come from the spells without contention, so
they swing less from run to run than medians of the same samples do
(six runs of ``sim-mem``: quartile spread 0.23 against 0.30 for
throughput, 0.08 against 0.49 for hits).  The tail is the highest
percentile with ten samples beyond it over all the raw simulation times.

The traced run makes one pass over the timed cells untraced and one
traced (the tracing overhead).  It then runs each model cell four ways:
``simulate()``, then the same run built by hand (``build_issue_queue``
-> ``Pipeline`` -> ``run`` -> ``result_from_pipeline``) plain, with the
stage profiler attached, and on the fast engine.  All four must agree
bit for bit.
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from typing import Dict, List

from common import (
    NO_QUEUE,
    NO_SERVICE,
    Checks,
    Tracer,
    exact_counts,
    fresh_import_seconds,
    median,
    peak_rss_mb,
    ratio,
    tail,
    time_cache_layer,
    time_queue_layer,
)

#: Cells of each workload: the paper's two program classes (Fig. 9 boxes).
PROGRAMS = {
    "sim-int": ("exchange2", "deepsjeng", "leela", "perlbench"),
    "sim-mem": ("lbm", "omnetpp", "xz", "fotonik3d"),
}
POLICIES = ("swque", "age")

#: The paper's reference gain for each class, from ``PAPER_RESULTS``.
PAPER_GAIN = {"sim-int": "fig9_speedup_int_medium"}

#: Length of a timed trace.
TIMED_INSTRUCTIONS = 5_000

#: Length of a model trace, and the warm-up before its modelled counts:
#: two SWQUE switch intervals, so the measured window starts after
#: SWQUE's first warm-cache mode decision.
MODEL_INSTRUCTIONS = 30_000
MODEL_WARMUP = 20_000

#: Nominal host seconds of one pass over the timed cells.  ``--seconds``
#: buys that many passes, fixed before timing starts, so every run of a
#: workload does the same work however fast the host is.  At least
#: :data:`MIN_PASSES`: 40 samples leave 10 beyond the 75th percentile.
PASS_SECONDS = {"sim-int": 4.0, "sim-mem": 3.2}
MIN_PASSES = 5

#: Cache hits per cached cell after each pass.
HIT_ROUNDS = 5

#: Set-up repetitions; ``setup_s`` reports their median.
SETUP_REPEATS = 3


def trace_seed(seed: int, program: str, length: int) -> int:
    return random.Random(f"perfbench:{seed}:{program}:{length}").randrange(1, 2**31)


def _fingerprint(trace) -> int:
    return hash(tuple((inst.pc, inst.mem_addr, inst.taken) for inst in trace))


def generate_traces(workload: str, seed: int, length: int, repeats: int,
                    tracer: Tracer, checks: Checks):
    """Traces of every program, generated ``repeats`` times; returns
    (traces, seconds per ``generate_trace`` call, seconds per repetition)."""
    from repro.workloads import generate_trace, get_profile

    per_call, per_repeat, prints = [], [], None
    traces = {}
    for _ in range(repeats):
        started = time.perf_counter()
        traces = {}
        for program in PROGRAMS[workload]:
            call = time.perf_counter()
            with tracer.span("workloads.generate_trace", program):
                traces[program] = generate_trace(
                    get_profile(program), length,
                    seed=trace_seed(seed, program, length),
                )
            per_call.append(time.perf_counter() - call)
        per_repeat.append(time.perf_counter() - started)
        current = {name: _fingerprint(trace) for name, trace in traces.items()}
        checks.expect(prints in (None, current),
                      "trace generation is not deterministic for one seed")
        prints = current
    return traces, per_call, per_repeat


def _check_result(result, trace, warmup: int, checks: Checks, cell: str) -> bool:
    """A whole-trace result: with no warm-up every instruction commits
    inside the measured window; after a warm-up, all but the warm-up."""
    from repro.sim.results import SimResult

    if not isinstance(result, SimResult):
        checks.fail(f"{cell}: simulate returned {type(result).__name__}")
        return False
    measured = len(trace) - warmup
    # The warm-up ends on the first cycle that reaches it, mid-commit-group.
    slack = 16 if warmup else 1
    return checks.expect(
        result.num_instructions == len(trace)
        and measured - slack < result.stats.committed <= measured
        and result.commit_digest,
        f"{cell}: committed {result.stats.committed} of a {len(trace)}-"
        f"instruction trace after a {warmup}-instruction warm-up",
    )


def _simulate(trace, policy, tracer: Tracer, job: str, warmup: int = 0,
              fast: bool = False):
    from repro.config import MEDIUM
    from repro.sim import simulate

    with tracer.span("sim.simulate", job):
        return simulate(trace, policy, config=MEDIUM, warmup_instructions=warmup,
                        **({"fast": True} if fast else {}))


def pipeline_run(trace, policy: str, warmup: int, tracer: Tracer, job: str,
                 profile: bool = False, fast: bool = False) -> dict:
    """One simulation built from its layers, each call timed and spanned."""
    from repro.config import MEDIUM
    from repro.core.factory import build_issue_queue
    from repro.cpu.pipeline import Pipeline
    from repro.cpu.stats import PipelineStats
    from repro.sim.simulator import result_from_pipeline
    from repro.telemetry import StageProfiler

    started = time.perf_counter()
    with tracer.span("core.build_issue_queue", job):
        stats = PipelineStats()
        iq = build_issue_queue(policy, MEDIUM, stats=stats, trace=trace)
    with tracer.span("cpu.Pipeline", job):
        try:
            pipeline = Pipeline(trace, MEDIUM, iq, stats=stats,
                                **({"fast": True} if fast else {}))
        except TypeError:  # an engine without the fast option
            pipeline = Pipeline(trace, MEDIUM, iq, stats=stats)
    profiler = StageProfiler() if profile else None
    pipeline.profiler = profiler
    built = time.perf_counter()
    with tracer.span("cpu.Pipeline.run", job):
        pipeline.run(warmup_instructions=warmup)
    ran = time.perf_counter()
    with tracer.span("sim.result_from_pipeline", job):
        result = result_from_pipeline(pipeline)
    return {
        "result": result,
        "cycles": pipeline.cycle,
        "committed": pipeline.commit_digest.count,
        "ff_skipped": getattr(pipeline, "ff_skipped_cycles", 0),
        "stage_seconds": dict(profiler.stage_seconds) if profiler else {},
        "run_s": ran - built,
        "total_s": time.perf_counter() - started,
    }


STAGES = ("complete", "commit", "issue", "dispatch", "iq_tick", "guards")


def layer_runs(trace, policy: str, warmup: int, tracer: Tracer, job: str,
               checks: Checks) -> dict:
    """The same simulation three ways: plain, stage-profiled, and on the
    fast engine.  All three must commit the whole trace, bit for bit alike."""
    from repro.sim.results import stats_to_dict

    runs = {
        "plain": pipeline_run(trace, policy, warmup, tracer, job),
        "profiled": pipeline_run(trace, policy, warmup, tracer, job, profile=True),
        "fast": pipeline_run(trace, policy, warmup, tracer, job, fast=True),
    }
    plain = runs["plain"]
    for name, run_ in runs.items():
        checks.expect(run_["committed"] == len(trace),
                      f"{job} {name}: committed {run_['committed']} of {len(trace)}")
        checks.expect(
            (run_["cycles"], run_["result"].commit_digest,
             stats_to_dict(run_["result"].stats))
            == (plain["cycles"], plain["result"].commit_digest,
                stats_to_dict(plain["result"].stats)),
            f"{job}: the {name} run disagrees with the plain run",
        )
    return runs


def layer_values(runs: List[dict]) -> Dict[str, float]:
    """Host-side costs of the simulator's layers over :func:`layer_runs`."""
    plain = [r["plain"] for r in runs]
    fast = [r["fast"] for r in runs]
    stages: Dict[str, float] = {}
    for r in runs:
        for stage, spent in r["profiled"]["stage_seconds"].items():
            stages[stage] = stages.get(stage, 0.0) + spent
    values = {
        f"cpu.stage_share.{stage}": ratio(stages.get(stage, 0.0), sum(stages.values()))
        for stage in STAGES
    }
    run_s = sum(r["run_s"] for r in plain)
    values.update({
        "cpu.host_us_per_cycle": ratio(run_s * 1e6, sum(r["cycles"] for r in plain)),
        "cpu.host_us_per_inst": ratio(run_s * 1e6, sum(r["committed"] for r in plain)),
        "cpu.ff_skip_frac": ratio(sum(r["ff_skipped"] for r in fast),
                                  sum(r["cycles"] for r in fast)),
        "cpu.fast_speedup": ratio(sum(r["total_s"] for r in plain),
                                  sum(r["total_s"] for r in fast)),
    })
    return values


def _cache_job(program: str, policy: str, seed: int, length: int):
    """(content address, job) the result cache files a cell's result under."""
    from repro.config import MEDIUM
    from repro.service import cache_key
    from repro.sim.harness import SweepJob

    job = SweepJob(workload=program, policy=policy, config=MEDIUM,
                   num_instructions=length,
                   seed=trace_seed(seed, program, length))
    return cache_key(job), job


def _hits(cache, seed: int, digests: Dict[tuple, str], checks: Checks,
          hits: Dict[tuple, List[float]]) -> None:
    """Ask for every cached cell :data:`HIT_ROUNDS` times, adding each
    hit's seconds to ``hits``."""
    for _ in range(HIT_ROUNDS):
        for (program, policy), digest in digests.items():
            started = time.perf_counter()
            key, _job = _cache_job(program, policy, seed, TIMED_INSTRUCTIONS)
            hit = cache.get(key)
            hits.setdefault((program, policy), []).append(time.perf_counter() - started)
            checks.expect(hit is not None and hit.commit_digest == digest,
                          f"{program}/{policy}: a cache hit lost the cell's digest")


def run(workload: str, seed: int, seconds: float, traced: bool,
        scratch: Path, checks: Checks, tracer: Tracer, log) -> Dict[str, float]:
    traces, gen_calls, gen_repeats = generate_traces(
        workload, seed, TIMED_INSTRUCTIONS, SETUP_REPEATS, tracer, checks)
    setup_s = median(fresh_import_seconds(SETUP_REPEATS)) + median(gen_repeats)
    cells = [(p, q) for p in PROGRAMS[workload] for q in POLICIES]
    passes = max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))
    log(f"{workload}: {len(cells)} cells x {TIMED_INSTRUCTIONS} instructions, "
        f"{passes} passes, 1 client, set-up {setup_s:.3f}s")
    if traced:
        return _traced(workload, seed, traces, cells, gen_calls, scratch,
                       checks, tracer, log)

    from repro.service import ResultCache

    cache = ResultCache(scratch / "cache")
    times: Dict[tuple, List[float]] = {cell: [] for cell in cells}
    first: Dict[tuple, object] = {}
    hits: Dict[tuple, List[float]] = {}
    for _ in range(passes):
        for program, policy in cells:
            cell = f"{program}/{policy}"
            trace = traces[program]
            checks.attempt()
            call = time.perf_counter()
            try:
                result = _simulate(trace, policy, tracer, cell)
            except Exception as exc:  # a failed simulation is a counted failure
                checks.fail(f"{cell}: {type(exc).__name__}: {exc}")
                continue
            times[(program, policy)].append(time.perf_counter() - call)
            if not _check_result(result, trace, 0, checks, cell):
                continue
            earlier = first.setdefault((program, policy), result)
            checks.expect(
                (earlier.stats.cycles, earlier.commit_digest)
                == (result.stats.cycles, result.commit_digest),
                f"{cell}: a repeat gave another cycle count or digest",
            )
            if earlier is result:
                key, job = _cache_job(program, policy, seed, TIMED_INSTRUCTIONS)
                cache.put(key, result, job=job)
        _hits(cache, seed, {c: r.commit_digest for c, r in first.items()}, checks, hits)
    if len(first) < len(cells):
        raise RuntimeError("a cell never completed; no throughput to report")
    best = {cell: min(spent) for cell, spent in times.items()}
    busy = sum(best.values())
    samples = [t for spent in times.values() for t in spent]
    pct, tail_value, beyond = tail(samples)
    log(f"  {len(samples)} simulations, {sum(samples):.2f}s; latency tail "
        f"p{pct:g} of {len(samples)} samples, {beyond} beyond it; "
        f"{sum(map(len, hits.values()))} cache hits")
    return {
        "sim_insts_per_s": ratio(sum(first[c].stats.committed for c in cells), busy),
        "sim_cycles_per_s": ratio(sum(first[c].stats.cycles for c in cells), busy),
        "job_latency_p50_s": median(best.values()),
        "job_latency_tail_s": tail_value,
        "hit_latency_p50_s": median(min(spent) for spent in hits.values()),
        "jobs_per_s": ratio(len(cells), busy),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def _traced(workload, seed, traces, cells, gen_calls, scratch, checks,
            tracer, log) -> Dict[str, float]:
    from repro.service import job_to_dict
    from repro.workloads.spec2017 import PAPER_RESULTS

    # The timed cells, one pass untraced and one traced: the tracing overhead.
    untraced_s, traced_s = [], []
    for traced in (False, True):
        tracer.enabled = traced
        for program, policy in cells:
            cell = f"{program}/{policy}"
            checks.attempt()
            try:
                call = time.perf_counter()
                result = _simulate(traces[program], policy, tracer, cell)
                (traced_s if traced else untraced_s).append(time.perf_counter() - call)
            except Exception as exc:
                checks.fail(f"{cell}: {type(exc).__name__}: {exc}")
                continue
            _check_result(result, traces[program], 0, checks, cell)

    # The model cells: modelled counts after the warm-up, and the same
    # runs layer by layer on both engines.
    model, model_calls, _ = generate_traces(workload, seed, MODEL_INSTRUCTIONS, 1,
                                            tracer, checks)
    simulated: Dict[tuple, object] = {}
    runs = []
    for program, policy in cells:
        cell = f"{program}/{policy}/model"
        trace = model[program]
        checks.attempt()
        try:
            result = _simulate(trace, policy, tracer, cell, warmup=MODEL_WARMUP)
            cell_runs = layer_runs(trace, policy, MODEL_WARMUP, tracer, cell, checks)
        except Exception as exc:
            checks.fail(f"{cell}: {type(exc).__name__}: {exc}")
            continue
        if not _check_result(result, trace, MODEL_WARMUP, checks, cell):
            continue
        checks.expect(
            result.commit_digest == cell_runs["plain"]["result"].commit_digest
            and result.stats.cycles == cell_runs["plain"]["result"].stats.cycles,
            f"{cell}: simulate() and the hand-built pipeline disagree",
        )
        simulated[(program, policy)] = result
        runs.append(cell_runs)
    values = exact_counts([(p, q, r.stats) for (p, q), r in simulated.items()])
    values.update(layer_values(runs))

    entries = [(*_cache_job(p, q, seed, MODEL_INSTRUCTIONS), r)
               for (p, q), r in simulated.items()]
    puts, gets, mismatches = time_cache_layer(entries, scratch, tracer)
    checks.expect(mismatches == 0, f"{mismatches} cache reads lost the digest")
    values.update(time_queue_layer([job_to_dict(job) for _k, job, _r in entries],
                                   scratch, tracer))
    values.update(NO_SERVICE)
    values.update(NO_QUEUE)
    values.update({
        "workloads.trace_gen_s": median(gen_calls),
        "workloads.traces": len(traces) + len(model),
        "service.sim_s": median(untraced_s),
        "service.cache_get_s": median(gets),
        "service.cache_put_s": median(puts),
        "trace.overhead_frac": ratio(sum(traced_s), sum(untraced_s)) - 1.0,
    })
    paper = PAPER_RESULTS.get(PAPER_GAIN.get(workload, ""), 0.0)
    log(f"  swque vs age: {values['core.swque_gain_vs_age']:+.2%} over "
        f"{values['core.swque_gain_pairs']} program pairs of "
        f"{MODEL_INSTRUCTIONS}-instruction traces; paper "
        f"{'INT +' + format(paper, '.1%') if paper else 'MLP ~0'} "
        f"(model unvalidated against hardware)")
    log(f"  fast engine: skipped {values['cpu.ff_skip_frac']:.1%} of the "
        f"cycles, {values['cpu.fast_speedup']:.3f}x the plain engine")
    return values
