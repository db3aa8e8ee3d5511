"""Benchmark-harness helpers.

Each benchmark regenerates one of the paper's tables or figures: it runs
the corresponding experiment once under pytest-benchmark (pedantic mode --
these are minutes-scale simulations, not microbenchmarks), asserts the
paper's qualitative shape, and writes the regenerated rows to
``benchmarks/results/`` for inspection.

Simulation batches run through the fault-tolerant sweep harness
(:mod:`repro.sim.harness`): the figure experiments ride it transitively
via :func:`repro.sim.runner.run_policies`, and :func:`bench_sweep` below
is the direct front for grid-shaped benchmarks — a failed cell aborts
with the *complete* per-cell report (tracebacks and partial stats
included) instead of a bare mid-sweep exception.
"""

from __future__ import annotations

import json
import pathlib

from repro.config import MEDIUM
from repro.sim.harness import make_grid, run_sweep
from repro.telemetry import TELEMETRY_SCHEMA_VERSION

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Instruction budget per (workload, policy, config) simulation.  The
#: paper used 100M-instruction runs on a C simulator; this is the
#: laptop-Python equivalent, enough for the relative orderings to settle.
BENCH_INSTRUCTIONS = 60_000


def record(name: str, payload) -> pathlib.Path:
    """Persist a regenerated figure/table for inspection.

    The file wraps the payload in a small envelope (benchmark name plus
    the telemetry/artifact schema version) so results from different
    checkouts can be told apart; nothing in the repo parses these files,
    they exist for humans and notebooks.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    document = {
        "name": name,
        "telemetry_schema_version": TELEMETRY_SCHEMA_VERSION,
        "payload": payload,
    }
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, default=str)
    print(f"\n=== {name} ===")
    print(json.dumps(payload, indent=2, default=str))
    return path


def run_once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark and return it."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)


def bench_sweep(
    workloads,
    policies,
    config=MEDIUM,
    num_instructions=BENCH_INSTRUCTIONS,
    seed=None,
):
    """Run a (workload x policy) grid through the resilient harness.

    Returns ``results[workload][policy]`` like ``run_policies``.  If any
    cell fails, the whole harness report (statuses, tracebacks, partial
    stats) goes into the AssertionError so the benchmark log shows
    *which* cells died and how far they got.
    """
    jobs = make_grid(
        workloads, policies, configs=(config,),
        num_instructions=num_instructions, seed=seed,
    )
    report = run_sweep(jobs, max_workers=0)
    assert report.all_ok, f"benchmark sweep had failures:\n{report.summary()}"
    return report.by_workload()
