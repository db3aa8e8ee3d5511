#!/usr/bin/env python3
"""A sweep that survives crashing, hanging, and diverging cells.

Runs a small workload x policy grid through the fault-tolerant harness
with three chaos cells injected: one that crashes its worker (a lost
worker, re-run once after a backoff: the one failure a re-run can
cure), one that hangs past the wall-clock timeout, and one that diverges
under an impossibly tight cycle budget.  The last two are deterministic,
so each fails after one attempt: a re-run would hang, or diverge at the
same cycle, again.  The sweep still completes: every healthy cell returns its
result, every broken cell is reported as a FailedResult with its
traceback and partial progress.  Every healthy cell lands in a result
cache as it finishes, so a second sweep of the healthy grid restores it
instead of re-running it.  (The chaos cells would run again: failures are
never cached, and fault-injected cells cannot be.)

    python examples/resilient_sweep.py [instructions]

Equivalent CLI for the healthy grid (re-run it to resume):

    python -m repro sweep --workloads exchange2 leela --policies age swque \\
        --timeout 600 --retries 2 --cache-dir .sweep-cache
"""

import sys
import tempfile

from repro.config import MEDIUM
from repro.sim.faults import FaultSpec
from repro.sim.harness import SweepJob, make_grid, run_sweep

WORKLOADS = ["exchange2", "leela"]
POLICIES = ["age", "swque"]


def main() -> None:
    instructions = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000
    cache_dir = tempfile.mkdtemp(prefix="repro-sweep-")

    healthy = make_grid(WORKLOADS, POLICIES, num_instructions=instructions)
    jobs = healthy + [
        # A worker that dies mid-simulation (hard, like a segfault).
        SweepJob("x264", "age", MEDIUM, instructions,
                 fault=FaultSpec("crash", at_cycle=500, hard=True)),
        # A worker that wedges; the harness kills it at the timeout and
        # reports the cell as a JobTimeout after one attempt.
        SweepJob("x264", "swque", MEDIUM, instructions,
                 fault=FaultSpec("hang", at_cycle=500, hang_seconds=600)),
        # A run that cannot converge in its cycle budget.  The simulator
        # is deterministic, so it is reported after one attempt.
        SweepJob("nab", "age", MEDIUM, instructions, max_cycles=1_000),
    ]

    print(f"Sweeping {len(jobs)} cells ({instructions:,} instructions each), "
          f"caching results in {cache_dir} ...\n")
    report = run_sweep(
        jobs,
        timeout=15.0,       # wall-clock guard per cell
        retries=1,          # one backoff-delayed re-run for a lost worker
        backoff=0.5,
        cache_dir=cache_dir,
        on_result=lambda job, result: print("  " + result.summary()),
    )

    print()
    print(report.summary())

    print("\nResuming the healthy grid from the cache (nothing left to run):")
    resumed = run_sweep(healthy, cache_dir=cache_dir)
    print(f"  {resumed.restored} cells restored, {resumed.executed} executed")


if __name__ == "__main__":
    main()
