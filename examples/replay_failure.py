#!/usr/bin/env python3
"""Catch a silently-wrong simulation, then reproduce it by rerunning it.

Injects a *stealth* ready-bit corruption: self-consistent, so every
structural invariant guard passes — without the golden reference model
the run completes "cleanly" with plausible (wrong) IPC.  With
``verify=True`` the oracle catches the architectural dataflow violation
at the exact commit where it surfaces.  The simulator is deterministic
in a job's inputs, so the script then reruns the job's spec with
``replay`` (which always attaches the golden model) and reproduces the
same mismatch at the same cycle — turning the failure into a debuggable
run.

    python examples/replay_failure.py [instructions]

Equivalent CLI (a failed sweep cell prints its own command):

    python -m repro replay '<job spec JSON>' --from-cycle <cycle>
"""

import json
import shlex
import sys

from repro.config import MEDIUM
from repro.sim.faults import FaultSpec
from repro.sim.harness import SweepJob, job_spec
from repro.sim.simulator import simulate
from repro.verify import ArchitecturalMismatch, replay


def main() -> None:
    instructions = int(sys.argv[1]) if len(sys.argv) > 1 else 8_000
    fault = FaultSpec(kind="corrupt-ready", at_cycle=1000, stealth=True)
    job = SweepJob("exchange2", "age", MEDIUM, instructions, fault=fault)

    print("=== 1. the corruption is invisible to the structural guards ===")
    result = simulate("exchange2", "age", num_instructions=instructions,
                      faults=fault)
    print(f"run 'completed': IPC={result.ipc:.3f}  <- plausible and WRONG\n")

    print("=== 2. the golden model catches it at the offending commit ===")
    try:
        simulate("exchange2", "age", num_instructions=instructions,
                 faults=fault, verify=True)
    except ArchitecturalMismatch as exc:
        print(f"{type(exc).__name__} [{exc.check}]: {exc}")
        print("\nlast commits before divergence:")
        print(exc.recent_summary())
        caught = exc
    else:
        raise SystemExit("expected the oracle to catch the stealth fault")

    spec = json.dumps(job_spec(job), sort_keys=True)
    print(f"\n=== 3. rerun the job spec: {spec} ===")
    outcome = replay(job, from_cycle=caught.cycle - 3)
    print(outcome.summary())
    assert isinstance(outcome.error, ArchitecturalMismatch)
    assert str(outcome.error) == str(caught)
    assert outcome.final_cycle == caught.cycle
    print(f"\nthe rerun reproduced the failure at cycle {caught.cycle}; run")
    print(f"    python -m repro replay {shlex.quote(spec)} --from-cycle 0")
    print("for the full per-cycle trace.")


if __name__ == "__main__":
    main()
