"""Experiment harness: one-call simulation and the paper's figures/tables."""

# Import order matters: results/simulator first, so the cpu -> core.base
# import chain initializes before harness pulls in repro.core.factory.
from repro.sim.results import FailedResult, SimResult, geomean, speedup
from repro.sim.simulator import simulate
from repro.sim.harness import (
    FaultSpec,
    SweepFailed,
    SweepJob,
    SweepReport,
    make_grid,
    run_sweep,
)
from repro.sim.runner import format_table, run_policies

__all__ = [
    "FailedResult",
    "FaultSpec",
    "SimResult",
    "SweepFailed",
    "SweepJob",
    "SweepReport",
    "geomean",
    "speedup",
    "simulate",
    "make_grid",
    "run_sweep",
    "run_policies",
    "format_table",
]
