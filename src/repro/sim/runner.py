"""Batch runners and plain-text result tables for the experiments.

Both runners are thin fronts over the fault-tolerant sweep harness
(:mod:`repro.sim.harness`): :func:`run_policies` keeps the historical
fail-fast dict-of-dicts contract the experiments expect, while
:func:`run_policies_resilient` returns the harness's full
:class:`~repro.sim.harness.SweepReport` in which crashed or diverged
cells are :class:`~repro.sim.results.FailedResult` data instead of a
sweep-killing exception.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.config import MEDIUM, ProcessorConfig
from repro.sim.harness import SweepFailed, make_grid, run_sweep
from repro.sim.results import SimResult
from repro.sim.simulator import DEFAULT_INSTRUCTIONS


def run_policies(
    workloads: Sequence[str],
    policies: Sequence[str],
    config: ProcessorConfig = MEDIUM,
    num_instructions: int = DEFAULT_INSTRUCTIONS,
    seed: Optional[int] = None,
) -> Dict[str, Dict[str, SimResult]]:
    """Simulate every (workload, policy) pair; results[workload][policy].

    The same generated trace is reused across policies for a workload
    (the harness's inline trace cache), so policy comparisons are on
    identical instruction streams.  The first failure is re-raised
    immediately; use :func:`run_policies_resilient` to get partial
    results instead.
    """
    jobs = make_grid(
        workloads, policies, configs=(config,),
        num_instructions=num_instructions, seed=seed,
    )
    try:
        report = run_sweep(jobs, max_workers=0, fail_fast=True)
    except SweepFailed as exc:
        original = getattr(exc.failure, "exception", None)
        if original is not None:
            raise original
        raise
    return report.by_workload()


def run_policies_resilient(
    workloads: Sequence[str],
    policies: Sequence[str],
    config: ProcessorConfig = MEDIUM,
    num_instructions: int = DEFAULT_INSTRUCTIONS,
    seed: Optional[int] = None,
    **sweep_kwargs,
):
    """Like :func:`run_policies`, but failures become result cells.

    Extra keyword arguments (``timeout``, ``retries``, ``cache_dir``,
    ``max_workers``, ...) pass straight through to
    :func:`~repro.sim.harness.run_sweep`; cells run in-process
    (``max_workers=0``) unless ``max_workers`` says otherwise, for parity
    with :func:`run_policies`.
    """
    sweep_kwargs.setdefault("max_workers", 0)
    jobs = make_grid(
        workloads, policies, configs=(config,),
        num_instructions=num_instructions, seed=seed,
    )
    return run_sweep(jobs, **sweep_kwargs)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    floatfmt: str = "{:.3f}",
) -> str:
    """Render rows as an aligned plain-text table."""
    rendered: List[List[str]] = []
    for row in rows:
        rendered.append(
            [floatfmt.format(c) if isinstance(c, float) else str(c) for c in row]
        )
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rendered)) if rendered else len(headers[i])
        for i in range(len(headers))
    ]
    def fmt_line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    lines = [fmt_line(headers), fmt_line(["-" * w for w in widths])]
    lines.extend(fmt_line(r) for r in rendered)
    return "\n".join(lines)
