"""Batch runners and plain-text result tables for the experiments.

:func:`run_policies` is a thin, fail-fast front over the sweep harness
(:mod:`repro.sim.harness`) for one (workloads x policies) grid.  An
:class:`Experiment` is one paper figure, table or ablation as data: the
cells it needs and a pure reduce over their results;
:func:`repro.sim.experiments.regenerate` runs the union of many.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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
    immediately.
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


@dataclass(frozen=True)
class Experiment:
    """One figure, table or ablation: its cells and the reduce over them.

    ``cells`` holds ``(policies, configs)`` blocks, each crossed with the
    experiment's programs at ``instructions``; the analytic circuit
    models declare none, and ``reduce()`` then takes no arguments.  For a
    simulated experiment ``reduce(results, programs)`` gets
    ``results[config][workload][policy]`` and returns the payload.
    ``programs`` is the default program list (empty: the full suite).
    """

    reduce: Callable[..., dict]
    cells: Tuple[Tuple[Tuple[str, ...], Tuple[ProcessorConfig, ...]], ...] = ()
    instructions: int = 60_000
    programs: Tuple[str, ...] = ()


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
