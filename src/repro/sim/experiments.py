"""The paper's figures and tables as one cached grid of cells.

Each experiment is an :class:`~repro.sim.runner.Experiment`: the
(program, policy, processor) cells it needs and a pure reduce over their
results, returning a plain dict of rows/series mirroring what the paper
reports.  :func:`regenerate` runs the deduplicated union of the named
experiments' cells with one :func:`~repro.sim.harness.run_sweep` (worker
pool and result cache) and reduces each.  The instruction budgets trade
fidelity for runtime; the defaults are sized for minutes-scale runs (the
paper simulated 100M instructions per program on a C simulator -- we
document the scale substitution in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.config import LARGE, MEDIUM, scaled_iq_config
from repro.power.area import IqAreaModel, TRANSISTOR_DENSITY
from repro.power.delay import IqDelayModel
from repro.power.energy import IqEnergyModel
from repro.sim.ablations import ABLATIONS
from repro.sim.harness import SweepJob, make_grid, run_sweep
from repro.sim.results import geomean, geomean_speedup
from repro.sim.runner import Experiment
from repro.workloads.spec2017 import FP_PROGRAMS, INT_PROGRAMS, SPEC2017_PROFILES

#: The full suite, INT first: the default program list.
ALL_PROGRAMS = tuple(INT_PROGRAMS + FP_PROGRAMS)


def _suites(programs: Sequence[str]) -> Dict[str, List[str]]:
    out: Dict[str, List[str]] = {"int": [], "fp": []}
    for name in programs:
        out[SPEC2017_PROFILES[name].suite].append(name)
    return {suite: names for suite, names in out.items() if names}


FIG8_POLICIES = ("shift", "circ", "rand", "age", "swque")


def figure8(results, programs: Sequence[str]) -> dict:
    """IPC degradation relative to SHIFT for CIRC/RAND/AGE/SWQUE (Fig 8).

    Returns ``{"GM int": {policy: degradation}, "GM fp": {...}}`` where
    degradation is positive-is-worse, as in the figure's bars.
    """
    medium = results[MEDIUM]
    return {
        f"GM {suite}": {
            policy: -geomean_speedup(medium, names, policy, "shift")
            for policy in FIG8_POLICIES[1:]
        }
        for suite, names in _suites(programs).items()
    }


def figure9(results, programs: Sequence[str]) -> dict:
    """Per-program SWQUE speedup over AGE, medium + large processors (Fig 9)."""
    out: dict = {"programs": {}, "geomean": {}}
    for config in (MEDIUM, LARGE):
        grid = results[config]
        for w in programs:
            entry = out["programs"].setdefault(
                w, {"class": SPEC2017_PROFILES[w].classification}
            )
            entry[config.name] = grid[w]["swque"].ipc / grid[w]["age"].ipc - 1.0
        for suite, progs in _suites(programs).items():
            out["geomean"][f"{suite}-{config.name}"] = geomean_speedup(
                grid, progs, "swque", "age"
            )
    return out


def figure10(results, programs: Sequence[str]) -> dict:
    """Execution-cycle breakdown by SWQUE mode per program (Fig 10)."""
    out = {}
    for w in programs:
        result = results[MEDIUM][w]["swque"]
        out[w] = {
            "class": SPEC2017_PROFILES[w].classification,
            "circ-pc": result.mode_fractions.get("circ-pc", 0.0),
            "age": result.mode_fractions.get("age", 0.0),
            "switches": result.mode_switches,
        }
    return out


def figure11(results, programs: Sequence[str]) -> dict:
    """Degradation vs SHIFT for CIRC-CONV / CIRC-PPRI / CIRC-PC (Fig 11)."""
    medium = results[MEDIUM]
    return {
        f"GM {suite}": {
            "circ-conv": -geomean_speedup(medium, names, "circ", "shift"),
            "circ-ppri": -geomean_speedup(medium, names, "circ-ppri", "shift"),
            "circ-pc": -geomean_speedup(medium, names, "circ-pc", "shift"),
        }
        for suite, names in _suites(programs).items()
    }


def figure12(results, programs: Sequence[str]) -> dict:
    """IQ energy of SWQUE relative to the idealized SHIFT (Fig 12)."""
    model = IqEnergyModel(MEDIUM)
    medium = results[MEDIUM]
    relatives = []
    shares = {"static_base": 0.0, "dynamic_base": 0.0,
              "static_swque": 0.0, "dynamic_swque": 0.0}
    for w in programs:
        ishift = model.evaluate(medium[w]["shift"].stats, "shift", idealized_shift=True)
        swque = model.evaluate(medium[w]["swque"].stats, "swque")
        relatives.append(swque.relative_to(ishift))
        total = swque.total
        for key in shares:
            shares[key] += getattr(swque, key) / total / len(programs)
    return {
        "relative_energy_geomean": geomean(relatives),
        "swque_breakdown_shares": shares,
        "per_program": dict(zip(programs, relatives)),
    }


def figure13() -> dict:
    """Relative size of each circuit in SWQUE (Fig 13)."""
    report = IqAreaModel(MEDIUM).report()
    sizes = report.relative_sizes()
    sizes["extra_select (S_RV)"] = report.overhead_fraction
    return sizes


def figure14(results, programs: Sequence[str]) -> dict:
    """SWQUE-1AM / AGE-multiAM / SWQUE-multiAM speedups over AGE (Fig 14)."""
    out: dict = {}
    for config in (MEDIUM, LARGE):
        grid = results[config]
        for suite, progs in _suites(programs).items():
            out[f"{suite}-{config.name}"] = {
                "swque-1am": geomean_speedup(grid, progs, "swque", "age"),
                "age-multiam": geomean_speedup(grid, progs, "age-multi", "age"),
                "swque-multiam": geomean_speedup(grid, progs, "swque-multi", "age"),
            }
    return out


def table5() -> dict:
    """Transistor density comparison (Table 5), x10^-3 / lambda^2."""
    return dict(TRANSISTOR_DENSITY)


#: Table 6's AGE queue grown to spend SWQUE's extra area on capacity.
COST_NEUTRAL_AGE = scaled_iq_config(
    MEDIUM, IqAreaModel(MEDIUM).cost_neutral_age_entries()
)


def table6(results, programs: Sequence[str]) -> dict:
    """Additional cost and the cost-neutral comparison (Table 6).

    SWQUE at 128 entries is compared against an AGE queue grown to spend
    the same extra area on capacity instead (150 entries).
    """
    report = IqAreaModel(MEDIUM).report()
    grown_entries = COST_NEUTRAL_AGE.iq_entries
    base, grown = results[MEDIUM], results[COST_NEUTRAL_AGE]
    out = {
        "additional_area_mm2": report.extra_select_mm2,
        "vs_skylake_core": report.vs_skylake_core,
        "vs_skylake_chip": report.vs_skylake_chip,
        "age_entries_cost_neutral": grown_entries,
    }
    for suite, progs in _suites(programs).items():
        out[f"swque_vs_age_{suite}"] = geomean_speedup(base, progs, "swque", "age")
        out[f"age{grown_entries}_vs_age_{suite}"] = geomean(
            grown[w]["age"].ipc / base[w]["age"].ipc for w in progs
        ) - 1.0
    return out


def section47() -> dict:
    """Delay checks (Section 4.7)."""
    report = IqDelayModel(MEDIUM).report()
    return {
        "dtm_overhead": report.dtm_overhead,
        "double_tag_access_fraction": report.double_tag_access_fraction,
        "payload_fraction": report.payload_fraction,
        "double_access_fits": report.double_access_fits,
        "final_grant_fits": report.final_grant_fits,
    }


#: Section 4.8's raised mode-switch penalty (Table 3's is 10 cycles).
PENALTY_40 = replace(MEDIUM, swque=replace(MEDIUM.swque, switch_penalty=40))


def section48(results, programs: Sequence[str]) -> dict:
    """Switch-penalty sensitivity (Section 4.8)."""
    base = [results[MEDIUM][w]["swque"] for w in programs]
    high = [results[PENALTY_40][w]["swque"] for w in programs]
    rates = [1e6 * r.mode_switches / r.stats.cycles for r in base if r.stats.cycles]
    return {
        "base_penalty": MEDIUM.swque.switch_penalty,
        "degradation_at_40": 1.0 - geomean(
            hi.ipc / lo.ipc for hi, lo in zip(high, base)),
        "switches_per_mcycle_mean": sum(rates) / len(rates) if rates else 0.0,
    }


def _figure(reduce, policies, configs=(MEDIUM,)):
    return Experiment(reduce, ((policies, configs),))


#: Every experiment by name: the paper's figures and tables, then the
#: ablations.
EXPERIMENTS: Dict[str, Experiment] = {
    "fig8": _figure(figure8, FIG8_POLICIES),
    "fig9": _figure(figure9, ("age", "swque"), (MEDIUM, LARGE)),
    "fig10": _figure(figure10, ("swque",)),
    "fig11": _figure(figure11, ("shift", "circ", "circ-ppri", "circ-pc")),
    "fig12": _figure(figure12, ("shift", "swque")),
    "fig13": Experiment(figure13),
    "fig14": Experiment(figure14, ((("age", "swque", "age-multi", "swque-multi"),
                                    (MEDIUM, LARGE)),), 40_000),
    "tab5": Experiment(table5),
    "tab6": Experiment(table6, ((("age", "swque"), (MEDIUM,)),
                                (("age",), (COST_NEUTRAL_AGE,)))),
    "sec47": Experiment(section47),
    "sec48": _figure(section48, ("swque",), (MEDIUM, PENALTY_40)),
    **ABLATIONS,
}


def regenerate(
    names: Sequence[str],
    num_instructions: Optional[int] = None,
    programs: Optional[Sequence[str]] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    max_workers: Optional[int] = None,
) -> Dict[str, dict]:
    """Run the named experiments as one grid; ``{name: payload}``.

    The union of their cells, each distinct cell once, goes through one
    :func:`~repro.sim.harness.run_sweep` (``max_workers``: its worker
    pool, 0 = in-process; ``cache_dir``: its result cache, so cells a
    previous call ran are restored, not rerun).  ``num_instructions``
    and ``programs`` override every experiment's own budget and program
    list.  A failed cell raises :class:`~repro.sim.harness.SweepFailed`.
    """
    plans = {}
    union: Dict[str, SweepJob] = {}
    for name in names:
        experiment = EXPERIMENTS[name]
        progs = list(programs or experiment.programs or ALL_PROGRAMS)
        jobs = [
            job
            for policies, configs in experiment.cells
            for job in make_grid(progs, policies, configs,
                                 num_instructions or experiment.instructions)
        ]
        for job in jobs:
            union.setdefault(job.key, job)
        plans[name] = (experiment, progs, jobs)
    report = run_sweep(list(union.values()), max_workers=max_workers,
                       cache_dir=cache_dir, fail_fast=True)
    if report.interrupted:
        raise KeyboardInterrupt("experiment grid interrupted")
    payloads = {}
    for name, (experiment, progs, jobs) in plans.items():
        if not experiment.cells:
            payloads[name] = experiment.reduce()
            continue
        results: dict = {}
        for job in jobs:
            results.setdefault(job.config, {}).setdefault(
                job.workload, {})[job.policy] = report.cells[job.key]
        payloads[name] = experiment.reduce(results, progs)
    return payloads
