"""Ablations for the design choices DESIGN.md calls out.

These go beyond the paper's own evaluation: each one isolates one
modelling or design decision and quantifies it, so a reader can see *why*
the system behaves as it does.  Like the figures, each is an
:class:`~repro.sim.runner.Experiment` (:data:`ABLATIONS`): its cells,
and the reduce below that turns their results into the payload;
:func:`repro.sim.experiments.regenerate` runs them.

* :func:`wrong_path_ablation` -- the load-bearing modelling choice: with
  stall-on-mispredict fetch, issue priority stops mattering entirely.
* :func:`related_work_comparison` -- SWQUE against the Section 5 baselines
  (hierarchical scheduling window, old-queue rearranging, and the
  unimplementable criticality oracle as an upper bound).
* :func:`iq_size_sweep` -- where the CIRC-PC vs AGE crossover falls as the
  queue grows (the paper's Section 4.3 intuition, parameterized).
* :func:`flpi_region_sweep` -- sensitivity of SWQUE to the one
  under-specified parameter we had to calibrate.
* :func:`switch_interval_sweep` -- SWQUE's sensitivity to the Table 3
  interval length.
* :func:`prefetch_ablation` -- how much the stream prefetcher shapes the
  MLP programs (and therefore SWQUE's mode decisions).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

from repro.config import MEDIUM, PrefetchConfig, scaled_iq_config
from repro.sim.results import geomean, geomean_speedup
from repro.sim.runner import Experiment

DEFAULT_INSTRUCTIONS = 40_000

#: Representative programs per class (full-suite sweeps are the
#: benchmarks' job; ablations use a fast, fixed panel).
PANEL_MILP = ["exchange2", "leela", "perlbench"]
PANEL_MLP = ["omnetpp", "fotonik3d"]
PANEL_RILP = ["bwaves"]
PANEL = PANEL_MILP + PANEL_MLP + PANEL_RILP

FRONT_ENDS = {
    "wrong_path": MEDIUM,
    "stall_on_mispredict": replace(MEDIUM, wrong_path_fetch=False),
}


def wrong_path_ablation(results, programs) -> dict:
    """Priority sensitivity with and without wrong-path execution.

    Returns the SHIFT-over-RAND geomean speedup under both front ends.
    With wrong-path fetch the age order wins clearly; under
    stall-on-mispredict the gap collapses (and can invert) because there
    is no junk for the priority to demote.
    """
    out = {}
    for label, config in FRONT_ENDS.items():
        grid = results[config]
        out[label] = {
            "shift_over_rand": geomean_speedup(grid, programs, "shift", "rand"),
            "shift_over_age": geomean_speedup(grid, programs, "shift", "age"),
        }
    return out


RELATED_WORK = ("age", "swque", "hsw", "oldq", "critical-oracle")


def related_work_comparison(results, programs) -> dict:
    """SWQUE vs the Section 5 alternatives, as speedups over AGE."""
    return {
        policy: geomean_speedup(results[MEDIUM], programs, policy, "age")
        for policy in RELATED_WORK[1:]
    }


IQ_SIZES = {size: scaled_iq_config(MEDIUM, size) for size in (48, 96, 128, 192, 256)}


def iq_size_sweep(results, programs) -> dict:
    """CIRC-PC vs AGE across IQ sizes (capacity-vs-priority crossover).

    Small queues starve CIRC-PC (its capacity inefficiency binds); large
    queues hide it and let the correct priority dominate.
    """
    return {
        size: geomean_speedup(results[config], programs, "circ-pc", "age")
        for size, config in IQ_SIZES.items()
    }


FLPI_REGIONS = {
    f: replace(MEDIUM, swque=replace(MEDIUM.swque, flpi_region_fraction=f))
    for f in (0.03125, 0.0625, 0.125, 0.25)
}


def flpi_region_sweep(results, programs) -> dict:
    """SWQUE sensitivity to the FLPI low-priority region size.

    Larger regions read more issues as "low priority", pushing SWQUE
    toward AGE mode on priority-sensitive programs.  Reports the geomean
    speedup over AGE and the mean CIRC-PC mode share on the m-ILP panel.
    """
    out = {}
    for fraction, config in FLPI_REGIONS.items():
        grid = results[config]
        share = sum(
            grid[w]["swque"].mode_fractions.get("circ-pc", 0.0) for w in programs
        ) / len(programs)
        out[fraction] = {
            "speedup_over_age": geomean_speedup(grid, programs, "swque", "age"),
            "circ_pc_share": share,
        }
    return out


SWITCH_INTERVALS = {
    interval: replace(MEDIUM, swque=replace(MEDIUM.swque, switch_interval=interval))
    for interval in (2_500, 10_000, 40_000)
}


def switch_interval_sweep(results, programs) -> dict:
    """SWQUE sensitivity to the Table 3 switch-interval length."""
    return {
        interval: geomean_speedup(results[config], programs, "swque", "age")
        for interval, config in SWITCH_INTERVALS.items()
    }


PREFETCH = {
    label: replace(MEDIUM, prefetch=PrefetchConfig(enabled=enabled))
    for label, enabled in (("prefetch_on", True), ("prefetch_off", False))
}


def prefetch_ablation(results, programs) -> dict:
    """Stream-prefetcher contribution on the memory-intensive panel."""
    out = {
        label: {w: results[config][w]["age"].ipc for w in programs}
        for label, config in PREFETCH.items()
    }
    out["speedup_from_prefetch"] = geomean(
        out["prefetch_on"][w] / out["prefetch_off"][w] for w in programs
    ) - 1.0
    return out


def _ablation(reduce, policies, configs, programs):
    return Experiment(reduce, ((policies, tuple(configs)),),
                      DEFAULT_INSTRUCTIONS, tuple(programs))


#: The ablations by name, as :func:`repro.sim.experiments.regenerate`
#: knows them.
ABLATIONS: Dict[str, Experiment] = {
    "abl-wrong-path": _ablation(wrong_path_ablation, ("shift", "rand", "age"),
                                FRONT_ENDS.values(), PANEL_MILP),
    "abl-related-work": _ablation(related_work_comparison, RELATED_WORK,
                                  (MEDIUM,), PANEL_MILP),
    "abl-iq-size": _ablation(iq_size_sweep, ("age", "circ-pc"),
                             IQ_SIZES.values(), PANEL_MILP),
    "abl-flpi-region": _ablation(flpi_region_sweep, ("age", "swque"),
                                 FLPI_REGIONS.values(), PANEL_MILP),
    "abl-switch-interval": _ablation(switch_interval_sweep, ("age", "swque"),
                                     SWITCH_INTERVALS.values(),
                                     PANEL_MILP + PANEL_MLP),
    "abl-prefetch": _ablation(prefetch_ablation, ("age",), PREFETCH.values(),
                              PANEL_MLP + ["lbm"]),
}
