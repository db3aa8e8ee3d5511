"""Timing fingerprint: pinned cycle-level behaviour for every IQ policy.

The golden model and the commit digest guard *what* retires; this file
guards *when*.  For each policy on the ``small`` core and one INT and
one MLP workload it pins the cycle count, the commit-stream digest, and
a hash of every statistics counter.  A select-order or timing change,
intended or not, shows up here as a fixture diff.

Those cells are too short for SWQUE to decide anything: its first mode
decision comes after a 10k-instruction switch interval.  So SWQUE and
SWQUE-multi also get longer cells that cross at least two decisions,
and those cells pin the ordered ``mode_switch_decided`` events too:
when each switch fired, between which modes, and on what MPKI, FLPI and
FLPI threshold.  A counter bug that moves a decision by one interval
changes them.

After an intentional timing change, regenerate the fixture and review
the diff::

    PYTHONPATH=src python tests/test_timing_fingerprint.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.config import SMALL
from repro.core.factory import IQ_POLICIES
from repro.sim.results import stats_to_dict
from repro.sim.simulator import simulate
from repro.telemetry.events import EV_MODE_SWITCH_DECIDED

FIXTURE = Path(__file__).parent / "fixtures" / "timing_fingerprint.json"
WORKLOADS = ("exchange2", "lbm")
N = 3000

#: The mode-switching cells: long enough for two SWQUE decisions.
SWITCH_POLICIES = ("swque", "swque-multi")
SWITCH_WORKLOADS = ("lbm", "mcf", "exchange2")
SWITCH_N = 30_000


def pin(result) -> dict:
    stats = json.dumps(stats_to_dict(result.stats), sort_keys=True)
    return {
        "cycles": result.stats.cycles,
        "commit_digest": result.commit_digest,
        "stats_sha256": hashlib.sha256(stats.encode()).hexdigest(),
    }


def fingerprint(policy: str, workload: str, n: int = N) -> dict:
    return pin(simulate(workload, policy, config=SMALL, num_instructions=n))


def switching_fingerprint(policy: str, workload: str) -> dict:
    """A telemetry run's pin plus its ordered mode-switch decisions."""
    result = simulate(workload, policy, config=SMALL, num_instructions=SWITCH_N,
                      telemetry=True)
    decisions = [
        {
            "cycle": event.cycle,
            "from_mode": event.args["from_mode"],
            "to_mode": event.args["to_mode"],
            "mpki": event.args["mpki"],
            "flpi": event.args["flpi"],
            "flpi_threshold": event.args["flpi_threshold"],
        }
        for event in result.telemetry.events_named(EV_MODE_SWITCH_DECIDED)
    ]
    return {**pin(result), "mode_switch_decided": decisions}


def cell(policy: str, workload: str, n: int = N) -> str:
    return f"{policy}/{workload}" if n == N else f"{policy}/{workload}@{n}"


def all_cells() -> list:
    return [cell(p, w) for p in IQ_POLICIES for w in WORKLOADS] + [
        cell(p, w, SWITCH_N) for p in SWITCH_POLICIES for w in SWITCH_WORKLOADS
    ]


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_policy_and_workload(pinned):
    assert sorted(pinned) == sorted(all_cells())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("policy", IQ_POLICIES)
def test_timing_matches_fingerprint(pinned, policy, workload):
    assert fingerprint(policy, workload) == pinned[cell(policy, workload)]


@pytest.mark.parametrize("workload", SWITCH_WORKLOADS)
@pytest.mark.parametrize("policy", SWITCH_POLICIES)
def test_mode_switching_matches_fingerprint(pinned, policy, workload):
    expected = pinned[cell(policy, workload, SWITCH_N)]
    traced = switching_fingerprint(policy, workload)
    assert traced == expected
    # Every cell switches at least once, so the decisions are pinned.
    assert traced["mode_switch_decided"]
    # Telemetry only observes: the plain run matches the traced one.
    plain = fingerprint(policy, workload, SWITCH_N)
    assert plain == {k: traced[k] for k in plain}


if __name__ == "__main__":
    table = {
        cell(p, w): fingerprint(p, w) for p in IQ_POLICIES for w in WORKLOADS
    }
    table.update({
        cell(p, w, SWITCH_N): switching_fingerprint(p, w)
        for p in SWITCH_POLICIES for w in SWITCH_WORKLOADS
    })
    FIXTURE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(table)} cells to {FIXTURE}")
