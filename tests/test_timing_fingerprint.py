"""Timing fingerprint: pinned cycle-level behaviour for every IQ policy.

The golden model and the commit digest guard *what* retires; this file
guards *when*.  For each policy on the ``small`` core and one INT and
one MLP workload it pins the cycle count, the commit-stream digest, and
a hash of every statistics counter.  A select-order or timing change,
intended or not, shows up here as a fixture diff.

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

FIXTURE = Path(__file__).parent / "fixtures" / "timing_fingerprint.json"
WORKLOADS = ("exchange2", "lbm")
N = 3000


def fingerprint(policy: str, workload: str) -> dict:
    result = simulate(workload, policy, config=SMALL, num_instructions=N)
    stats = json.dumps(stats_to_dict(result.stats), sort_keys=True)
    return {
        "cycles": result.stats.cycles,
        "commit_digest": result.commit_digest,
        "stats_sha256": hashlib.sha256(stats.encode()).hexdigest(),
    }


def cell(policy: str, workload: str) -> str:
    return f"{policy}/{workload}"


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_policy_and_workload(pinned):
    assert sorted(pinned) == sorted(
        cell(p, w) for p in IQ_POLICIES for w in WORKLOADS
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("policy", IQ_POLICIES)
def test_timing_matches_fingerprint(pinned, policy, workload):
    assert fingerprint(policy, workload) == pinned[cell(policy, workload)]


if __name__ == "__main__":
    table = {
        cell(p, w): fingerprint(p, w) for p in IQ_POLICIES for w in WORKLOADS
    }
    FIXTURE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(table)} cells to {FIXTURE}")
