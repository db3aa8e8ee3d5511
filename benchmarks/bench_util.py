"""Benchmark-harness helpers.

Each figure benchmark checks one of the paper's tables or figures (or an
ablation): it takes that experiment's payload, asserts the paper's
qualitative shape, and writes the payload to ``benchmarks/results/`` for
inspection.  The payloads come from the session fixture ``payloads`` in
``conftest.py``: one :func:`repro.sim.experiments.regenerate` over the
union of the cells that the collected tests' experiments (each module's
``EXPERIMENTS``) need, on a worker per core, through the result cache in
:data:`CACHE_DIR`.  A cell already in the cache is restored, not rerun;
cache keys cover the model sources, so a model edit reruns every cell.
"""

from __future__ import annotations

import json
import pathlib

from repro.telemetry import TELEMETRY_SCHEMA_VERSION

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: The figure grid's result cache (CI restores and saves it).
CACHE_DIR = pathlib.Path(__file__).parent / ".grid-cache"


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
