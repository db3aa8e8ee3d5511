"""Simulator-throughput benchmark: cycles/sec of the Python model itself.

Unlike the figure benchmarks (which regenerate *paper* numbers), this one
measures the *simulator*: simulated cycles per wall-clock second with
telemetry off, the same with telemetry on (so the subsystem's overhead is
a recorded number, not a claim), and sampled per-stage wall-time shares.

The document is a multi-config trajectory: a ``cells`` map measures every
(config, policy) combination in the grid below, each cell its own
regression gate, and a bounded ``history`` list records how the numbers
moved across runs.

The result is written to ``BENCH_swque.json`` at the repo root — the
committed copy is the performance baseline future hot-path changes are
judged against.

Environment knobs (both default off):

``BENCH_SMOKE=1``
    Short run (8k instructions, one repeat) for CI smoke jobs.
``BENCH_CHECK_BASELINE=1``
    Fail if any freshly measured cell regressed more than 30% below the
    same cell in the previously committed ``BENCH_swque.json``.  Only
    meaningful on hardware comparable to the baseline's recorder, which
    is why it is opt-in.
"""

from __future__ import annotations

import json
import os
import pathlib

from bench_util import record
from repro.config import get_config
from repro.telemetry import (
    Telemetry,
    TelemetryConfig,
    bench_payload,
    measure_throughput,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_swque.json"

#: Fractional cycles/sec loss vs the committed baseline that fails the
#: gated check (0.30 = fail when more than 30% slower), per cell.
REGRESSION_TOLERANCE = 0.30

#: The (config, policy) grid.
GRID_CONFIGS = ("small", "medium")
GRID_POLICIES = ("circ", "swque")

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
CHECK_BASELINE = os.environ.get("BENCH_CHECK_BASELINE") == "1"


def _load_committed_baseline() -> dict:
    """The previously recorded document, read BEFORE it is overwritten."""
    if not BENCH_PATH.exists():
        return {}
    try:
        return json.loads(BENCH_PATH.read_text())
    except (json.JSONDecodeError, OSError):
        return {}  # a torn or hand-edited file is not a benchmark failure


def test_throughput():
    num_instructions = 8_000 if SMOKE else 30_000
    repeats = 1 if SMOKE else 2
    committed = _load_committed_baseline()

    # Full trajectory grid: every (config, policy) cell runs
    # unperturbed — no telemetry, no stage profiler.
    cells = {}
    for config_name in GRID_CONFIGS:
        config = get_config(config_name)
        for policy in GRID_POLICIES:
            result = measure_throughput(
                "exchange2",
                policy,
                config=config,
                num_instructions=num_instructions,
                repeats=repeats,
            )
            cells[result.cell_key] = result

    # The headline baseline is the paper-default cell.
    baseline = cells["medium/swque/reference"]
    with_telemetry = measure_throughput(
        "exchange2",
        "swque",
        num_instructions=num_instructions,
        repeats=repeats,
        telemetry=Telemetry(TelemetryConfig(interval=2_000)),
    )
    staged = measure_throughput(
        "exchange2",
        "swque",
        num_instructions=num_instructions,
        repeats=1,
        profile_stages=True,
    )

    payload = bench_payload(
        baseline,
        with_telemetry,
        smoke=SMOKE,
        stage_shares=staged.stage_shares,
        cells=cells,
        history=committed.get("history"),
    )
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    record("throughput", payload)

    assert baseline.cycles_per_sec > 0
    assert with_telemetry.cycles_per_sec > 0
    # The identical trace must retire the identical cycle count whether
    # or not anyone is watching (telemetry must not perturb timing).
    assert with_telemetry.cycles == baseline.cycles
    assert staged.cycles == baseline.cycles
    assert abs(sum(staged.stage_shares.values()) - 1.0) < 1e-6

    if CHECK_BASELINE:
        committed_cells = committed.get("cells", {})
        if committed_cells:
            # Per-cell gate: each (config, policy) cell is judged
            # against its own committed baseline.
            failures = []
            for key, result in cells.items():
                prior = committed_cells.get(key, {}).get("cycles_per_sec")
                if not prior:
                    continue  # new cell: nothing to regress against
                floor = (1.0 - REGRESSION_TOLERANCE) * prior
                if result.cycles_per_sec < floor:
                    failures.append(
                        f"{key}: {result.cycles_per_sec:.0f} cycles/sec vs "
                        f"committed {prior:.0f} (floor {floor:.0f})"
                    )
            assert not failures, "simulator throughput regressed:\n" + "\n".join(
                failures
            )
        elif committed.get("cycles_per_sec"):
            # Legacy single-cell document: gate the headline cell only.
            floor = (1.0 - REGRESSION_TOLERANCE) * committed["cycles_per_sec"]
            assert baseline.cycles_per_sec >= floor, (
                f"simulator throughput regressed: {baseline.cycles_per_sec:.0f} "
                f"cycles/sec vs committed baseline "
                f"{committed['cycles_per_sec']:.0f} (floor {floor:.0f})"
            )
