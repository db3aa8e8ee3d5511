"""Round-trip tests for the shared result serialization path.

One ``to_dict``/``from_dict`` pair per result type is the single
serialization path shared by sweep reports, the result cache (which
sweeps resume from), and the HTTP API — these tests pin the symmetry down.
"""

from __future__ import annotations

import json

import pytest

from repro.cpu.stats import PipelineStats
from repro.service.cache import ENTRY_SUFFIX, cache_key
from repro.sim.harness import SweepJob, SweepReport, make_grid, run_sweep
from repro.sim.results import (
    FailedResult,
    SimResult,
    result_from_dict,
    stats_to_dict,
)
from repro.sim.simulator import simulate

N = 2500


def through_json(record: dict) -> dict:
    """Force the record through an actual JSON encode/decode."""
    return json.loads(json.dumps(record))


class TestSimResultRoundTrip:
    def test_real_result_round_trips(self):
        original = simulate("exchange2", "swque", num_instructions=N)
        rebuilt = SimResult.from_dict(through_json(original.to_dict()))
        assert rebuilt.workload == original.workload
        assert rebuilt.policy == original.policy
        assert rebuilt.config == original.config
        assert rebuilt.num_instructions == original.num_instructions
        assert stats_to_dict(rebuilt.stats) == stats_to_dict(original.stats)
        assert rebuilt.ipc == original.ipc
        assert rebuilt.mode_fractions == original.mode_fractions
        assert rebuilt.mode_switches == original.mode_switches
        assert rebuilt.seed == original.seed
        assert rebuilt.config_hash == original.config_hash
        assert rebuilt.version == original.version
        assert rebuilt.commit_digest == original.commit_digest
        # A second round trip is byte-identical: the path is stable.
        assert rebuilt.to_dict() == original.to_dict()

    def test_telemetry_never_serializes(self):
        result = simulate("exchange2", "age", num_instructions=N,
                          telemetry=True)
        assert result.telemetry is not None
        record = result.to_dict()
        assert "telemetry" not in record
        json.dumps(record)  # JSON-safe despite the live sink

    def test_from_dict_accepts_plain_seed_field(self):
        # Tolerance for records that predate the effective_seed split.
        record = simulate("exchange2", "age", num_instructions=N).to_dict()
        record["seed"] = record.pop("effective_seed")
        assert SimResult.from_dict(record).seed == record["seed"]


class TestFailedResultRoundTrip:
    def failure(self) -> FailedResult:
        stats = PipelineStats()
        stats.cycles = 301
        stats.committed = 127
        return FailedResult(
            workload="mcf",
            policy="swque",
            config="medium",
            error_type="SimulationDiverged",
            error_message="no convergence within 300 cycles",
            traceback="Traceback (most recent call last): ...",
            attempts=3,
            cycles=301,
            partial_stats=stats,
            job={"workload": "mcf", "policy": "swque", "config": "medium",
                 "num_instructions": 3000, "seed": None, "max_cycles": 300,
                 "warmup_instructions": None},
        )

    def test_round_trips_including_partial_stats(self):
        original = self.failure()
        rebuilt = FailedResult.from_dict(through_json(original.to_dict()))
        assert rebuilt.to_dict() == original.to_dict()
        assert rebuilt.partial_stats.cycles == 301
        assert rebuilt.job == original.job
        assert not rebuilt.ok

    def test_round_trips_without_partial_stats(self):
        original = FailedResult(
            workload="mcf", policy="age", config="medium",
            error_type="WorkerCrashed", error_message="exit code -9",
        )
        rebuilt = FailedResult.from_dict(through_json(original.to_dict()))
        assert rebuilt.to_dict() == original.to_dict()
        assert rebuilt.partial_stats is None


class TestDispatchAndReport:
    def test_result_from_dict_dispatches_on_status(self):
        ok = simulate("exchange2", "age", num_instructions=N)
        assert isinstance(result_from_dict(ok.to_dict()), SimResult)
        failed = TestFailedResultRoundTrip().failure()
        assert isinstance(result_from_dict(failed.to_dict()), FailedResult)

    @pytest.mark.parametrize("status", [None, "pending", 7])
    def test_unknown_status_rejected(self, status):
        with pytest.raises(ValueError, match="unknown status"):
            result_from_dict({"status": status})

    def test_sweep_report_round_trips(self):
        jobs = make_grid(["exchange2"], ["shift", "age"], num_instructions=N)
        jobs.append(SweepJob("exchange2", "circ", num_instructions=N,
                             max_cycles=300))  # guaranteed divergence
        report = run_sweep(jobs, max_workers=0, retries=0)
        rebuilt = SweepReport.from_dict(through_json(report.to_dict()))
        assert list(rebuilt.cells) == list(report.cells)
        assert len(rebuilt.successes) == 2 and len(rebuilt.failures) == 1
        for key, cell in report.cells.items():
            assert rebuilt.cells[key].to_dict() == cell.to_dict()
        assert rebuilt.executed == report.executed
        assert rebuilt.interrupted == report.interrupted

    def test_sweep_report_reads_records_with_retired_fields(self):
        # Reports saved before the sweep cache carried a checkpoint
        # counter; they still load.
        record = {"cells": {}, "restored": 2, "executed": 1,
                  "corrupt_checkpoint_lines": 3}
        rebuilt = SweepReport.from_dict(record)
        assert rebuilt.restored == 2 and rebuilt.executed == 1

    def test_checkpoint_records_are_the_shared_path(self, tmp_path):
        # A sweep's cache entry wraps result.to_dict() with the cell's
        # identity: the same loader the API uses can read it directly.
        jobs = make_grid(["exchange2"], ["age"], num_instructions=N)
        report = run_sweep(jobs, max_workers=0, cache_dir=tmp_path)
        key = cache_key(jobs[0])
        entry = json.loads((tmp_path / f"{key}{ENTRY_SUFFIX}").read_text())
        record = entry["result"]
        rebuilt = result_from_dict(record)
        original = report.cells[jobs[0].key]
        assert rebuilt.to_dict() == original.to_dict()
        assert entry["key"] == key
        assert entry["job"]["seed"] is None      # the *requested* seed
        assert record["effective_seed"] is not None
