"""Tests for replay by rerun (repro.verify.replay) and ``python -m repro replay``.

The simulator is deterministic in a job's inputs, so replay reruns the
job's spec from cycle 0 instead of restoring saved state.  These tests
pin what that must give: the recorded failure at the same cycle with
the same diagnostic, and, for a healthy job, the cycle, commit digest
and post-warmup counters ``simulate`` gives it.
"""

from __future__ import annotations

import json
import shlex

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.config import MEDIUM, SMALL
from repro.core.base import InvariantViolation
from repro.core.factory import IQ_POLICIES
from repro.cpu.pipeline import SimulationDiverged
from repro.sim import simulator
from repro.sim.faults import FaultSpec
from repro.sim.harness import SweepJob, job_from_spec, job_spec, run_sweep
from repro.sim.simulator import simulate
from repro.telemetry import validate_chrome_trace
from repro.verify import ArchitecturalMismatch, ReplayOutcome, replay
from repro.workloads.generator import generate_trace
from repro.workloads.spec2017 import get_profile

N = 2500  # instruction budget: seconds-scale cells
CORRUPT = FaultSpec(kind="corrupt-ready", at_cycle=1200)


def corrupt_job() -> SweepJob:
    return SweepJob("exchange2", "age", MEDIUM, N, fault=CORRUPT)


def simulate_job(job: SweepJob, **kwargs):
    return simulate(
        job.workload, job.policy, config=job.config,
        num_instructions=job.num_instructions, seed=job.seed,
        max_cycles=job.max_cycles,
        warmup_instructions=job.warmup_instructions, faults=job.fault,
        **kwargs,
    )


def simulate_to_the_end(job: SweepJob, monkeypatch):
    """``simulate`` of ``job`` plus the absolute cycle its run ended at
    (results only report the post-warmup cycle count)."""
    seen = {}
    package = simulator.result_from_pipeline

    def spy(pipeline):
        seen["cycle"] = pipeline.cycle
        return package(pipeline)

    monkeypatch.setattr(simulator, "result_from_pipeline", spy)
    result = simulate_job(job)
    return result, seen["cycle"]


class TestFailureReplay:
    """A failure reproduces by rerunning its spec."""

    def test_failed_cell_carries_its_rerun_spec(self):
        job = corrupt_job()
        report = run_sweep([job], max_workers=0)
        failure = report.cells[job.key]
        assert failure.job == job_spec(job)
        assert failure.job["fault"]["kind"] == "corrupt-ready"
        assert job_from_spec(json.loads(json.dumps(failure.job))) == job
        # summary() prints the exact command; the shell hands replay the spec.
        command = failure.summary().split("(replay: ", 1)[1][:-1]
        argv = shlex.split(command)
        assert argv[:4] == ["python", "-m", "repro", "replay"]
        assert json.loads(argv[4]) == failure.job

    def test_prebuilt_trace_cell_has_no_spec(self):
        trace = generate_trace(get_profile("exchange2"), N)
        job = SweepJob(trace, "age", MEDIUM, N, fault=CORRUPT)
        assert job_spec(job) is None
        failure = run_sweep([job], max_workers=0).failures[0]
        assert failure.job is None
        assert "replay" not in failure.summary()

    def test_replay_reproduces_the_recorded_failure(self):
        with pytest.raises(InvariantViolation) as excinfo:
            simulate_job(corrupt_job())
        outcome = replay(job_spec(corrupt_job()), trace=False)
        assert outcome.status == "failed" and not outcome.ok
        assert type(outcome.error) is InvariantViolation
        assert str(outcome.error) == str(excinfo.value)
        assert outcome.error.cycle == excinfo.value.cycle
        assert outcome.final_cycle == excinfo.value.cycle

    def test_replay_reproduces_an_oracle_mismatch(self):
        # A stealth fault passes every structural guard; replay always
        # attaches the golden model, so it is caught without a flag.
        job = SweepJob("exchange2", "age", MEDIUM, 5000, fault=FaultSpec(
            kind="corrupt-ready", at_cycle=1000, stealth=True))
        with pytest.raises(ArchitecturalMismatch) as excinfo:
            simulate_job(job, verify=True)
        outcome = replay(job_spec(job), trace=False)
        assert isinstance(outcome.error, ArchitecturalMismatch)
        assert outcome.error.check == excinfo.value.check
        assert outcome.error.cycle == excinfo.value.cycle
        assert str(outcome.error) == str(excinfo.value)

    def test_replay_reproduces_a_divergence_at_the_run_limit(self):
        job = SweepJob("exchange2", "age", MEDIUM, N, max_cycles=300)
        with pytest.raises(SimulationDiverged) as excinfo:
            simulate_job(job)
        outcome = replay(job, trace=False)
        assert type(outcome.error) is SimulationDiverged
        assert str(outcome.error) == str(excinfo.value)
        assert outcome.final_cycle == excinfo.value.cycles == 301


class TestReplay:
    """The traced window: ``from_cycle``, ``cycles`` and the trace lines."""

    def test_replay_completes_a_healthy_spec(self):
        lines = []
        outcome = replay({"workload": "exchange2", "policy": "age",
                          "num_instructions": 1200}, out=lines.append)
        assert isinstance(outcome, ReplayOutcome)
        assert outcome.status == "completed" and outcome.ok
        assert outcome.committed > 0
        assert lines[0].startswith("replay exchange2|age|medium")
        assert any("cyc" in line and "rob" in line for line in lines)
        assert any("warmup done" in line for line in lines)
        assert "completed" in outcome.summary()

    def test_replay_cycle_budget_stops_early(self):
        outcome = replay(corrupt_job(), cycles=5, trace=False)
        assert outcome.status == "stopped" and outcome.ok
        assert outcome.cycles_run == 5 and outcome.final_cycle == 5

    def test_from_cycle_starts_the_traced_window(self):
        lines = []
        outcome = replay(corrupt_job(), from_cycle=1195, out=lines.append)
        traced = [line for line in lines if line.startswith("cyc")]
        assert [int(line.split()[1]) for line in traced] == list(
            range(1195, 1200))
        assert outcome.status == "failed"
        assert outcome.cycles_run == 5 and outcome.final_cycle == 1200
        assert lines[-1].startswith("!! InvariantViolation")

    def test_cycle_budget_counts_from_the_window_start(self):
        lines = []
        outcome = replay(corrupt_job(), from_cycle=600, cycles=10,
                         out=lines.append)
        assert outcome.status == "stopped"
        assert outcome.cycles_run == 10 and outcome.final_cycle == 610
        assert sum(line.startswith("cyc") for line in lines) == 10

    def test_replay_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            replay(corrupt_job(), cycles=0)
        with pytest.raises(ValueError, match="from_cycle"):
            replay(corrupt_job(), from_cycle=-1)

    def test_replay_traces_the_swque_mode(self):
        lines = []
        replay({"workload": "exchange2", "policy": "swque",
                "num_instructions": 1200}, cycles=20, out=lines.append)
        assert any("mode=" in line for line in lines)

    @pytest.mark.parametrize("spec, field", [
        ({"workload": "gcc", "policy": "age"}, "workload"),
        ({"workload": "xz", "policy": "lifo"}, "policy"),
        ({"workload": "xz", "policy": "age", "fault": {"kind": "boom"}},
         "fault kind"),
        ({"workload": "xz", "policy": "age", "fault": {"knd": "crash"}},
         "fault"),
    ])
    def test_malformed_spec_names_the_field(self, spec, field):
        with pytest.raises(ValueError, match=field):
            replay(spec)


class TestRerunMatchesSimulate:
    """A healthy spec's replay ends where ``simulate`` ends: same cycle,
    same commit digest, same post-warmup commits.  Guards the replay
    loop against drifting from ``Pipeline.run`` (warmup reset, limit)."""

    @pytest.mark.parametrize("policy", IQ_POLICIES)
    def test_replay_matches_simulate(self, policy, monkeypatch):
        job = SweepJob("exchange2", policy, SMALL, 2000)
        result, end_cycle = simulate_to_the_end(job, monkeypatch)
        outcome = replay(job_spec(job), trace=False)
        assert outcome.status == "completed"
        assert outcome.final_cycle == end_cycle
        assert outcome.commit_digest == result.commit_digest
        assert outcome.committed == result.stats.committed


class TestRerunProperty:
    """Where the traced window starts changes nothing."""

    def test_every_from_cycle_replays_identically(self, monkeypatch):
        job = SweepJob("exchange2", "swque", SMALL, 1600)
        baseline, end_cycle = simulate_to_the_end(job, monkeypatch)
        starts = [0, 1, end_cycle // 4, end_cycle // 2, end_cycle - 1,
                  end_cycle, end_cycle + 100]
        for from_cycle in starts:
            outcome = replay(job, from_cycle=from_cycle,
                             out=lambda line: None)
            assert outcome.status == "completed", from_cycle
            assert outcome.final_cycle == end_cycle, from_cycle
            assert outcome.commit_digest == baseline.commit_digest, from_cycle
            assert outcome.committed == baseline.stats.committed, from_cycle

    @settings(max_examples=6, deadline=None)
    @given(
        policy=st.sampled_from(("age", "circ-pc", "swque")),
        from_cycle=st.integers(min_value=0, max_value=40_000),
        seed=st.integers(min_value=1, max_value=3),
    )
    def test_replay_is_always_exact(self, policy, from_cycle, seed):
        job = SweepJob("exchange2", policy, SMALL, 1600, seed=seed)
        baseline = simulate_job(job)
        outcome = replay(job, from_cycle=from_cycle, out=lambda line: None)
        assert outcome.status == "completed"
        assert outcome.commit_digest == baseline.commit_digest
        assert outcome.committed == baseline.stats.committed


class TestReplayCli:
    """``python -m repro replay``: exit 0 healthy, 1 failure, 2 bad spec."""

    def test_failing_spec_exits_1_with_the_diagnostic(self, capsys):
        spec = json.dumps(job_spec(corrupt_job()))
        assert main(["replay", spec, "--from-cycle", "1190"]) == 1
        out = capsys.readouterr().out
        assert "cyc     1199" in out
        assert "InvariantViolation: invariant 'issue-unready' violated" in out
        assert "replay failed after 10 cycles (at cycle 1200" in out

    def test_healthy_spec_from_a_file_exits_0(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"workload": "exchange2", "policy": "age",
                                    "num_instructions": 1200}))
        assert main(["replay", str(path), "--no-trace"]) == 0
        out = capsys.readouterr().out
        assert "replay completed" in out
        assert "cyc " not in out

    def test_export_trace_writes_the_chrome_trace(self, tmp_path, capsys):
        spec = json.dumps({"workload": "exchange2", "policy": "swque",
                           "num_instructions": 1200})
        assert main(["replay", spec, "--cycles", "3000", "--no-trace",
                     "--telemetry-interval", "300",
                     "--export-trace", str(tmp_path)]) == 0
        trace = tmp_path / "exchange2-swque-medium-replay.trace.json"
        document = json.loads(trace.read_text())
        validate_chrome_trace(document)
        assert str(trace) in capsys.readouterr().out

    @pytest.mark.parametrize("spec, field", [
        ('{"workload": "gcc", "policy": "age"}', "unknown workload 'gcc'"),
        ('{"workload": "xz", "policy": "age", "fault": {"kind": "boom"}}',
         "unknown fault kind 'boom'"),
        ('{"policy": "age"}', "missing field 'workload'"),
        ('{"workload": ', "bad job spec"),
    ])
    def test_malformed_spec_exits_2_naming_the_field(self, spec, field, capsys):
        assert main(["replay", spec]) == 2
        assert field in capsys.readouterr().err
