"""Tests for the fault-tolerant sweep harness (repro.sim.harness)."""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import CountingRunner
from repro.config import MEDIUM
from repro.cpu.pipeline import SimulationDiverged
from repro.service.cache import ENTRY_SUFFIX, ResultCache, cache_key
from repro.sim.faults import FaultSpec
from repro.sim.harness import (
    WORKER_LOSS_KINDS,
    SweepFailed,
    SweepJob,
    job_from_spec,
    job_spec,
    make_grid,
    run_sweep,
    _run_job,
)
from repro.sim.results import (
    FailedResult,
    SimResult,
    stats_from_dict,
    stats_to_dict,
)
from repro.sim.runner import run_policies
from repro.sim.simulator import simulate

N = 3000  # instruction budget: seconds-scale cells


def diverging_job(**kwargs):
    """A cell guaranteed to diverge: a far-too-tight cycle budget."""
    return SweepJob("exchange2", "age", MEDIUM, N, max_cycles=300, **kwargs)


def counting_runner(executed):
    """An in-process job runner that records the key of every cell it runs."""

    def runner(job, _trace_cache=None):
        executed.append(job.key)
        return _run_job(job, _trace_cache)

    return runner


class TestSatellites:
    """The small hardening tasks that ride along with the harness."""

    def test_unknown_policy_is_a_clear_valueerror(self):
        from repro.core.factory import IQ_POLICIES, build_issue_queue

        with pytest.raises(ValueError) as excinfo:
            build_issue_queue("agee", MEDIUM)
        message = str(excinfo.value)
        assert "agee" in message
        for name in IQ_POLICIES:
            assert name in message
        assert "did you mean 'age'" in message

    def test_non_string_policy_is_a_clear_valueerror(self):
        from repro.core.factory import build_issue_queue

        with pytest.raises(ValueError, match="must be a string"):
            build_issue_queue(7, MEDIUM)

    def test_divergence_carries_partial_stats_and_cycles(self):
        with pytest.raises(SimulationDiverged) as excinfo:
            simulate("exchange2", "age", num_instructions=N, max_cycles=300)
        exc = excinfo.value
        assert exc.cycles == 301
        assert exc.partial_stats is not None
        assert exc.partial_stats.cycles >= 300

    @pytest.mark.parametrize("bad", [0, -5])
    def test_simulate_rejects_nonpositive_instructions(self, bad):
        with pytest.raises(ValueError, match="num_instructions must be positive"):
            simulate("exchange2", "age", num_instructions=bad)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_simulate_rejects_nonpositive_max_cycles(self, bad):
        with pytest.raises(ValueError, match="max_cycles must be positive"):
            simulate("exchange2", "age", num_instructions=N, max_cycles=bad)

    def test_simulate_rejects_negative_warmup(self):
        with pytest.raises(ValueError, match="warmup_instructions"):
            simulate("exchange2", "age", num_instructions=N,
                     warmup_instructions=-1)


class TestJobsAndValidation:
    def test_make_grid_cross_product_and_keys(self):
        jobs = make_grid(["exchange2", "leela"], ["shift", "age"],
                         num_instructions=N, seed=7)
        assert len(jobs) == 4
        assert len({job.key for job in jobs}) == 4
        assert jobs[0].key == f"exchange2|shift|medium|n={N}|seed=7"

    def test_duplicate_cells_rejected(self):
        job = SweepJob("exchange2", "age", MEDIUM, N)
        with pytest.raises(ValueError, match="duplicate sweep cell"):
            run_sweep([job, job], max_workers=0)

    def test_budgets_set_on_a_cell_are_part_of_its_key(self):
        job = SweepJob("exchange2", "age", MEDIUM, N)
        assert job.key == f"exchange2|age|medium|n={N}|seed=None"
        for twin in (
            dataclasses.replace(job, max_cycles=10**6),
            dataclasses.replace(job, warmup_instructions=0),
        ):
            report = run_sweep([job, twin], max_workers=0)
            assert report.all_ok and report.executed == 2
            assert list(report.cells) == [job.key, twin.key]
        capped = dataclasses.replace(job, max_cycles=10**6,
                                     warmup_instructions=500)
        assert capped.key == job.key + "|max_cycles=1000000|warmup=500"

    def test_a_replaced_config_under_a_registered_name_is_its_own_cell(self):
        job = SweepJob("exchange2", "swque", MEDIUM, 2000)
        twin = dataclasses.replace(job, config=dataclasses.replace(
            MEDIUM, swque=dataclasses.replace(MEDIUM.swque, switch_penalty=40)))
        assert twin.config.name == "medium" and twin.key != job.key
        # Registered configs keep their plain key, even as an equal copy.
        equal = dataclasses.replace(job, config=dataclasses.replace(MEDIUM))
        assert equal.key == job.key == "exchange2|swque|medium|n=2000|seed=None"
        report = run_sweep([job, twin], max_workers=0)
        assert report.all_ok and report.executed == 2
        assert list(report.cells) == [job.key, twin.key]

    def test_bad_policy_rejected_before_running(self):
        with pytest.raises(ValueError, match="unknown IQ policy"):
            run_sweep([SweepJob("exchange2", "nope", MEDIUM, N)])

    def test_bad_budgets_rejected_before_running(self):
        with pytest.raises(ValueError, match="num_instructions"):
            run_sweep([SweepJob("exchange2", "age", MEDIUM, 0)])
        with pytest.raises(ValueError, match="max_cycles"):
            run_sweep([SweepJob("exchange2", "age", MEDIUM, N, max_cycles=0)])
        ok = [SweepJob("exchange2", "age", MEDIUM, N)]
        with pytest.raises(ValueError, match="retries"):
            run_sweep(ok, retries=-1)
        with pytest.raises(ValueError, match="timeout"):
            run_sweep(ok, timeout=0)
        with pytest.raises(ValueError, match="max_workers"):
            run_sweep(ok, max_workers=-1)


class TestInlineSweep:
    def test_all_cells_succeed(self):
        report = run_sweep(
            make_grid(["exchange2"], ["shift", "age"], num_instructions=N),
            max_workers=0,
        )
        assert report.all_ok
        assert len(report.cells) == 2
        assert all(isinstance(r, SimResult) for r in report.cells.values())
        assert report.executed == 2 and report.restored == 0

    def test_failure_is_first_class_data(self):
        report = run_sweep(
            [diverging_job(), SweepJob("exchange2", "shift", MEDIUM, N)],
            max_workers=0,
            retries=0,
        )
        assert len(report.failures) == 1 and len(report.successes) == 1
        failure = report.failures[0]
        assert isinstance(failure, FailedResult)
        assert failure.error_type == "SimulationDiverged"
        assert "no convergence" in failure.error_message
        assert "SimulationDiverged" in failure.traceback
        assert failure.cycles == 301
        # The partial progress the exception used to throw away.
        assert failure.partial_stats is not None
        assert failure.partial_stats.cycles >= 300
        assert "FAILED[SimulationDiverged]" in report.summary()

    def test_diverging_cell_runs_once(self):
        # The simulator is deterministic: a re-run would diverge again.
        executed = []
        report = run_sweep([diverging_job()], max_workers=0,
                           _job_runner=counting_runner(executed))
        failure = report.failures[0]
        assert failure.error_type == "SimulationDiverged"
        assert failure.attempts == 1
        assert executed == [diverging_job().key]
        assert report.retried == 0

    def test_nontransient_failures_do_not_retry(self):
        calls = []

        def broken_runner(job, _trace_cache=None):
            calls.append(job.key)
            raise KeyError("model bug")

        report = run_sweep(
            [SweepJob("exchange2", "age", MEDIUM, N)],
            max_workers=0,
            retries=5,
            backoff=0,
            _job_runner=broken_runner,
        )
        assert len(calls) == 1
        assert report.failures[0].error_type == "KeyError"

    def test_fail_fast_raises_sweep_failed(self):
        with pytest.raises(SweepFailed):
            run_sweep([diverging_job()], max_workers=0, retries=0,
                      fail_fast=True)

    def test_chaos_cell_produces_failed_result(self):
        # An in-process crash is a failure, not a lost worker: one attempt.
        job = SweepJob("exchange2", "age", MEDIUM, N,
                       fault=FaultSpec("crash", at_cycle=100))
        report = run_sweep([job], max_workers=0, retries=2, backoff=0)
        failure = report.failures[0]
        assert failure.error_type == "InjectedFault"
        assert failure.attempts == 1
        assert "injected crash" in failure.error_message


class TestCheckpointResume:
    """Resume from the content-addressed result cache (``cache_dir=``)."""

    def grid(self):
        return make_grid(["exchange2", "leela"], ["shift", "age"],
                         num_instructions=N)

    def test_round_trip_restores_identical_results(self, tmp_path):
        first = run_sweep(self.grid(), max_workers=0, cache_dir=tmp_path)
        assert len(ResultCache(tmp_path)) == 4

        executed = []
        second = run_sweep(self.grid(), max_workers=0, cache_dir=tmp_path,
                           _job_runner=counting_runner(executed))
        assert executed == []
        assert second.restored == 4 and second.executed == 0
        for key, original in first.cells.items():
            restored = second.cells[key]
            assert restored.ipc == original.ipc
            assert restored.stats.cycles == original.stats.cycles
            assert restored.mode_switches == original.mode_switches

    def test_interrupted_sweep_resumes_only_unfinished_cells(self, tmp_path):
        jobs = self.grid()
        # "Kill" the sweep after two of four cells.
        run_sweep(jobs[:2], max_workers=0, cache_dir=tmp_path)

        executed = []
        report = run_sweep(jobs, max_workers=0, cache_dir=tmp_path,
                           _job_runner=counting_runner(executed))
        assert executed == [jobs[2].key, jobs[3].key]
        assert report.restored == 2 and report.executed == 2
        assert len(report.cells) == 4 and report.all_ok
        # The resumed cells landed in the same cache.
        assert len(ResultCache(tmp_path)) == 4

    def test_resume_compaction_keeps_records_outside_the_sweep(self, tmp_path):
        # Resuming a smaller sweep leaves the entries of cells outside it
        # (e.g. a larger earlier grid) in place.
        jobs = self.grid()
        run_sweep(jobs, max_workers=0, cache_dir=tmp_path)
        run_sweep(jobs[:1], max_workers=0, cache_dir=tmp_path)
        report = run_sweep(jobs, max_workers=0, cache_dir=tmp_path)
        assert report.restored == 4 and report.executed == 0

    def test_checkpoint_records_carry_provenance(self, tmp_path):
        jobs = self.grid()[:1]
        first = run_sweep(jobs, max_workers=0, cache_dir=tmp_path)
        entry = tmp_path / f"{cache_key(jobs[0])}{ENTRY_SUFFIX}"
        record = json.loads(entry.read_text())["result"]
        assert record["effective_seed"] is not None
        assert len(record["config_hash"]) == 16
        assert record["version"]
        assert len(record["commit_digest"]) == 32
        second = run_sweep(jobs, max_workers=0, cache_dir=tmp_path)
        assert second.restored == 1
        restored = second.cells[jobs[0].key]
        original = first.cells[jobs[0].key]
        assert restored.seed == original.seed
        assert restored.config_hash == original.config_hash
        assert restored.version == original.version
        assert restored.commit_digest == original.commit_digest

    def test_failed_cell_reruns_and_fails_the_same_way(self, tmp_path):
        first = run_sweep([diverging_job()], max_workers=0, retries=0,
                          cache_dir=tmp_path)
        report = run_sweep([diverging_job()], max_workers=0, retries=0,
                           cache_dir=tmp_path)
        # Failures are never cached: the cell runs again.
        assert report.restored == 0 and report.executed == 1
        failure = report.cells[diverging_job().key]
        assert failure.error_type == "SimulationDiverged"
        assert failure.partial_stats is not None
        assert failure.partial_stats.cycles >= 300
        again = first.cells[diverging_job().key]
        assert failure.cycles == again.cycles
        assert failure.partial_stats.as_dict() == again.partial_stats.as_dict()

    def test_prebuilt_trace_runs_uncached(self, tmp_path):
        from repro.workloads.generator import generate_trace
        from repro.workloads.spec2017 import get_profile

        trace = generate_trace(get_profile("exchange2"), N)
        job = SweepJob(trace, "age", MEDIUM, N)
        for _ in range(2):
            report = run_sweep([job], max_workers=0, cache_dir=tmp_path)
            assert report.all_ok
            assert report.executed == 1 and report.restored == 0
        assert len(ResultCache(tmp_path)) == 0

    def test_resume_misses_when_the_model_changes(self, tmp_path, monkeypatch):
        # The content address covers the simulator sources: after a model
        # edit, rerunning the sweep executes its cells, never restores them.
        from repro.service import cache as cache_module

        jobs = self.grid()
        assert run_sweep(jobs, max_workers=0, cache_dir=tmp_path).executed == 4
        assert run_sweep(jobs, max_workers=0, cache_dir=tmp_path).restored == 4
        monkeypatch.setattr(cache_module, "model_digest", lambda: "edited")
        report = run_sweep(jobs, max_workers=0, cache_dir=tmp_path)
        assert report.restored == 0 and report.executed == 4
        assert report.all_ok

    def test_resume_misses_when_budgets_change(self, tmp_path):
        # Resume joins on the content address, which covers every budget:
        # a cell run under a cycle cap never stands in for the uncapped one.
        capped = SweepJob("exchange2", "age", MEDIUM, 3000, max_cycles=300)
        first = run_sweep([capped], max_workers=0, retries=0,
                          cache_dir=tmp_path)
        assert first.failures[0].error_type == "SimulationDiverged"
        uncapped = dataclasses.replace(capped, max_cycles=None)
        report = run_sweep([uncapped], max_workers=0, retries=0,
                           cache_dir=tmp_path)
        assert report.executed == 1 and report.restored == 0
        assert isinstance(report.cells[uncapped.key], SimResult)

        # Changing only the warmup, or only the cap, misses too, though
        # the uncapped cell is cached by now.
        assert run_sweep([uncapped], max_workers=0,
                         cache_dir=tmp_path).restored == 1
        for changed in (
            dataclasses.replace(uncapped, warmup_instructions=0),
            dataclasses.replace(uncapped, max_cycles=10**6),
        ):
            report = run_sweep([changed], max_workers=0, cache_dir=tmp_path)
            assert report.executed == 1 and report.restored == 0
            assert isinstance(report.cells[changed.key], SimResult)

    def test_all_cached_sweep_forks_no_worker(self, tmp_path, monkeypatch):
        jobs = self.grid()
        run_sweep(jobs, max_workers=0, cache_dir=tmp_path)

        def no_fork():
            raise AssertionError("a fully cached sweep forked a worker")

        monkeypatch.setattr(os, "fork", no_fork)
        report = run_sweep(jobs, max_workers=2, cache_dir=tmp_path)
        assert report.restored == 4 and report.executed == 0
        assert report.all_ok

    def test_failed_cell_job_spec_round_trips(self, tmp_path):
        run_sweep([diverging_job()], max_workers=0, retries=0,
                  cache_dir=tmp_path / "cache")
        report = run_sweep([diverging_job()], max_workers=0, retries=0,
                           cache_dir=tmp_path / "cache")
        failure = report.cells[diverging_job().key]
        assert failure.job == job_spec(diverging_job())
        rebuilt = FailedResult.from_dict(json.loads(json.dumps(failure.to_dict())))
        assert job_from_spec(rebuilt.job) == diverging_job()
        assert "python -m repro replay" in failure.summary()

    def test_stats_serialization_round_trip(self):
        result = simulate("exchange2", "swque", num_instructions=N)
        data = json.loads(json.dumps(stats_to_dict(result.stats)))
        rebuilt = stats_from_dict(data)
        assert rebuilt.ipc == result.stats.ipc
        assert rebuilt.as_dict() == result.stats.as_dict()


class TestProcessExecutor:
    """Real supervised-pool behaviour: slowish, so kept to the essentials."""

    def test_success_matches_inline_execution(self):
        jobs = make_grid(["exchange2"], ["age"], num_instructions=N)
        inline = run_sweep(jobs, max_workers=0)
        isolated = run_sweep(jobs, max_workers=2)
        assert isolated.all_ok
        key = jobs[0].key
        assert isolated.cells[key].ipc == inline.cells[key].ipc
        assert isolated.cells[key].commit_digest == inline.cells[key].commit_digest

    def test_hung_worker_is_killed_at_the_timeout(self):
        job = SweepJob("exchange2", "age", MEDIUM, N,
                       fault=FaultSpec("hang", at_cycle=50, hang_seconds=120))
        report = run_sweep([job], timeout=1.5, retries=1)
        failure = report.failures[0]
        assert failure.error_type == "JobTimeout"
        assert "wall-clock" in failure.error_message
        # Deterministic: a timed-out cell is a result, never retried.
        assert failure.attempts == 1 and report.retried == 0

    def test_hard_crashed_worker_is_detected(self):
        # os._exit(13) skips the error report, like a segfault or OOM kill.
        job = SweepJob("exchange2", "age", MEDIUM, N,
                       fault=FaultSpec("crash", at_cycle=50, hard=True))
        report = run_sweep([job], retries=0)
        failure = report.failures[0]
        assert failure.error_type == "WorkerCrashed"
        assert "exit code" in failure.error_message

    def test_worker_loss_retries_with_exponential_backoff(self):
        job = SweepJob("exchange2", "age", MEDIUM, N,
                       fault=FaultSpec("crash", at_cycle=50, hard=True))
        started = time.monotonic()
        report = run_sweep([job], max_workers=1, retries=2, backoff=0.2)
        elapsed = time.monotonic() - started
        failure = report.failures[0]
        assert failure.error_type == "WorkerCrashed"
        assert failure.attempts == 3
        assert report.retried == 2
        assert elapsed >= 0.2 + 0.4  # backoff * 2**(attempt-1), twice

    def test_diverging_cell_runs_once_on_the_pool(self, tmp_path):
        runner = CountingRunner(tmp_path / "runs")
        report = run_sweep([diverging_job()], max_workers=1,
                           _job_runner=runner)
        failure = report.failures[0]
        assert failure.error_type == "SimulationDiverged"
        assert failure.attempts == 1
        assert runner.calls == [diverging_job().key]
        assert report.retried == 0 and report.executed == 1

    def test_lost_worker_retries_like_a_crash(self):
        job = SweepJob("exchange2", "age", MEDIUM, N,
                       fault=FaultSpec("crash", at_cycle=50, hard=True))
        retried = []
        report = run_sweep([job], retries=1, backoff=0,
                           on_retry=lambda *args: retried.append(args))
        failure = report.failures[0]
        assert failure.error_type == "WorkerCrashed"
        assert failure.attempts == 2
        assert report.retried == 1
        assert retried == [(job, 2, "WorkerCrashed")]

    def test_worker_loss_kinds_are_one_transient_set(self):
        # Worker losses are the only failures a sweep retries; a timeout
        # is a deterministic result, not a loss.
        from repro.service import supervisor
        from repro.sim import harness

        assert supervisor.WORKER_LOSS_KINDS is WORKER_LOSS_KINDS
        assert WORKER_LOSS_KINDS == ("WorkerCrashed", "WorkerHung")
        assert not hasattr(harness, "TRANSIENT_ERRORS")

    def test_worker_failure_report_crosses_the_process_boundary(self, tmp_path):
        report = run_sweep([diverging_job()], retries=0, cache_dir=tmp_path)
        failure = report.failures[0]
        assert failure.error_type == "SimulationDiverged"
        assert failure.partial_stats is not None
        assert failure.partial_stats.cycles >= 300
        assert len(ResultCache(tmp_path)) == 0  # failures are never cached

    def test_failure_spec_crosses_the_process_boundary(self):
        from repro.verify.replay import replay

        job = SweepJob("exchange2", "age", MEDIUM, N,
                       fault=FaultSpec("corrupt-ready", at_cycle=1200))
        report = run_sweep([job], max_workers=1, retries=0)
        failure = report.failures[0]
        assert failure.error_type == "InvariantViolation"
        outcome = replay(failure.job, trace=False)  # rerun in this process
        assert type(outcome.error).__name__ == failure.error_type
        assert str(outcome.error) == failure.error_message
        assert outcome.final_cycle == failure.cycles == 1200


class TestKilledSweepResumes:
    """``kill -9`` of a CLI sweep mid-run, then the same command again."""

    def test_sigkill_mid_sweep_then_resume(self, tmp_path):
        cache_dir = tmp_path / "cache"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        command = [
            sys.executable, "-m", "repro", "sweep",
            "--workloads", "exchange2", "leela", "--policies", "age", "swque",
            "--instructions", "3000", "--jobs", "1",
            "--cache-dir", str(cache_dir),
        ]
        proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True, env=env)
        try:
            for line in proc.stdout:
                if line.startswith("[1/4]"):
                    break
            else:
                pytest.fail("the sweep ended without a progress line")
            proc.send_signal(signal.SIGKILL)
            assert proc.wait(timeout=30) == -signal.SIGKILL
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        finished = len(ResultCache(cache_dir))
        assert 1 <= finished <= 4

        rerun = subprocess.run(command, capture_output=True, text=True,
                               env=env, timeout=300)
        assert rerun.returncode == 0, rerun.stderr
        assert (
            f"sweep: 4 cells, 4 ok, 0 failed ({finished} restored from "
            f"cache, {4 - finished} executed)"
        ) in rerun.stdout
        # Restored cells count towards the progress, so it reaches its
        # total; the summary above shows only the missing cells ran.
        progress = [line for line in rerun.stdout.splitlines()
                    if line.startswith("[")]
        assert [line.split("]")[0] for line in progress] == [
            "[1/4", "[2/4", "[3/4", "[4/4"]
        assert len(ResultCache(cache_dir)) == 4


class TestRunnersOnTheHarness:
    def test_run_policies_contract_preserved(self):
        results = run_policies(["exchange2"], ["shift", "rand"],
                               num_instructions=N, seed=3)
        assert set(results) == {"exchange2"}
        assert list(results["exchange2"]) == ["shift", "rand"]
        assert all(r.ipc > 0 for r in results["exchange2"].values())

    def test_run_policies_shares_one_trace_per_workload(self):
        results = run_policies(["exchange2"], ["shift", "age"],
                               num_instructions=N)
        a, b = results["exchange2"].values()
        # Identical instruction streams: identical committed counts.
        assert a.stats.committed == b.stats.committed
        assert a.num_instructions == b.num_instructions == N

    def test_run_policies_reraises_the_original_error(self):
        # The unknown-benchmark KeyError surfaces from inside a cell;
        # fail-fast mode must re-raise it, not wrap it in SweepFailed.
        with pytest.raises(KeyError, match="unknown benchmark"):
            run_policies(["nosuchbench"], ["age"], num_instructions=N)


class TestGracefulInterrupt:
    """SIGINT/SIGTERM yield a flushed partial report, not a mid-write death."""

    def grid(self):
        return make_grid(["exchange2", "leela"], ["age"], num_instructions=N)

    def interrupt_on_second(self):
        calls = []

        def runner(job, _trace_cache=None):
            calls.append(job.key)
            if len(calls) == 2:
                raise KeyboardInterrupt("simulated Ctrl-C")
            return _run_job(job, _trace_cache)

        return runner

    def test_partial_report_with_flushed_checkpoint(self, tmp_path):
        jobs = self.grid()
        report = run_sweep(jobs, max_workers=0, cache_dir=tmp_path,
                           _job_runner=self.interrupt_on_second())
        assert report.interrupted
        assert list(report.cells) == [jobs[0].key]   # only the finished cell
        assert report.cells[jobs[0].key].ok
        assert "interrupted" in report.summary()
        # The finished cell, and only it, is already in the cache.
        cache = ResultCache(tmp_path)
        assert len(cache) == 1 and cache_key(jobs[0]) in cache

    def test_interrupted_sweep_resumes_to_completion(self, tmp_path):
        jobs = self.grid()
        run_sweep(jobs, max_workers=0, cache_dir=tmp_path,
                  _job_runner=self.interrupt_on_second())
        report = run_sweep(jobs, max_workers=0, cache_dir=tmp_path)
        assert not report.interrupted
        assert report.restored == 1 and report.executed == 1
        assert report.all_ok and len(report.cells) == 2

    def test_report_round_trips_interrupted_flag(self):
        report = run_sweep(self.grid(), max_workers=0,
                           _job_runner=self.interrupt_on_second())
        from repro.sim.harness import SweepReport

        rebuilt = SweepReport.from_dict(report.to_dict())
        assert rebuilt.interrupted

    def test_real_sigterm_is_handled_gracefully(self, tmp_path):
        calls = []

        def terminating_runner(job, _trace_cache=None):
            result = _run_job(job, _trace_cache)
            calls.append(job.key)
            if len(calls) == 1:
                os.kill(os.getpid(), signal.SIGTERM)
            return result

        report = run_sweep(self.grid(), max_workers=0, cache_dir=tmp_path,
                           _job_runner=terminating_runner)
        assert report.interrupted
        assert len(report.cells) < 2
        # Every reported cell is cached; nothing else is.
        assert len(ResultCache(tmp_path)) == len(report.cells)
        # The handler was restored on the way out.
        assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL

    def test_handlers_restored_after_clean_sweep(self):
        before_int = signal.getsignal(signal.SIGINT)
        before_term = signal.getsignal(signal.SIGTERM)
        run_sweep(self.grid()[:1], max_workers=0)
        assert signal.getsignal(signal.SIGINT) is before_int
        assert signal.getsignal(signal.SIGTERM) is before_term
