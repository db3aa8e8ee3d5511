"""Tests for the public simulation API and result helpers."""

import math

import pytest

from repro import MEDIUM, SimResult, geomean, simulate, speedup
from repro.cpu.stats import PipelineStats
from repro.sim.results import geomean_speedup
from repro.sim.runner import format_table, run_policies
from repro.workloads.generator import generate_trace
from repro.workloads.spec2017 import get_profile


class TestSimulateApi:
    def test_by_name(self):
        result = simulate("exchange2", "age", num_instructions=4000)
        assert result.workload == "exchange2"
        assert result.policy == "age"
        assert result.ipc > 0

    def test_by_profile(self):
        result = simulate(get_profile("leela"), "shift", num_instructions=4000)
        assert result.workload == "leela"

    def test_by_trace(self):
        trace = generate_trace(get_profile("x264"), 4000)
        result = simulate(trace, "circ")
        assert result.num_instructions == 4000

    def test_deterministic(self):
        a = simulate("nab", "age", num_instructions=4000, seed=3)
        b = simulate("nab", "age", num_instructions=4000, seed=3)
        assert a.ipc == b.ipc
        assert a.stats.cycles == b.stats.cycles

    def test_swque_reports_modes(self):
        result = simulate("deepsjeng", "swque", num_instructions=8000)
        assert set(result.mode_fractions) == {"circ-pc", "age"}
        assert sum(result.mode_fractions.values()) == pytest.approx(1.0)

    def test_non_swque_has_no_modes(self):
        result = simulate("deepsjeng", "age", num_instructions=4000)
        assert result.mode_fractions == {}

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            simulate("leela", "fifo", num_instructions=1000)

    def test_bad_workload_type_rejected(self):
        with pytest.raises(TypeError):
            simulate(42, "age")

    def test_summary_renders(self):
        result = simulate("cam4", "swque", num_instructions=4000)
        text = result.summary()
        assert "cam4" in text and "IPC" in text


class TestRunner:
    def test_shared_trace_across_policies(self):
        results = run_policies(["exchange2"], ["shift", "rand"],
                               num_instructions=4000)
        assert set(results["exchange2"]) == {"shift", "rand"}
        assert results["exchange2"]["shift"].num_instructions == 4000

    def test_format_table_alignment(self):
        text = format_table(["name", "ipc"], [["a", 1.5], ["longer", 0.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line.rstrip()) for line in lines[2:])) >= 1
        assert "1.500" in text


class TestResultHelpers:
    def _result(self, ipc):
        stats = PipelineStats()
        stats.cycles = 1000
        stats.committed = int(1000 * ipc)
        return SimResult("w", "p", "medium", stats.committed, stats)

    def test_speedup(self):
        assert speedup(self._result(1.2), self._result(1.0)) == pytest.approx(0.2)

    def test_speedup_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            speedup(self._result(1.0), self._result(0.0))

    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)

    def test_geomean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])
        with pytest.raises(ValueError):
            geomean([])

    def test_geomean_speedup(self):
        results = {"a": {"x": self._result(1.1), "base": self._result(1.0)},
                   "b": {"x": self._result(1.21), "base": self._result(1.1)}}
        value = geomean_speedup(results, ["a", "b"], "x", "base")
        assert value == pytest.approx(0.1, abs=1e-9)

    def test_stats_as_dict_contains_derived(self):
        stats = PipelineStats()
        stats.cycles = 10
        stats.committed = 25
        data = stats.as_dict()
        assert data["ipc"] == pytest.approx(2.5)
        assert "mpki" in data and "mean_iq_occupancy" in data
