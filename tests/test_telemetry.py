"""Tests for the telemetry subsystem (repro.telemetry).

Covers the interval sampler's boundary math, the disabled fast path, the
Chrome-trace exporter's schema, the agreement between mode-switch events
and the aggregate counters, and the statistics-isolation audit: no
counter leaks across back-to-back runs, and a replay reproduces the
original run's time series bit-identically.
"""

from __future__ import annotations

import json

import pytest

from repro.cpu.stats import PipelineStats
from repro.sim import simulate
from repro.sim.harness import SweepJob, make_grid, run_sweep
from repro.telemetry import (
    EV_MODE_SWITCH,
    EV_MODE_SWITCH_DECIDED,
    Telemetry,
    TelemetryConfig,
    chrome_trace,
    export_run,
    read_jsonl,
    resolve_telemetry,
    validate_chrome_trace,
)
from repro.verify import replay

#: Instruction budget: long enough for several intervals and (for the
#: MLP workloads) at least one SWQUE mode switch, short enough for CI.
N = 12_000
INTERVAL = 700  # deliberately does not divide any run's cycle count


def run_with_telemetry(workload="exchange2", policy="swque", n=N, **kwargs):
    kwargs.setdefault("warmup_instructions", 0)
    kwargs.setdefault("telemetry", TelemetryConfig(interval=INTERVAL))
    return simulate(workload, policy, num_instructions=n, **kwargs)


class TestIntervalMath:
    """Samples tile the run exactly: contiguous, complete, delta-exact."""

    def test_samples_are_contiguous_and_cover_every_cycle(self):
        result = run_with_telemetry()
        tel = result.telemetry
        assert len(tel.samples) >= 3
        assert tel.samples[0].cycle_start == 0
        for prev, cur in zip(tel.samples, tel.samples[1:]):
            assert cur.cycle_start == prev.cycle_end
            assert cur.index == prev.index + 1
        # Every full interval spans exactly INTERVAL cycles; only the
        # final (flushed) one may be shorter.
        for sample in tel.samples[:-1]:
            assert sample.cycles == INTERVAL
        assert 0 < tel.samples[-1].cycles <= INTERVAL
        assert tel.samples[-1].cycle_end == result.stats.cycles

    def test_deltas_sum_to_run_totals(self):
        result = run_with_telemetry(workload="xz")
        tel = result.telemetry
        for key in ("committed", "issued", "dispatched", "llc_misses",
                    "branch_mispredicts", "mode_switches"):
            total = sum(s.deltas[key] for s in tel.samples)
            assert total == getattr(result.stats, key), key

    def test_non_divisible_run_length_keeps_partial_tail(self):
        result = run_with_telemetry(n=3_000)
        tel = result.telemetry
        cycles = result.stats.cycles
        assert cycles % INTERVAL != 0  # the case under test
        assert sum(s.cycles for s in tel.samples) == cycles

    def test_occupancy_histogram_counts_every_cycle(self):
        result = run_with_telemetry()
        for sample in result.telemetry.samples:
            assert sum(sample.occupancy_hist) == sample.cycles
            assert len(sample.occupancy_hist) == 8  # default buckets

    def test_warmup_reset_rebaselines_instead_of_going_negative(self):
        # With warmup on, the counters reset mid-run; no sample may ever
        # report a negative delta, and the reset leaves a marker event.
        result = simulate(
            "exchange2", "swque", num_instructions=N,
            telemetry=TelemetryConfig(interval=INTERVAL),
        )
        tel = result.telemetry
        assert tel.events_named("warmup_reset")
        for sample in tel.samples:
            for key, value in sample.deltas.items():
                assert value >= 0, (sample.index, key)


class TestDisabledFastPath:
    """Disabled telemetry must observe nothing and allocate nothing."""

    def test_disabled_records_nothing(self):
        tel = Telemetry(enabled=False)
        result = simulate(
            "exchange2", "swque", num_instructions=3_000,
            warmup_instructions=0, telemetry=tel,
        )
        assert result.telemetry is tel
        assert tel.samples == []
        assert tel.events == []
        assert tel._base is None  # never captured a baseline
        tel.event("anything")  # no-op, not an error
        assert tel.events == []

    def test_detached_pipeline_has_no_sink(self):
        result = simulate(
            "exchange2", "swque", num_instructions=3_000,
            warmup_instructions=0,
        )
        assert result.telemetry is None

    def test_resolve_telemetry_forms(self):
        assert resolve_telemetry(None) is None
        assert resolve_telemetry(False) is None
        assert isinstance(resolve_telemetry(True), Telemetry)
        cfg = TelemetryConfig(interval=123)
        assert resolve_telemetry(cfg).config.interval == 123
        tel = Telemetry()
        assert resolve_telemetry(tel) is tel
        with pytest.raises(TypeError):
            resolve_telemetry("yes")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TelemetryConfig(interval=0)
        with pytest.raises(ValueError):
            TelemetryConfig(occupancy_buckets=0)
        with pytest.raises(ValueError):
            TelemetryConfig(max_events=0)


class TestModeSwitchAgreement:
    """Event trace and aggregate counters must tell the same story."""

    def test_switch_events_match_stats(self):
        result = run_with_telemetry(workload="xz", n=30_000)
        tel = result.telemetry
        switches = tel.events_named(EV_MODE_SWITCH)
        assert result.stats.mode_switches >= 1  # xz actually switches
        assert len(switches) == result.stats.mode_switches
        assert switches[-1].args["total_switches"] == result.stats.mode_switches

    def test_decision_events_carry_consistent_trigger_metrics(self):
        result = run_with_telemetry(workload="xz", n=30_000)
        decisions = result.telemetry.events_named(EV_MODE_SWITCH_DECIDED)
        assert decisions
        for event in decisions:
            args = event.args
            assert args["mpki_high"] == (args["mpki"] > args["mpki_threshold"])
            assert args["flpi_high"] == (args["flpi"] > args["flpi_threshold"])
            expected = "age" if (args["mpki_high"] or args["flpi_high"]) else "circ-pc"
            assert args["to_mode"] == expected
            assert args["from_mode"] != args["to_mode"]

    def test_decision_metrics_agree_with_interval_series(self):
        # The MPKI the decision saw must be in the neighbourhood of what
        # the interval series measured around the switch cycle: both are
        # derived from the same llc_misses/committed counters, just over
        # slightly different windows (committed-count vs cycle-count).
        result = run_with_telemetry(workload="xz", n=30_000)
        tel = result.telemetry
        for event in tel.events_named(EV_MODE_SWITCH_DECIDED):
            around = [
                s for s in tel.samples
                if s.cycle_start <= event.cycle
                and event.cycle <= s.cycle_end + 2 * INTERVAL
            ]
            assert around
            if event.args["mpki_high"]:
                assert any(
                    s.mpki > event.args["mpki_threshold"] for s in around
                )


class TestExport:
    """JSONL and Chrome-trace artifacts: well-formed and loadable."""

    def test_export_run_writes_three_artifacts(self, tmp_path):
        result = run_with_telemetry(workload="xz", n=30_000)
        paths = export_run(result.telemetry, tmp_path, "cell",
                           meta={"workload": "xz"})
        assert set(paths) == {"timeline", "events", "trace"}
        for path in paths.values():
            assert path.exists() and path.stat().st_size > 0

    def test_timeline_jsonl_roundtrip(self, tmp_path):
        result = run_with_telemetry()
        tel = result.telemetry
        paths = export_run(tel, tmp_path, "cell")
        rows = read_jsonl(paths["timeline"])
        header, intervals = rows[0], rows[1:]
        assert header["record"] == "header"
        assert header["samples"] == len(tel.samples)
        assert len(intervals) == len(tel.samples)
        for row, sample in zip(intervals, tel.samples):
            assert row["record"] == "interval"
            assert row["cycle_start"] == sample.cycle_start
            assert row["flpi"] == pytest.approx(sample.flpi)
            assert row["mode"] == sample.mode

    def test_chrome_trace_schema(self, tmp_path):
        result = run_with_telemetry(workload="xz", n=30_000)
        document = chrome_trace(result.telemetry, meta={"workload": "xz"})
        validate_chrome_trace(document)  # must not raise
        events = document["traceEvents"]
        phases = {e["ph"] for e in events}
        assert "C" in phases  # counter series
        assert "X" in phases  # mode spans
        assert "i" in phases  # instant events
        # The document is loadable as plain JSON (what Perfetto ingests).
        json.loads(json.dumps(document))

    def test_validate_chrome_trace_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"no": "traceEvents"})
        good = {"traceEvents": [
            {"name": "x", "ph": "i", "ts": 0, "pid": 1, "tid": 1, "s": "g"},
        ]}
        validate_chrome_trace(good)
        bad_phase = {"traceEvents": [
            {"name": "x", "ph": "?", "ts": 0, "pid": 1, "tid": 1},
        ]}
        with pytest.raises(ValueError):
            validate_chrome_trace(bad_phase)
        negative_ts = {"traceEvents": [
            {"name": "x", "ph": "i", "ts": -1, "pid": 1, "tid": 1},
        ]}
        with pytest.raises(ValueError):
            validate_chrome_trace(negative_ts)

    def test_event_cap_drops_not_grows(self):
        tel = Telemetry(TelemetryConfig(max_events=3))
        tel.enabled = True
        for i in range(10):
            tel.event("e", cycle=i)
        assert len(tel.events) == 3
        assert tel.dropped_events == 7


class TestStatsIsolation:
    """Satellite audit: no state leaks between back-to-back runs."""

    def test_back_to_back_simulates_are_identical(self):
        first = simulate("exchange2", "swque", num_instructions=5_000)
        second = simulate("exchange2", "swque", num_instructions=5_000)
        assert first.commit_digest == second.commit_digest
        assert first.stats.as_dict() == second.stats.as_dict()
        assert first.stats is not second.stats  # fresh instance per run

    def test_reset_zeroes_every_counter(self):
        stats = PipelineStats()
        for name in stats.__dataclass_fields__:
            if name != "extra":
                setattr(stats, name, 7)
        stats.extra["x"] = 1
        stats.reset()
        for name in stats.__dataclass_fields__:
            if name == "extra":
                assert stats.extra == {}
            else:
                assert getattr(stats, name) == 0, name

    def test_capture_excludes_extra_and_copies(self):
        stats = PipelineStats(cycles=5, committed=3)
        stats.extra["x"] = 1
        snap = stats.capture()
        assert "extra" not in snap
        assert snap["cycles"] == 5
        stats.cycles = 99
        assert snap["cycles"] == 5  # a copy, not a view


class TestReplayTelemetry:
    """A replay samples the same intervals as the run it reproduces."""

    def test_replay_reproduces_the_time_series_bit_identically(self):
        # The default warmup resets the counters mid-run; the replay loop
        # must reset them at the same cycle for the series to agree.
        baseline = simulate("exchange2", "swque", num_instructions=8_000,
                            telemetry=TelemetryConfig(interval=INTERVAL))
        outcome = replay(SweepJob("exchange2", "swque", num_instructions=8_000),
                         trace=False, telemetry_interval=INTERVAL)
        assert outcome.commit_digest == baseline.commit_digest
        base_series = [s.as_dict() for s in baseline.telemetry.samples]
        replay_series = [s.as_dict() for s in outcome.telemetry.samples]
        assert replay_series == base_series

    def test_replay_attaches_full_resolution_telemetry(self):
        outcome = replay(SweepJob("exchange2", "swque", num_instructions=6_000,
                                  warmup_instructions=0),
                         cycles=1_200, trace=False, telemetry_interval=300)
        assert outcome.telemetry is not None
        assert outcome.telemetry.config.interval == 300
        assert outcome.telemetry.samples  # the window was sampled


class TestHarnessTelemetry:
    """Per-cell artifact export through the sweep harness."""

    def test_inline_sweep_exports_per_cell_artifacts(self, tmp_path):
        jobs = make_grid(["exchange2", "xz"], ["swque"],
                         num_instructions=4_000)
        report = run_sweep(jobs, max_workers=0, telemetry_dir=tmp_path)
        assert report.all_ok
        for job in jobs:
            stems = {p.name for p in tmp_path.iterdir()}
            for suffix in (".timeline.jsonl", ".events.jsonl", ".trace.json"):
                assert any(s.endswith(suffix) for s in stems)
        # Results crossing cache/pipe boundaries stay light: the
        # sink is stripped after export.
        for result in report.cells.values():
            assert result.telemetry is None

    def test_telemetry_off_by_default_in_sweeps(self, tmp_path):
        jobs = make_grid(["exchange2"], ["age"], num_instructions=3_000)
        report = run_sweep(jobs, max_workers=0)
        assert report.all_ok
        assert all(r.telemetry is None for r in report.cells.values())
