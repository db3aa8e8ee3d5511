"""Chaos tests: fault injection must trip the always-on invariant guards.

Also the guard layer's own contract: its modes (``full`` / ``sampled`` /
``off``) validate and default correctly, sampled guards still catch
persistent corruption, and the checks are side-effect free, so every
mode gives bit-identical results for every policy.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MEDIUM, SMALL, get_config
from repro.core.base import GUARD_SAMPLE_PERIOD, InvariantViolation
from repro.core.factory import IQ_POLICIES, build_issue_queue
from repro.core.swque import MODE_AGE, MODE_CIRC_PC, SwitchingQueue
from repro.cpu.pipeline import Pipeline, SimulationDiverged
from repro.cpu.stats import PipelineStats
from repro.sim.faults import FAULT_KINDS, FaultInjector, FaultSpec, InjectedFault
from repro.sim.simulator import simulate
from repro.telemetry import Telemetry, TelemetryConfig
from repro.workloads.generator import generate_trace
from repro.workloads.spec2017 import get_profile

N = 3000


def build_pipeline(policy="age", n=N, guards="full", workload="exchange2",
                   config=MEDIUM, **kwargs):
    # Full guards by default: these tests corrupt state and expect
    # detection on the very next cycle, which sampled guards
    # deliberately do not promise.  ``guards=None`` picks the default.
    trace = generate_trace(get_profile(workload), n)
    stats = PipelineStats()
    iq = build_issue_queue(policy, config, stats=stats, trace=trace)
    return Pipeline(trace, config, iq, stats=stats, guards=guards, **kwargs)


def guarded_run(policy, workload, guards, n=2500, seed=None, config=MEDIUM):
    """One telemetry-attached run under one guard mode; telemetry makes
    the comparison stricter (interval samples and event cycles must line
    up, not just totals)."""
    trace = generate_trace(get_profile(workload), n, seed=seed)
    stats = PipelineStats()
    iq = build_issue_queue(policy, config, stats=stats, trace=trace)
    pipeline = Pipeline(trace, config, iq, stats=stats, guards=guards)
    Telemetry(TelemetryConfig(interval=500)).attach(pipeline)
    pipeline.run(warmup_instructions=0)
    return pipeline


def assert_bit_identical(a, b):
    assert a.cycle == b.cycle
    assert a.commit_digest.hexdigest() == b.commit_digest.hexdigest()
    assert a.stats.as_dict() == b.stats.as_dict()
    assert [s.as_dict() for s in a.telemetry.samples] == [
        s.as_dict() for s in b.telemetry.samples
    ]
    assert [e.as_dict() for e in a.telemetry.events] == [
        e.as_dict() for e in b.telemetry.events
    ]


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("flip-bits")

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError, match="at_cycle"):
            FaultSpec("crash", at_cycle=-1)
        with pytest.raises(ValueError, match="count"):
            FaultSpec("crash", count=0)

    def test_all_kinds_are_constructible(self):
        for kind in FAULT_KINDS:
            FaultInjector(FaultSpec(kind))


class TestFaultInjectionModes:
    """Each chaos mode must be caught by the matching guard."""

    def test_drop_wakeup_degrades_to_divergence_with_partial_stats(self):
        # Dropping every tag broadcast from cycle 200 on starves the ready
        # set; the divergence watchdog must catch the stall and keep the
        # partial progress.
        with pytest.raises(SimulationDiverged) as excinfo:
            simulate("exchange2", "age", num_instructions=2000,
                     max_cycles=5000,
                     faults=FaultSpec("drop-wakeup", at_cycle=200, count=10**9))
        exc = excinfo.value
        assert exc.partial_stats is not None
        assert 0 < exc.partial_stats.committed < 2000
        assert exc.cycles == 5001

    def test_single_dropped_wakeup_is_recovered_by_squash_replay(self):
        # One lost broadcast is repairable: a later mispredict squash
        # re-dispatches the starved consumer, so the run still finishes.
        result = simulate("exchange2", "age", num_instructions=2000,
                          warmup_instructions=0,
                          faults=FaultSpec("drop-wakeup", at_cycle=200))
        assert result.stats.committed == 2000

    @pytest.mark.parametrize("policy", ["age", "swque"])
    def test_corrupt_ready_bit_trips_issue_unready(self, policy):
        with pytest.raises(InvariantViolation) as excinfo:
            simulate("exchange2", policy, num_instructions=N,
                     max_cycles=20_000,
                     faults=FaultSpec("corrupt-ready", at_cycle=200))
        exc = excinfo.value
        assert exc.check == "issue-unready"
        assert exc.cycle is not None and exc.cycle >= 200
        assert exc.partial_stats is not None

    @pytest.mark.parametrize("policy", ["age", "circ-pc"])
    def test_readded_issued_instruction_trips_double_issue(self, policy):
        with pytest.raises(InvariantViolation) as excinfo:
            simulate("exchange2", policy, num_instructions=N,
                     max_cycles=20_000,
                     faults=FaultSpec("readd-issued", at_cycle=200))
        assert excinfo.value.check == "double-issue"

    def test_forced_mode_switch_trips_swque_consistency(self):
        with pytest.raises(InvariantViolation) as excinfo:
            simulate("exchange2", "swque", num_instructions=N,
                     faults=FaultSpec("force-switch", at_cycle=200))
        exc = excinfo.value
        assert exc.check == "swque-mode"
        assert exc.cycle == 200

    def test_force_switch_needs_a_switching_queue(self):
        with pytest.raises(ValueError, match="needs a SWQUE"):
            simulate("exchange2", "age", num_instructions=N,
                     faults=FaultSpec("force-switch", at_cycle=10))

    def test_injected_crash_raises_at_the_armed_cycle(self):
        with pytest.raises(InjectedFault, match="cycle 150"):
            simulate("exchange2", "age", num_instructions=N,
                     faults=FaultSpec("crash", at_cycle=150))


class TestGuardLayer:
    """Direct corruption of pipeline state must be caught within a cycle."""

    def run_until_violation(self, pipeline, max_steps=2000):
        for _ in range(max_steps):
            pipeline.step()
        raise AssertionError("no invariant violation fired")

    def test_iq_occupancy_out_of_bounds(self):
        pipeline = build_pipeline()
        for _ in range(50):
            pipeline.step()
        pipeline.iq.occupancy = pipeline.iq.size + 3
        with pytest.raises(InvariantViolation) as excinfo:
            pipeline.step()
        assert excinfo.value.check == "iq-occupancy"

    def test_rob_over_capacity(self):
        pipeline = build_pipeline()
        # Fill the window well past one commit group, then shrink the
        # capacity underneath it: the next cycle's guard must fire even
        # after that cycle's commits drain up to ``width`` entries.
        want = 2 * pipeline.config.width + 1
        for _ in range(2000):
            if len(pipeline.rob) >= want:
                break
            pipeline.step()
        assert len(pipeline.rob) >= want
        pipeline.rob.capacity = 1
        with pytest.raises(InvariantViolation) as excinfo:
            pipeline.step()
        assert excinfo.value.check == "rob-occupancy"

    def test_commit_order_monotonicity(self):
        pipeline = build_pipeline()
        pipeline._last_commit_seq = 10**9  # pretend we already committed far ahead
        with pytest.raises(InvariantViolation) as excinfo:
            self.run_until_violation(pipeline)
        assert excinfo.value.check == "commit-order"

    @pytest.mark.parametrize("policy", ["rand", "age", "circ", "circ-pc",
                                        "oldq", "swque"])
    def test_ready_list_written_behind_the_queue_trips_ready_mask(self, policy):
        # The ready matrix is the only source of select order; an entry
        # appended to the list directly would never issue, so the guard
        # must report the desync instead of the run silently stalling.
        pipeline = build_pipeline(policy)
        for _ in range(50):
            pipeline.step()
        pipeline.iq.ready.append(pipeline.rob.head())
        with pytest.raises(InvariantViolation) as excinfo:
            pipeline.step()
        assert excinfo.value.check == "iq-ready-mask"

    def test_swque_mode_label_corruption(self):
        stats = PipelineStats()
        iq = SwitchingQueue(32, 4, stats=stats)
        iq.check_invariants()  # consistent at construction
        iq.mode = "turbo"
        with pytest.raises(InvariantViolation, match="unknown mode"):
            iq.check_invariants()

    def test_swque_active_queue_mismatch(self):
        stats = PipelineStats()
        iq = SwitchingQueue(32, 4, stats=stats)
        iq.mode = MODE_AGE  # label flipped without reconfiguring
        with pytest.raises(InvariantViolation) as excinfo:
            iq.check_invariants()
        assert excinfo.value.check == "swque-mode"
        assert "active sub-queue" in excinfo.value.detail

    def test_guards_are_silent_on_a_healthy_run(self):
        # The always-on layer must never fire during normal operation.
        result = simulate("exchange2", "swque", num_instructions=N,
                          warmup_instructions=0)
        assert result.stats.committed == N


class TestGuardModes:
    def test_invalid_guard_mode_is_rejected(self):
        with pytest.raises(ValueError, match="guards"):
            build_pipeline(guards="paranoid")

    def test_default_is_sampled_without_faults(self):
        pipeline = build_pipeline(guards=None)
        assert pipeline.guards == "sampled"
        assert pipeline.iq.guards == "sampled"

    def test_default_is_full_with_faults(self):
        pipeline = build_pipeline(
            guards=None,
            faults=FaultInjector(FaultSpec("crash", at_cycle=10**9)),
        )
        assert pipeline.guards == "full"
        assert pipeline.iq.guards == "full"

    def test_explicit_guards_propagate_to_swque_subqueues(self):
        pipeline = build_pipeline(policy="swque", guards="off")
        iq = pipeline.iq
        assert iq.guards == "off"
        assert iq._circ_pc.guards == "off"
        assert iq._age.guards == "off"

    def test_guard_mode_does_not_change_results(self):
        digests = set()
        for guards in ("full", "sampled", "off"):
            pipeline = build_pipeline(policy="swque", guards=guards)
            pipeline.run(warmup_instructions=0)
            digests.add(pipeline.commit_digest.hexdigest())
        assert len(digests) == 1

    def test_sampled_guards_catch_persistent_corruption(self):
        # Sampled mode trades latency, not coverage: corruption that
        # persists must still trip within one sample period.
        pipeline = build_pipeline(guards="sampled")
        for _ in range(50):
            pipeline.step()
        pipeline.iq.occupancy = pipeline.iq.size + 3
        with pytest.raises(InvariantViolation) as excinfo:
            for _ in range(2 * GUARD_SAMPLE_PERIOD):
                pipeline.step()
        assert excinfo.value.check == "iq-occupancy"


class TestGuardModesBitIdentical:
    """Full guards run every check every cycle; sampled ones 1 in 64.
    Both must leave every policy's run bit for bit the same."""

    @pytest.mark.parametrize("workload", ["exchange2", "nab"])
    @pytest.mark.parametrize("policy", IQ_POLICIES)
    def test_full_matches_sampled(self, policy, workload):
        assert_bit_identical(
            guarded_run(policy, workload, "full"),
            guarded_run(policy, workload, "sampled"),
        )

    def test_full_matches_sampled_on_small_config(self):
        full = guarded_run("swque", "mcf", "full", config=SMALL)
        sampled = guarded_run("swque", "mcf", "sampled", config=SMALL)
        assert full.config.name == "small" == sampled.config.name
        assert_bit_identical(full, sampled)

    def test_small_config_is_registered(self):
        assert get_config("small") is SMALL
        assert SMALL.iq_entries < MEDIUM.iq_entries


@settings(max_examples=10, deadline=None)
@given(
    policy=st.sampled_from(IQ_POLICIES),
    workload=st.sampled_from(["exchange2", "nab", "mcf"]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_guard_modes_bit_identical_property(policy, workload, seed):
    """Property form of the contract: any (policy, workload, seed)."""
    assert_bit_identical(
        guarded_run(policy, workload, "full", n=1500, seed=seed),
        guarded_run(policy, workload, "sampled", n=1500, seed=seed),
    )
