"""End-to-end pipeline tests on hand-built traces."""

import pytest

from repro.config import MEDIUM, ProcessorConfig
from repro.core.factory import build_issue_queue
from repro.cpu.isa import OpClass
from repro.cpu.pipeline import Pipeline, SimulationDiverged
from repro.cpu.stats import PipelineStats
from repro.cpu.trace import Trace, TraceInstruction


def build_pipeline(insts, policy="shift", config=MEDIUM, warm_code=True):
    trace = Trace(insts)
    stats = PipelineStats()
    iq = build_issue_queue(policy, config, stats=stats)
    pipeline = Pipeline(trace, config, iq, stats=stats)
    if warm_code:
        # Tiny hand-built traces run once; pre-warm their code lines so
        # cold I-cache misses don't dominate the timing under test.
        for inst in insts:
            pipeline.hierarchy.l1i.fill(inst.pc >> 6)
            pipeline.hierarchy.l2.fill(inst.pc >> 6)
    return pipeline


def alu(seq, dest=1, srcs=()):
    return TraceInstruction(seq, OpClass.IALU, pc=0x1000 + 4 * seq,
                            dest=dest, srcs=srcs)


def load(seq, dest, addr, srcs=()):
    return TraceInstruction(seq, OpClass.LOAD, pc=0x1000 + 4 * seq,
                            dest=dest, srcs=srcs, mem_addr=addr)


def branch(seq, taken, srcs=()):
    return TraceInstruction(seq, OpClass.BRANCH, pc=0x1000 + 4 * seq,
                            srcs=srcs, taken=taken, target=0x8000)


class TestBasicExecution:
    def test_all_instructions_commit(self):
        pl = build_pipeline([alu(i, dest=1 + i % 8) for i in range(100)])
        stats = pl.run()
        assert stats.committed == 100

    def test_independent_ops_reach_fu_limit(self):
        # 90 independent iALU ops on a 3-ALU machine: ~3 IPC steady state.
        insts = [alu(i, dest=1 + i % 24) for i in range(90)]
        stats = build_pipeline(insts).run()
        assert stats.ipc > 2.0

    def test_serial_chain_runs_at_one_ipc(self):
        insts = [alu(0, dest=1)] + [alu(i, dest=1, srcs=(1,)) for i in range(1, 80)]
        stats = build_pipeline(insts).run()
        # Back-to-back dependent single-cycle ops: asymptotically 1 IPC.
        assert 0.7 < stats.ipc <= 1.0

    def test_dependent_pair_back_to_back(self):
        insts = [alu(0, dest=1), alu(1, dest=2, srcs=(1,)), alu(2, dest=3, srcs=(2,))]
        pl = build_pipeline(insts)
        pl.run()
        a, b = None, None
        # Completion cycles embedded in the trace's DynInsts are gone; use
        # cycle counts instead: 3 chained ops take ~5 cycles total.
        assert pl.stats.cycles <= 8

    def test_empty_machine_halts(self):
        stats = build_pipeline([alu(0)]).run()
        assert stats.committed == 1


class TestMemoryBehaviour:
    def test_load_latency_observed(self):
        # Dependent loads to distinct cold lines serialize on DRAM latency.
        insts = [load(0, dest=1, addr=0x10_0000)]
        for i in range(1, 5):
            insts.append(load(i, dest=1, addr=0x10_0000 + 0x10000 * i, srcs=(1,)))
        stats = build_pipeline(insts).run()
        assert stats.cycles > 4 * MEDIUM.memory_latency

    def test_independent_misses_overlap(self):
        insts = [load(i, dest=1 + i, addr=0x10_0000 + 0x10000 * i) for i in range(5)]
        stats = build_pipeline(insts).run()
        assert stats.cycles < 2.2 * MEDIUM.memory_latency

    def test_store_forwarding_beats_cache(self):
        insts = [
            alu(0, dest=1),
            TraceInstruction(1, OpClass.STORE, pc=0x1004, srcs=(1, 1),
                             mem_addr=0x20_0000),
            load(2, dest=2, addr=0x20_0000),
        ]
        stats = build_pipeline(insts).run()
        assert stats.store_forwards == 1
        assert stats.cycles < 50  # no DRAM round trip for the load

    def test_lsq_fills_and_stalls(self):
        config = ProcessorConfig(lsq_entries=8)
        insts = [load(i, dest=1 + i % 8, addr=0x10_0000 + 64 * i) for i in range(64)]
        pl = build_pipeline(insts, config=config)
        stats = pl.run()
        assert stats.dispatch_stall_lsq > 0
        assert stats.committed == 64


class TestBranchHandling:
    def test_predictable_branches_cheap(self):
        # Reuse the same branch PC (a loop) so the predictor can learn.
        insts = []
        for i in range(0, 200, 2):
            insts.append(alu(i, dest=1))
            insts.append(TraceInstruction(i + 1, OpClass.BRANCH, pc=0x2004,
                                          taken=False))
        stats = build_pipeline(insts).run()
        assert stats.branch_mispredicts < 12  # warmup only

    def test_mispredict_squashes_wrong_path(self):
        import random
        rng = random.Random(3)
        insts = []
        seq = 0
        for _ in range(80):
            insts.append(alu(seq, dest=1))
            seq += 1
            insts.append(branch(seq, taken=rng.random() < 0.5))
            seq += 1
        stats = build_pipeline(insts).run()
        assert stats.branch_mispredicts > 10
        assert stats.wrong_path_dispatched > 0
        assert stats.squashed_instructions > 0
        assert stats.committed == len(insts)

    def test_wrong_path_never_commits(self):
        insts = [branch(0, taken=True), alu(1, dest=1)]
        stats = build_pipeline(insts).run()
        assert stats.committed == 2


class TestRecoveryAndLimits:
    def test_there_is_no_engine_option(self):
        # One cycle engine: callers probing for the removed fast-forward
        # option get a TypeError and fall back to the plain constructor.
        trace = Trace([alu(0)])
        stats = PipelineStats()
        iq = build_issue_queue("age", MEDIUM, stats=stats)
        with pytest.raises(TypeError):
            Pipeline(trace, MEDIUM, iq, stats=stats, fast=True)

    def test_divergence_guard(self):
        pl = build_pipeline([alu(i, dest=1, srcs=(1,)) for i in range(50)])
        with pytest.raises(SimulationDiverged):
            pl.run(max_cycles=3)

    def test_warmup_reset_preserves_total_commit_rate(self):
        insts = [alu(i, dest=1 + i % 8) for i in range(400)]
        stats = build_pipeline(insts).run(warmup_instructions=200)
        assert 190 <= stats.committed <= 200  # post-warmup commits only
        assert stats.ipc > 0

    def test_swque_flush_recovers_state(self):
        # Force frequent mode evaluation with a tiny interval.
        from dataclasses import replace
        config = replace(
            MEDIUM, swque=replace(MEDIUM.swque, switch_interval=100)
        )
        insts = []
        for i in range(600):
            insts.append(
                load(i, dest=1 + i % 8, addr=0x10_0000 + 0x10000 * i)
                if i % 3 == 0
                else alu(i, dest=1 + i % 8)
            )
        pl = build_pipeline(insts, policy="swque", config=config)
        stats = pl.run()
        assert stats.committed == 600
        assert stats.mode_switches >= 1
        assert stats.flush_cycles >= stats.mode_switches * config.swque.switch_penalty


class TestPolicyEquivalenceOnTinyTraces:
    def test_all_policies_commit_everything(self):
        insts = [alu(i, dest=1 + i % 4, srcs=(1 + (i - 1) % 4,) if i else ())
                 for i in range(200)]
        for policy in ("shift", "rand", "age", "age-multi", "circ",
                       "circ-ppri", "circ-pc", "swque", "swque-multi"):
            stats = build_pipeline(insts, policy=policy).run()
            assert stats.committed == 200, policy

    def test_shift_never_slower_than_rand_on_priority_trace(self):
        import random
        rng = random.Random(11)
        insts = []
        seq = 0
        # A long dependent chain interleaved with independent filler and
        # unpredictable branches reading the chain.
        for _ in range(120):
            insts.append(alu(seq, dest=1, srcs=(1,)))
            seq += 1
            for _ in range(3):
                insts.append(alu(seq, dest=2 + seq % 6))
                seq += 1
            if rng.random() < 0.4:
                insts.append(branch(seq, taken=rng.random() < 0.5, srcs=(1,)))
                seq += 1
        shift = build_pipeline(insts, policy="shift").run()
        rand = build_pipeline(insts, policy="rand").run()
        assert shift.cycles <= rand.cycles
