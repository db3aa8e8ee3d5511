"""Ablation benchmarks for the design choices DESIGN.md calls out.

These go beyond the paper's own tables: each one isolates one modelling
or design decision and asserts the direction of its effect.
"""

from repro.sim.ablations import ABLATIONS

from bench_util import record

EXPERIMENTS = list(ABLATIONS)


def test_wrong_path_ablation(payloads):
    """Wrong-path contention is what makes issue priority matter."""
    out = payloads["abl-wrong-path"]
    record("abl_wrong_path", out)
    with_wp = out["wrong_path"]["shift_over_rand"]
    without = out["stall_on_mispredict"]["shift_over_rand"]
    assert with_wp > 0.05            # age order wins clearly with junk around
    assert without < with_wp / 2     # the effect collapses without it


def test_related_work_comparison(payloads):
    """SWQUE vs Section 5 baselines, plus the criticality-oracle bound."""
    out = payloads["abl-related-work"]
    record("abl_related_work", out)
    # The unimplementable oracle bounds everything from above.
    assert out["critical-oracle"] > out["swque"]
    assert out["critical-oracle"] > out["oldq"]
    # All priority-improving schemes beat plain AGE on the m-ILP panel.
    assert out["swque"] > 0
    assert out["oldq"] > 0
    assert out["hsw"] > -0.01


def test_iq_size_sweep(payloads):
    """CIRC-PC's capacity handicap shrinks as the queue grows."""
    out = payloads["abl-iq-size"]
    record("abl_iq_size_sweep", out)
    sizes = sorted(out)
    # The smallest queue is CIRC-PC's worst point relative to AGE.
    assert out[sizes[0]] == min(out.values())
    # At the paper's sizes, CIRC-PC is ahead.
    assert out[128] > 0


def test_flpi_region_sweep(payloads):
    """Larger FLPI regions push SWQUE out of CIRC-PC mode on m-ILP."""
    out = payloads["abl-flpi-region"]
    record("abl_flpi_region_sweep", out)
    fractions = sorted(out)
    shares = [out[f]["circ_pc_share"] for f in fractions]
    # CIRC-PC residency decreases (weakly) as the region grows.
    assert shares[0] >= shares[-1]
    assert shares[0] > 0.5           # the calibrated default stays in CIRC-PC


def test_switch_interval_sweep(payloads):
    """SWQUE tolerates a wide range of switch intervals."""
    out = payloads["abl-switch-interval"]
    record("abl_switch_interval_sweep", out)
    # No catastrophic setting: all intervals stay within a few percent of
    # the best one.
    best = max(out.values())
    assert all(v > best - 0.06 for v in out.values())


def test_prefetch_ablation(payloads):
    """The stream prefetcher matters on memory-intensive programs."""
    out = payloads["abl-prefetch"]
    record("abl_prefetch", out)
    assert out["speedup_from_prefetch"] > -0.02
