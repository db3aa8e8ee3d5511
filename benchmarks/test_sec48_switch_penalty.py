"""Section 4.8: switch-penalty sensitivity.

Paper shape: raising the mode-switch penalty from 10 to 40 cycles costs
only ~0.02% because transitions are rare (~8 per million cycles).
"""

from bench_util import record

EXPERIMENTS = ["sec48"]


def test_section48(payloads):
    out = payloads["sec48"]
    record("sec48_switch_penalty", out)
    # Quadrupling the penalty is almost free...
    assert abs(out["degradation_at_40"]) < 0.01
    # ...because switches are rare (same order as the paper's 8/Mcycle;
    # short warm runs see a few more because start-up transitions weigh in).
    assert out["switches_per_mcycle_mean"] < 200
