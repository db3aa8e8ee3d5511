"""Figure 10: breakdown of execution cycles by SWQUE mode.

Paper shape: moderate-ILP programs spend most of their time in CIRC-PC
mode; memory-intensive (MLP) and rich-ILP programs are essentially
configured as AGE.
"""

from bench_util import record

EXPERIMENTS = ["fig10"]


def test_figure10(payloads):
    out = payloads["fig10"]
    record("fig10_mode_breakdown", out)
    milp = [e["circ-pc"] for e in out.values() if e["class"] == "m-ILP"]
    mlp = [e["circ-pc"] for e in out.values() if e["class"] == "MLP"]
    # m-ILP programs favour CIRC-PC mode...
    assert sum(milp) / len(milp) > 0.5
    assert max(milp) > 0.9
    # ...while MLP programs run (almost) entirely as AGE.
    assert all(frac < 0.15 for frac in mlp)
