"""Figure 13: relative size of each circuit in SWQUE.

Paper shape: the age matrix is the largest circuit, the tag RAM is small
(which is why its time-sliced double access fits in a cycle), and the
added select logic is 17% of the baseline IQ area.
"""

from bench_util import record

EXPERIMENTS = ["fig13"]


def test_figure13(payloads):
    out = payloads["fig13"]
    record("fig13_circuit_areas", out)
    circuits = {k: v for k, v in out.items() if not k.startswith("extra")}
    assert max(circuits, key=circuits.get) == "age_matrix"
    assert min(circuits, key=circuits.get) == "tag_ram"
    assert abs(out["extra_select (S_RV)"] - 0.17) < 1e-3
