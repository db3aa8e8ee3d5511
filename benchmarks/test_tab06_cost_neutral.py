"""Table 6: additional cost and the cost-neutral comparison.

Paper shape: the extra select logic costs 0.0029 mm^2 (0.034% of a
Skylake core, 0.010% of the chip).  Spending the same area on 17% more
AGE entries (150) instead buys nothing (the paper even measures a slight
loss), while SWQUE's gain is large -- priority, not capacity, is what the
moderate-ILP programs need.
"""

from bench_util import record

EXPERIMENTS = ["tab6"]


def test_table6(payloads):
    out = payloads["tab6"]
    record("tab06_cost_neutral", out)
    assert abs(out["additional_area_mm2"] - 0.0029) < 1e-6
    assert abs(out["vs_skylake_core"] - 0.00034) < 1e-5
    assert abs(out["vs_skylake_chip"] - 0.00010) < 1e-5
    assert out["age_entries_cost_neutral"] == 150
    # SWQUE's win dwarfs what the same area buys as extra AGE capacity.
    assert out["swque_vs_age_int"] > out["age150_vs_age_int"] + 0.01
    assert abs(out["age150_vs_age_int"]) < 0.02
