"""Figure 9: per-program SWQUE speedup over AGE, medium and large models.

Paper shape: speedups concentrate in the moderate-ILP programs; MLP and
rich-ILP programs see roughly nothing (SWQUE configures itself as AGE
there); the large processor widens the advantage (paper: INT 9.7% -> 13.4%,
FP 2.9% -> 4.0%).
"""

from bench_util import record

EXPERIMENTS = ["fig9"]


def test_figure9(payloads):
    out = payloads["fig9"]
    record("fig09_speedup_over_age", out)
    gm = out["geomean"]
    # SWQUE wins on average in both suites, more on INT than FP.
    assert gm["int-medium"] > 0.015
    assert gm["fp-medium"] > -0.005
    assert gm["int-medium"] > gm["fp-medium"]
    # The large-window processor amplifies the INT advantage (Section 4.3).
    assert gm["int-large"] > gm["int-medium"]
    # Per-class: m-ILP programs drive the speedup; MLP programs see ~none.
    by_class = {}
    for name, entry in out["programs"].items():
        by_class.setdefault(entry["class"], []).append(entry["medium"])
    assert max(by_class["m-ILP"]) > 0.03
    assert all(abs(s) < 0.03 for s in by_class["MLP"])
