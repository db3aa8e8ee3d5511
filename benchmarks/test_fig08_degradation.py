"""Figure 8: IPC degradation relative to SHIFT for the conventional IQs.

Paper shape: CIRC and RAND degrade by more than 10% in both suites; AGE
recovers much of RAND's loss but stays clearly below SHIFT; SWQUE lands
far closer to SHIFT than AGE does.
"""

from bench_util import record

EXPERIMENTS = ["fig8"]


def test_figure8(payloads):
    out = payloads["fig8"]
    record("fig08_degradation_vs_shift", out)
    for suite in ("GM int", "GM fp"):
        deg = out[suite]
        # CIRC and RAND degrade by more than 10%.
        assert deg["circ"] > 0.10, (suite, deg)
        assert deg["rand"] > 0.10, (suite, deg)
        # AGE mitigates RAND but remains clearly worse than SHIFT.
        assert 0.0 < deg["age"] < deg["rand"], (suite, deg)
        # SWQUE closes most of AGE's gap to SHIFT.
        assert deg["swque"] < deg["age"], (suite, deg)
