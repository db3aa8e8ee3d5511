"""Figure 11: CIRC-CONV vs CIRC-PPRI vs CIRC-PC, degradation vs SHIFT.

Paper shape: CIRC-CONV degrades heavily (reversed priority + capacity
inefficiency); the perfect-priority oracle CIRC-PPRI recovers nearly all
of it; CIRC-PC tracks the oracle closely (its extra RV issue latency is
cheap because ready wrapped instructions are mostly latency-tolerant).

Known deviation: in our model CIRC-PC sits a few points below CIRC-PPRI
(vs ~1% in the paper) because wrong-path floods keep the allocated region
longer, exposing more instructions to the RV latency; see EXPERIMENTS.md.
"""

from bench_util import record

EXPERIMENTS = ["fig11"]


def test_figure11(payloads):
    out = payloads["fig11"]
    record("fig11_circ_variants", out)
    for suite in ("GM int", "GM fp"):
        deg = out[suite]
        # Priority correction recovers most of CIRC's degradation.
        assert deg["circ-ppri"] < 0.5 * deg["circ-conv"], (suite, deg)
        assert deg["circ-pc"] < deg["circ-conv"], (suite, deg)
        # The oracle is the best circular variant.
        assert deg["circ-ppri"] <= deg["circ-pc"] + 0.01, (suite, deg)
