"""Section 4.7: delay checks for the SWQUE-specific circuitry.

Paper numbers: the DTM adds 1.3% to the IQ critical path; the time-sliced
double tag RAM access takes 66% of the critical path (large margin); the
payload RAM read uses 43%, leaving room for the final grant selection.
"""

from repro.config import LARGE
from repro.power.delay import IqDelayModel

from bench_util import record

EXPERIMENTS = ["sec47"]


def test_section47(payloads):
    out = payloads["sec47"]
    record("sec47_delay", out)
    assert abs(out["dtm_overhead"] - 0.013) < 1e-4
    assert abs(out["double_tag_access_fraction"] - 0.66) < 1e-3
    assert abs(out["payload_fraction"] - 0.43) < 1e-3
    assert out["double_access_fits"]
    assert out["final_grant_fits"]
    # The scheme keeps working at the large model's 256 entries.
    assert IqDelayModel(LARGE).report().double_access_fits
