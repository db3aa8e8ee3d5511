"""Figure 12: IQ energy of SWQUE relative to the idealized SHIFT.

Paper shape: SWQUE consumes almost the same energy as I-SHIFT (+0.5%),
and the SWQUE-specific share (extra select logic + doubled tag RAM
accesses) is tiny -- the static part too small to even see in the figure.
"""

from bench_util import record

EXPERIMENTS = ["fig12"]


def test_figure12(payloads):
    out = payloads["fig12"]
    record("fig12_energy_vs_ishift", out)
    # Within a few percent of the idealized shifting queue.
    assert 0.90 < out["relative_energy_geomean"] < 1.10
    shares = out["swque_breakdown_shares"]
    swque_specific = shares["static_swque"] + shares["dynamic_swque"]
    assert swque_specific < 0.06
    assert shares["static_swque"] < 0.05
