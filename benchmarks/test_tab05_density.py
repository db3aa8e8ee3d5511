"""Table 5: transistor-density comparison (layout reasonableness).

Paper argument: every IQ circuit is sparser than a dense L2 macro but as
dense as (or denser than) a dense logic array and the Skylake chip
average -- evidence that the hand layout is reasonable.
"""

from bench_util import record

EXPERIMENTS = ["tab5"]


def test_table5(payloads):
    out = payloads["tab5"]
    record("tab05_transistor_density", out)
    l2 = out["l2_cache_512kb (Sun)"]
    multiplier = out["fp_multiplier_54b (Fujitsu)"]
    for circuit in ("tag_ram", "wakeup", "age_matrix"):
        assert multiplier < out[circuit] < l2
    # The select logic (sparse arbiter wiring) is comparable to the
    # multiplier and the chip average.
    assert abs(out["select"] - multiplier) < 0.1
