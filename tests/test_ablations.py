"""Smoke tests for the ablations (tiny budgets; structure only).

One :func:`regenerate` call runs every ablation on one program; each
test checks one payload's shape.
"""

import pytest

from repro.sim.ablations import ABLATIONS
from repro.sim.experiments import regenerate


@pytest.fixture(scope="module")
def out():
    return regenerate(list(ABLATIONS), num_instructions=6000,
                      programs=["exchange2"], max_workers=0)


class TestAblationStructure:
    def test_wrong_path_ablation_keys(self, out):
        abl = out["abl-wrong-path"]
        assert set(abl) == {"wrong_path", "stall_on_mispredict"}
        assert "shift_over_rand" in abl["wrong_path"]

    def test_related_work_keys(self, out):
        assert set(out["abl-related-work"]) == {"swque", "hsw", "oldq",
                                                "critical-oracle"}

    def test_iq_size_sweep_keys(self, out):
        assert set(out["abl-iq-size"]) == {48, 96, 128, 192, 256}

    def test_flpi_region_sweep_keys(self, out):
        abl = out["abl-flpi-region"]
        assert set(abl) == {0.03125, 0.0625, 0.125, 0.25}
        assert set(abl[0.25]) == {"speedup_over_age", "circ_pc_share"}

    def test_switch_interval_sweep_keys(self, out):
        assert set(out["abl-switch-interval"]) == {2_500, 10_000, 40_000}

    def test_prefetch_ablation_keys(self, out):
        abl = out["abl-prefetch"]
        assert "speedup_from_prefetch" in abl
        assert set(abl["prefetch_on"]) == set(abl["prefetch_off"]) == {"exchange2"}
