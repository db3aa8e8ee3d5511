"""Smoke tests for the experiment grid (small instruction budgets).

Full-scale shape checks live in benchmarks/; here one :func:`regenerate`
call runs every figure and table of the paper at a small budget, and each
test checks one payload's documented structure -- the analytic
(simulation-free) ones against the paper's numbers exactly.  The grid
itself is tested too: each distinct cell runs once, a cache makes a rerun
free, and the worker pool changes no payload.
"""

import pytest

from repro.sim import experiments
from repro.sim.ablations import ABLATIONS
from repro.sim.experiments import regenerate

#: A fast, representative subset: one m-ILP INT, one MLP, one r-ILP FP.
SUBSET = ["exchange2", "xz", "bwaves"]
N = 12_000

FIGURES = [name for name in experiments.EXPERIMENTS if name not in ABLATIONS]


@pytest.fixture(scope="module")
def out():
    return regenerate(FIGURES, num_instructions=N, programs=SUBSET, max_workers=0)


class TestSimulationExperiments:
    def test_figure8_structure(self, out):
        assert set(out["fig8"]) == {"GM int", "GM fp"}
        assert set(out["fig8"]["GM int"]) == {"circ", "rand", "age", "swque"}

    def test_figure9_structure(self, out):
        entry = out["fig9"]["programs"]["exchange2"]
        assert entry["class"] == "m-ILP"
        assert set(entry) == {"class", "medium", "large"}
        assert "int-medium" in out["fig9"]["geomean"]

    def test_figure10_structure(self, out):
        xz = out["fig10"]["xz"]
        assert xz["class"] == "MLP"
        assert xz["circ-pc"] + xz["age"] == pytest.approx(1.0)

    def test_figure11_structure(self, out):
        assert set(out["fig11"]["GM int"]) == {"circ-conv", "circ-ppri", "circ-pc"}

    def test_figure12_structure(self, out):
        fig12 = out["fig12"]
        assert fig12["relative_energy_geomean"] > 0
        shares = fig12["swque_breakdown_shares"]
        assert set(shares) == {"static_base", "dynamic_base",
                               "static_swque", "dynamic_swque"}
        # SWQUE-specific energy must be a small share (Figure 12's story).
        assert shares["static_swque"] + shares["dynamic_swque"] < 0.1

    def test_figure14_structure(self, out):
        assert set(out["fig14"]) == {"int-medium", "fp-medium",
                                     "int-large", "fp-large"}
        assert set(out["fig14"]["int-medium"]) == {"swque-1am", "age-multiam",
                                                   "swque-multiam"}

    def test_section48_structure(self, out):
        assert "degradation_at_40" in out["sec48"]
        assert out["sec48"]["switches_per_mcycle_mean"] >= 0


class TestAnalyticExperiments:
    def test_figure13_shares(self, out):
        assert out["fig13"]["extra_select (S_RV)"] == pytest.approx(0.17, abs=1e-3)
        assert out["fig13"]["age_matrix"] == pytest.approx(0.29, abs=1e-3)

    def test_table5_contents(self, out):
        assert out["tab5"]["age_matrix"] == 1.708

    def test_section47_paper_numbers(self, out):
        sec47 = out["sec47"]
        assert sec47["dtm_overhead"] == pytest.approx(0.013, abs=1e-4)
        assert sec47["double_tag_access_fraction"] == pytest.approx(0.66, abs=1e-3)
        assert sec47["double_access_fits"] and sec47["final_grant_fits"]


class TestTable6:
    def test_costs_and_cost_neutral_comparison(self, out):
        tab6 = out["tab6"]
        assert tab6["additional_area_mm2"] == pytest.approx(0.0029, rel=1e-6)
        assert tab6["age_entries_cost_neutral"] == 150
        assert "swque_vs_age_int" in tab6
        assert "age150_vs_age_int" in tab6


class TestRegenerate:
    """One grid: shared cells run once, cached cells not at all."""

    @pytest.fixture
    def reports(self, monkeypatch):
        seen = []
        run_sweep = experiments.run_sweep

        def recording(*args, **kwargs):
            seen.append(run_sweep(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(experiments, "run_sweep", recording)
        return seen

    def test_shared_cells_run_once_and_a_cached_rerun_runs_none(
        self, tmp_path, reports
    ):
        kwargs = dict(num_instructions=3000, programs=["exchange2"],
                      cache_dir=tmp_path, max_workers=0)
        first = regenerate(["fig8", "fig11"], **kwargs)
        # Fig. 8 asks for 5 policies and Fig. 11 for 4; shift and circ
        # are shared, so 7 distinct cells run.
        assert (reports[0].executed, reports[0].restored) == (7, 0)
        second = regenerate(["fig8", "fig11"], **kwargs)
        assert (reports[1].executed, reports[1].restored) == (0, 7)
        assert second == first

    def test_worker_pool_changes_no_payload(self):
        kwargs = dict(num_instructions=3000, programs=["exchange2"])
        names = ["fig8", "fig10", "sec48"]
        assert (regenerate(names, max_workers=2, **kwargs)
                == regenerate(names, max_workers=0, **kwargs))
