"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "deepsjeng" in out
        assert "swque" in out

    def test_run(self, capsys):
        assert main(["run", "exchange2", "age", "--instructions", "4000"]) == 0
        out = capsys.readouterr().out
        assert "exchange2" in out and "IPC" in out

    def test_compare(self, capsys):
        assert main(["compare", "exchange2", "--policies", "shift", "rand",
                     "--instructions", "4000"]) == 0
        out = capsys.readouterr().out
        assert "shift" in out and "rand" in out

    def test_analytic_experiment(self, capsys):
        assert main(["experiment", "tab5", "sec47"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"tab5", "sec47"}
        assert data["tab5"]["age_matrix"] == 1.708

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "gcc", "age"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_sweep_rejects_negative_jobs(self, capsys):
        assert main(["sweep", "--workloads", "exchange2", "--policies", "age",
                     "--instructions", "3000", "--jobs", "-1"]) == 2
        assert "max_workers" in capsys.readouterr().err
