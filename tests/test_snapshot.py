"""Tests for snapshot/restore/replay (repro.verify.snapshot, .replay)."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.factory import IQ_POLICIES
from repro.sim.faults import FaultSpec
from repro.sim.simulator import simulate
from repro.verify import (
    ArchitecturalMismatch,
    ReplayOutcome,
    SNAPSHOT_VERSION,
    SnapshotError,
    SnapshotVersionError,
    load_snapshot,
    replay,
    resume_to_result,
)

N = 2500  # instruction budget: seconds-scale cells
INTERVAL = 800  # snapshot cadence: several snapshots per run


def snapshot_run(tmp_path, workload="exchange2", policy="swque", n=N, **kwargs):
    """One run with periodic snapshots; returns (result, sorted snap paths)."""
    result = simulate(workload, policy, num_instructions=n,
                      snapshot_dir=tmp_path, snapshot_interval=INTERVAL,
                      **kwargs)
    paths = sorted(tmp_path.glob("*.snap"),
                   key=lambda p: int(p.stem.split("-c")[-1]))
    return result, paths


class TestRoundTrip:
    """restore -> continue must be bit-identical to the uninterrupted run."""

    @pytest.mark.parametrize("policy", IQ_POLICIES)
    def test_mid_run_resume_matches_uninterrupted(self, tmp_path, policy):
        baseline, paths = snapshot_run(tmp_path, policy=policy, n=1600)
        assert len(paths) >= 3  # several mid-run points plus the final state
        middle = paths[len(paths) // 2]
        resumed = resume_to_result(load_snapshot(middle))
        assert resumed.commit_digest == baseline.commit_digest
        assert resumed.stats.as_dict() == baseline.stats.as_dict()

    def test_every_snapshot_resumes_identically(self, tmp_path):
        baseline, paths = snapshot_run(tmp_path)
        for path in paths:
            resumed = resume_to_result(path)  # str/Path accepted directly
            assert resumed.commit_digest == baseline.commit_digest, path.name
            assert resumed.stats.as_dict() == baseline.stats.as_dict()

    def test_resume_through_a_swque_mode_switch(self, tmp_path):
        # mcf flips SWQUE from CIRC-PC to AGE mid-run at this length; a
        # snapshot taken before the switch must carry the controller's
        # interval counters so the resumed run switches at the same point.
        baseline, paths = snapshot_run(tmp_path, workload="mcf", n=25_000)
        assert baseline.mode_switches >= 1
        early = paths[1]
        resumed = resume_to_result(early)
        assert resumed.mode_switches == baseline.mode_switches
        assert resumed.commit_digest == baseline.commit_digest
        assert resumed.mode_fractions == baseline.mode_fractions

    def test_resume_preserves_provenance(self, tmp_path):
        baseline, paths = snapshot_run(tmp_path)
        resumed = resume_to_result(paths[0])
        assert resumed.seed == baseline.seed
        assert resumed.config_hash == baseline.config_hash
        assert resumed.workload == baseline.workload
        assert resumed.policy == baseline.policy

    def test_snapshot_metadata_is_readable_without_resuming(self, tmp_path):
        _, paths = snapshot_run(tmp_path)
        snap = load_snapshot(paths[0])
        meta = snap.meta
        assert meta.version == SNAPSHOT_VERSION
        assert meta.workload == "exchange2"
        assert meta.policy == "swque"
        assert meta.cycle >= 0
        assert "exchange2/swque" in meta.summary()


class TestCorruptionDetection:
    """Every way a snapshot file can rot must be a clear SnapshotError."""

    @pytest.fixture()
    def snap_path(self, tmp_path):
        _, paths = snapshot_run(tmp_path, n=1200)
        return paths[0]

    def test_bad_magic(self, snap_path):
        data = snap_path.read_bytes()
        snap_path.write_bytes(b"NOTASNAP" + data[8:])
        with pytest.raises(SnapshotError, match="magic"):
            load_snapshot(snap_path)

    def test_truncated_header(self, snap_path):
        snap_path.write_bytes(snap_path.read_bytes()[:10])
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(snap_path)

    def test_truncated_payload(self, snap_path):
        data = snap_path.read_bytes()
        snap_path.write_bytes(data[:-100])
        with pytest.raises(SnapshotError, match="truncated|bytes"):
            load_snapshot(snap_path)

    def test_flipped_payload_bit_fails_the_checksum(self, snap_path):
        data = bytearray(snap_path.read_bytes())
        data[-50] ^= 0xFF
        snap_path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="checksum"):
            load_snapshot(snap_path)

    @staticmethod
    def restamp(snap_path, version):
        data = snap_path.read_bytes()
        newline = data.index(b"\n")
        header_end = data.index(b"\n", newline + 1)
        header = json.loads(data[newline + 1:header_end])
        header["version"] = version
        snap_path.write_bytes(
            data[:newline + 1]
            + json.dumps(header, sort_keys=True).encode() + b"\n"
            + data[header_end + 1:]
        )

    def test_unknown_version_is_rejected(self, snap_path):
        self.restamp(snap_path, SNAPSHOT_VERSION + 1)
        with pytest.raises(SnapshotVersionError, match="version"):
            load_snapshot(snap_path)

    def test_v2_snapshot_is_rejected_with_a_clear_error(self, snap_path):
        # v2 pickles carried the removed fast-forward engine's state; the
        # header gate refuses them before anything is unpickled.
        assert SNAPSHOT_VERSION == 3
        self.restamp(snap_path, 2)
        with pytest.raises(SnapshotVersionError,
                           match="version 2 is not supported.*re-record"):
            load_snapshot(snap_path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            load_snapshot(tmp_path / "nope.snap")

    def test_atomic_writes_leave_no_temp_files(self, tmp_path):
        snapshot_run(tmp_path, n=1200)
        assert not list(tmp_path.glob(".*tmp*"))


class TestFailureSnapshots:
    """A dying run leaves a replayable artifact of its pre-crash state."""

    def test_failure_attaches_snapshot_path(self, tmp_path):
        with pytest.raises(Exception) as excinfo:
            simulate("exchange2", "age", num_instructions=N,
                     faults=FaultSpec(kind="corrupt-ready", at_cycle=1200),
                     failure_snapshot_dir=tmp_path)
        path = excinfo.value.snapshot_path
        assert path is not None and path.endswith("-failed.snap")
        assert (tmp_path / path.split("/")[-1]).exists()

    def test_replay_reproduces_the_recorded_failure(self, tmp_path):
        with pytest.raises(Exception) as excinfo:
            simulate("exchange2", "age", num_instructions=N,
                     faults=FaultSpec(kind="corrupt-ready", at_cycle=1200),
                     failure_snapshot_dir=tmp_path)
        outcome = replay(excinfo.value.snapshot_path, trace=False)
        assert outcome.status == "failed" and not outcome.ok
        assert type(outcome.error).__name__ == "InvariantViolation"

    def test_replay_reproduces_an_oracle_mismatch(self, tmp_path):
        with pytest.raises(ArchitecturalMismatch) as excinfo:
            simulate("exchange2", "age", num_instructions=5000, verify=True,
                     faults=FaultSpec(kind="corrupt-ready", at_cycle=1000,
                                      stealth=True),
                     failure_snapshot_dir=tmp_path)
        outcome = replay(excinfo.value.snapshot_path, trace=False)
        assert isinstance(outcome.error, ArchitecturalMismatch)
        assert outcome.error.check == excinfo.value.check

    def test_no_failure_means_no_artifact(self, tmp_path):
        simulate("exchange2", "age", num_instructions=1200,
                 failure_snapshot_dir=tmp_path)
        assert not list(tmp_path.glob("*-failed.snap"))


class TestReplay:
    """The per-cycle replay window (python -m repro replay)."""

    def test_replay_completes_a_healthy_snapshot(self, tmp_path):
        _, paths = snapshot_run(tmp_path, n=1200)
        lines = []
        outcome = replay(paths[0], out=lines.append)
        assert isinstance(outcome, ReplayOutcome)
        assert outcome.status == "completed" and outcome.ok
        assert outcome.committed > 0
        assert any("cyc" in line and "rob" in line for line in lines)
        assert "completed" in outcome.summary()

    def test_replay_cycle_budget_stops_early(self, tmp_path):
        _, paths = snapshot_run(tmp_path, n=1200)
        outcome = replay(paths[0], cycles=5, trace=False)
        assert outcome.status == "stopped" and outcome.ok
        assert outcome.cycles_run == 5

    def test_replay_budget_must_be_positive(self, tmp_path):
        _, paths = snapshot_run(tmp_path, n=1200)
        with pytest.raises(ValueError, match="positive"):
            replay(paths[0], cycles=0)

    def test_replay_traces_the_swque_mode(self, tmp_path):
        _, paths = snapshot_run(tmp_path, n=1200)
        lines = []
        replay(paths[0], cycles=20, out=lines.append)
        assert any("mode=" in line for line in lines)


class TestSnapshotProperty:
    """Hypothesis: resume is exact for any (policy, cut point) choice."""

    @settings(max_examples=6, deadline=None)
    @given(
        policy=st.sampled_from(("age", "circ-pc", "swque")),
        cut=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=1, max_value=3),
    )
    def test_resume_is_always_exact(self, tmp_path_factory, policy, cut, seed):
        tmp_path = tmp_path_factory.mktemp("snaps")
        baseline, paths = snapshot_run(tmp_path, policy=policy, n=1600,
                                       seed=seed)
        path = paths[min(cut, len(paths) - 1)]
        resumed = resume_to_result(path)
        assert resumed.commit_digest == baseline.commit_digest
        assert resumed.stats.as_dict() == baseline.stats.as_dict()
        assert resumed.ipc == baseline.ipc
