"""Versioned, checksummed snapshots of complete simulator state.

A snapshot captures *everything* a run needs to continue bit-identically:
the pipeline (ROB, LSQ, rename map, in-flight completion events), the
issue queue (including SWQUE's mode, instability counter, and adaptive
thresholds), the memory hierarchy (cache tag state, MSHRs, in-flight L2
fills, DRAM channel, prefetcher streams), the branch predictor (gshare
PHT, history, BTB), every RNG stream, the statistics counters, the golden
oracle (when attached), and the streaming commit digest.  Restore ->
continue reproduces the exact commit stream an uninterrupted run
produces -- the property the digest exists to prove and the determinism
property tests enforce.

File layout (all writes are temp-file + atomic rename, so a crash during
a snapshot never leaves a torn artifact)::

    SWQSNAP\\n                     7-byte magic + newline
    {json header}\\n               version, sha256, payload size, metadata
    <pickle payload>              the pickled SimState

The header's ``sha256`` covers the payload, so truncation and bit-rot are
detected before unpickling.  ``version`` gates the payload schema: a
reader only accepts versions it knows (:data:`SNAPSHOT_VERSION`); any
schema change must bump it.  Metadata (cycle, committed, workload,
policy, config, seed, digest) is readable without unpickling, so tools
can inventory snapshot directories cheaply.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, TYPE_CHECKING, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cpu.pipeline import Pipeline
    from repro.sim.results import SimResult

_MAGIC = b"SWQSNAP"
#: Current snapshot schema version.  Bump on ANY change to what the
#: payload contains or how the header is interpreted; readers reject
#: versions they do not know rather than misread them.
#: v2: the pipeline payload gained telemetry state (the attached
#: :class:`repro.telemetry.Telemetry` sink travels with the snapshot so
#: a resumed run keeps its interval alignment).
#: v3: the pickled pipeline lost the three attributes of the removed
#: dead-cycle fast-forward engine.
#: v4: the pickled pipeline gained ``ff_skipped_cycles`` (cycles advanced
#: in bulk as idle) and its fetch unit a direct handle on the trace list.
SNAPSHOT_VERSION = 4

#: File suffix convention for snapshot artifacts.
SNAPSHOT_SUFFIX = ".snap"


class SnapshotError(RuntimeError):
    """The snapshot file is unreadable: corrupt, truncated, or not one."""


class SnapshotVersionError(SnapshotError):
    """The snapshot was written by an incompatible schema version."""


@dataclass(frozen=True)
class SnapshotMeta:
    """Header metadata, readable without unpickling the payload."""

    version: int
    cycle: int
    committed: int
    workload: str
    policy: str
    config: str
    seed: Optional[int]
    commit_digest: str

    def summary(self) -> str:
        return (
            f"snapshot v{self.version}: {self.workload}/{self.policy}"
            f"/{self.config} at cycle {self.cycle} "
            f"({self.committed} committed, seed={self.seed}, "
            f"digest={self.commit_digest})"
        )


@dataclass
class Snapshot:
    """A restored snapshot: metadata plus the live pipeline."""

    meta: SnapshotMeta
    pipeline: "Pipeline"


def _meta_from_pipeline(pipeline: "Pipeline") -> SnapshotMeta:
    provenance = getattr(pipeline, "run_provenance", None) or {}
    return SnapshotMeta(
        version=SNAPSHOT_VERSION,
        cycle=pipeline.cycle,
        committed=pipeline.stats.committed,
        workload=provenance.get("workload") or pipeline.trace.name or "custom",
        policy=provenance.get("policy") or pipeline.iq.name,
        config=provenance.get("config") or pipeline.config.name,
        seed=provenance.get("seed"),
        commit_digest=pipeline.commit_digest.hexdigest(),
    )


def snapshot_bytes(pipeline: "Pipeline") -> bytes:
    """Serialize ``pipeline`` into the on-disk snapshot format."""
    meta = _meta_from_pipeline(pipeline)
    # In-flight dependence chains (prev_writer / consumers links among
    # ROB entries) recurse one pickle frame per edge; a full window of
    # chained instructions overruns the default 1000-frame limit.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 50_000))
    try:
        payload = pickle.dumps(pipeline, protocol=4)
    finally:
        sys.setrecursionlimit(limit)
    header = {
        "version": SNAPSHOT_VERSION,
        "sha256": hashlib.sha256(payload).hexdigest(),
        "payload_bytes": len(payload),
        "meta": {
            "cycle": meta.cycle,
            "committed": meta.committed,
            "workload": meta.workload,
            "policy": meta.policy,
            "config": meta.config,
            "seed": meta.seed,
            "commit_digest": meta.commit_digest,
        },
    }
    return (
        _MAGIC + b"\n"
        + json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
        + payload
    )


def write_bytes_atomic(data: bytes, path: Union[str, Path]) -> Path:
    """Write ``data`` to ``path`` via temp file + atomic rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # pragma: no cover - only on a failed replace
            tmp.unlink()
    return path


def write_snapshot(pipeline: "Pipeline", path: Union[str, Path]) -> Path:
    """Snapshot ``pipeline`` to ``path`` (atomically); returns the path."""
    return write_bytes_atomic(snapshot_bytes(pipeline), path)


def _parse(data: bytes, origin: str) -> Snapshot:
    if not data.startswith(_MAGIC + b"\n"):
        raise SnapshotError(
            f"{origin}: not a snapshot (bad magic; expected "
            f"{_MAGIC.decode()!r} header)"
        )
    body = data[len(_MAGIC) + 1:]
    newline = body.find(b"\n")
    if newline < 0:
        raise SnapshotError(f"{origin}: truncated before the header ended")
    try:
        header = json.loads(body[:newline].decode("utf-8"))
        version = header["version"]
        digest = header["sha256"]
        payload_bytes = header["payload_bytes"]
        meta_dict = header["meta"]
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        raise SnapshotError(f"{origin}: corrupt header ({exc})") from exc
    if version != SNAPSHOT_VERSION:
        raise SnapshotVersionError(
            f"{origin}: snapshot version {version} is not supported "
            f"(this build reads version {SNAPSHOT_VERSION}; re-record the "
            f"snapshot or use a matching build)"
        )
    payload = body[newline + 1:]
    if len(payload) != payload_bytes:
        raise SnapshotError(
            f"{origin}: payload is {len(payload)} bytes, header says "
            f"{payload_bytes} (truncated or concatenated file)"
        )
    if hashlib.sha256(payload).hexdigest() != digest:
        raise SnapshotError(
            f"{origin}: payload checksum mismatch (bit-rot or a torn write)"
        )
    try:
        pipeline = pickle.loads(payload)
    except Exception as exc:  # pickle raises a zoo of exception types
        raise SnapshotError(f"{origin}: payload does not unpickle ({exc})") from exc
    meta = SnapshotMeta(
        version=version,
        cycle=meta_dict.get("cycle", -1),
        committed=meta_dict.get("committed", -1),
        workload=meta_dict.get("workload", ""),
        policy=meta_dict.get("policy", ""),
        config=meta_dict.get("config", ""),
        seed=meta_dict.get("seed"),
        commit_digest=meta_dict.get("commit_digest", ""),
    )
    if pipeline.cycle != meta.cycle:
        raise SnapshotError(
            f"{origin}: header cycle {meta.cycle} disagrees with the "
            f"restored pipeline's cycle {pipeline.cycle}"
        )
    if pipeline.commit_digest.hexdigest() != meta.commit_digest:
        raise SnapshotError(
            f"{origin}: header commit digest disagrees with the restored "
            f"pipeline's digest (inconsistent snapshot)"
        )
    return Snapshot(meta=meta, pipeline=pipeline)


def load_snapshot(path: Union[str, Path]) -> Snapshot:
    """Load, checksum-verify, and restore a snapshot file."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    return _parse(data, origin=str(path))


def resume_to_result(
    snapshot: Union[Snapshot, str, Path],
) -> "SimResult":
    """Continue a snapshot to completion and package a `SimResult`.

    The continued run is bit-identical to the uninterrupted one: same
    final statistics, same commit-stream digest (the determinism property
    tests enforce this for every IQ policy).
    """
    if not isinstance(snapshot, Snapshot):
        snapshot = load_snapshot(snapshot)
    pipeline = snapshot.pipeline
    pipeline.resume()
    from repro.sim.simulator import result_from_pipeline  # import cycle guard

    return result_from_pipeline(pipeline)
