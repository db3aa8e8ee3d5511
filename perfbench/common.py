"""Shared pieces of the benchmark: spans, checks, statistics, scratch
layers, and the metric table ``BENCHMARK.json`` defines.

Nothing here reaches into the program's internals.  Every layer is timed
from outside, by wrapping the benchmark's own calls into it, so the
program gains no tracing code.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

#: The program's layers the benchmark drives, imported from ``SOURCE``.
LAYERS = ("repro", "repro.core", "repro.cpu", "repro.memory", "repro.service",
          "repro.sim", "repro.telemetry", "repro.workloads")

#: Percentiles a tail latency may be reported at, lowest first.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


# -- spans ----------------------------------------------------------------------------


class Tracer:
    """In-memory span recorder: (name, start, end, parent, id, track).

    Disabled tracers record nothing; :meth:`span` then costs one
    ``nullcontext``.  Spans are written out once, at the end of the run,
    as a Chrome ``trace_event`` document.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.origin = time.perf_counter()
        self.spans: List[dict] = []
        self._open: Dict[int, List[str]] = {}

    def span(self, name: str, job: Optional[str] = None, track: int = 0):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name, job, track)

    def add(self, name: str, start: float, end: float, job: Optional[str],
            track: int) -> None:
        """Record a span timed elsewhere (``perf_counter`` is system-wide)."""
        if self.enabled:
            self.spans.append({"name": name, "start": start, "end": end,
                               "parent": None, "id": job, "track": track})

    @contextlib.contextmanager
    def _record(self, name: str, job: Optional[str], track: int):
        stack = self._open.setdefault(track, [])
        parent = stack[-1] if stack else None
        stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append({
                "name": name, "start": start, "end": end,
                "parent": parent, "id": job, "track": track,
            })

    def chrome_trace(self, meta: dict) -> dict:
        """The spans as a Perfetto-loadable ``trace_event`` document."""
        events = [{
            "name": "process_name", "ph": "M", "ts": 0, "pid": 1, "tid": 0,
            "args": {"name": "perfbench"},
        }]
        for track in sorted({span["track"] for span in self.spans}):
            events.append({
                "name": "thread_name", "ph": "M", "ts": 0, "pid": 1,
                "tid": track, "args": {"name": f"track {track}"},
            })
        for span in sorted(self.spans, key=lambda s: s["start"]):
            events.append({
                "name": span["name"],
                "cat": span["name"].split(".", 1)[0],
                "ph": "X",
                "ts": round((span["start"] - self.origin) * 1e6, 3),
                "dur": round((span["end"] - span["start"]) * 1e6, 3),
                "pid": 1,
                "tid": span["track"],
                "args": {"id": span["id"], "parent": span["parent"]},
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": meta,
        }

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: summed duration minus time covered by children."""
        by_track: Dict[int, List[dict]] = {}
        for span in self.spans:
            by_track.setdefault(span["track"], []).append(span)
        totals: Dict[str, float] = {}
        for spans in by_track.values():
            spans.sort(key=lambda s: (s["start"], -s["end"]))
            stack: List[list] = []   # [span, child_seconds]
            for span in spans + [None]:
                while stack and (span is None or span["start"] >= stack[-1][0]["end"]):
                    done, child = stack.pop()
                    own = done["end"] - done["start"]
                    totals[done["name"]] = totals.get(done["name"], 0.0) + own - child
                    if stack:
                        stack[-1][1] += own
                if span is not None:
                    stack.append([span, 0.0])
        return totals


def write_trace(tracer: Tracer, path: Path, meta: dict) -> Path:
    """Validate the spans as Chrome trace JSON and write them to ``path``."""
    from repro.telemetry import validate_chrome_trace

    document = tracer.chrome_trace(meta)
    validate_chrome_trace(document)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document))
    return path


# -- checks ---------------------------------------------------------------------------


class Checks:
    """Operations attempted, and the failures among them: an error, a
    refusal, a timeout or a failed output check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: List[str] = []

    def attempt(self) -> None:
        self.attempted += 1

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def expect(self, condition: bool, message: str) -> bool:
        """An output check; a failed one counts as a failed operation."""
        if not condition:
            self.fail(message)
        return condition

    @property
    def failed(self) -> int:
        """Failures, at most one per attempted operation."""
        return min(len(self.problems), self.attempted)

    @property
    def correct(self) -> bool:
        return not self.problems


# -- statistics -----------------------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = pct / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """(percentile, value, samples beyond it): the highest of
    :data:`TAIL_PERCENTILES` with at least :data:`TAIL_MIN_BEYOND` samples
    beyond it.  A sample too small for any of them reports its maximum."""
    best = None
    for pct in TAIL_PERCENTILES:
        beyond = int(len(values) * (1.0 - pct / 100.0))
        if beyond >= TAIL_MIN_BEYOND:
            best = (pct, percentile(values, pct), beyond)
    if best is None:
        return 100.0, max(values), 0
    return best


def median(values: Iterable[float], default: float = 0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def fresh_import_seconds(repeats: int) -> List[float]:
    """Seconds to import :data:`LAYERS` from source, each time in a
    fresh interpreter (the interpreter's own start-up is not counted)."""
    probe = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); "
        + "; ".join(f"import {name}" for name in LAYERS)
        + "; print(time.perf_counter() - t)"
    )
    seconds = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", probe, str(SOURCE)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        seconds.append(float(done.stdout.strip().splitlines()[-1]))
    return seconds


def child_pids() -> List[int]:
    """Pids of this process's children, running or not yet reaped."""
    me, pids = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # After the parenthesised command name: state, then parent pid.
        if int(stat.rpartition(")")[2].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def _reaped(pid: int) -> bool:
    try:
        return os.waitpid(pid, os.WNOHANG)[0] == pid
    except ChildProcessError:
        return True


def stop_children(grace: float = 5.0) -> List[int]:
    """End and reap every child process still left; returns their pids.

    The code that starts a process stops and joins it.  This is the last
    guard on every way out of a run, so that no process outlives the
    benchmark: SIGTERM, then SIGKILL after ``grace`` seconds."""
    found = left = child_pids()
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in left:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, sig)
        deadline = time.monotonic() + grace
        while left and time.monotonic() < deadline:
            left = [pid for pid in left if not _reaped(pid)]
            if left:
                time.sleep(0.05)
    return found


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# -- exact simulator counts -----------------------------------------------------------

def exact_counts(cells: Sequence[Tuple[str, str, object]]) -> Dict[str, float]:
    """Modelled (simulated-time) counts over ``(group, policy, stats)``
    cells, pooled as sums so every ratio has an integer base.  Cells of
    one group ran the same trace; a group with both policies is one pair
    of the SWQUE-vs-AGE gain."""
    total = {name: 0 for name in (
        "cycles", "committed", "dispatched", "issued", "wrong_path_dispatched",
        "dispatch_stall_iq", "dispatch_stall_rob", "dispatch_stall_lsq",
        "dispatch_stall_regs", "iq_occupancy_sum", "loads", "stores",
        "l1d_misses", "llc_misses",
    )}
    swque = {"cycles": 0, "circ": 0, "age": 0, "switches": 0}
    ipc: Dict[Tuple[str, str], float] = {}
    for group, policy, stats in cells:
        for name in total:
            total[name] += getattr(stats, name)
        if policy == "swque":
            swque["cycles"] += stats.cycles
            swque["circ"] += stats.cycles_in_circ_pc
            swque["age"] += stats.cycles_in_age
            swque["switches"] += stats.mode_switches
        ipc[(group, policy)] = stats.ipc
    pairs = [
        ipc[(group, "swque")] / ipc[(group, "age")]
        for group, policy in ipc
        if policy == "age" and (group, "swque") in ipc and ipc[(group, "age")] > 0
    ]
    gain = (statistics.geometric_mean(pairs) - 1.0) if pairs else 0.0
    cycles = total["cycles"]
    accesses = total["loads"] + total["stores"]
    return {
        "core.iq_occupancy_mean": ratio(total["iq_occupancy_sum"], cycles),
        "core.issue_per_cycle": ratio(total["issued"], cycles),
        "core.swque_circpc_frac": ratio(swque["circ"], swque["circ"] + swque["age"]),
        "core.swque_switches_per_mcycle": ratio(swque["switches"] * 1e6, swque["cycles"]),
        "core.swque_cycles": swque["cycles"],
        "core.swque_gain_vs_age": gain,
        "core.swque_gain_pairs": len(pairs),
        "cpu.ipc": ratio(total["committed"], cycles),
        "cpu.cycles": cycles,
        "cpu.committed": total["committed"],
        "cpu.dispatched": total["dispatched"],
        "cpu.wrong_path_frac": ratio(total["wrong_path_dispatched"], total["dispatched"]),
        "cpu.dispatch_stall_frac.iq": ratio(total["dispatch_stall_iq"], cycles),
        "cpu.dispatch_stall_frac.rob": ratio(total["dispatch_stall_rob"], cycles),
        "cpu.dispatch_stall_frac.lsq": ratio(total["dispatch_stall_lsq"], cycles),
        "cpu.dispatch_stall_frac.regs": ratio(total["dispatch_stall_regs"], cycles),
        "memory.llc_mpki": ratio(1000.0 * total["llc_misses"], total["committed"]),
        "memory.l1d_miss_rate": ratio(total["l1d_misses"], accesses),
        "memory.accesses": accesses,
    }


#: Service figures of a workload that runs no service: not applicable.
NO_SERVICE = dict.fromkeys((
    "service.jobs", "service.submit_s", "service.server_s",
    "service.observe_lag_s", "service.overhead_frac", "service.cache_hit_ratio",
    "service.cache_hits", "service.dedup_ratio", "service.deduped",
    "service.client_retries", "service.shed", "service.rate_limited"), 0)

#: Durable queue counts of a workload whose jobs never enter the queue.
NO_QUEUE = dict.fromkeys((
    "queue.claims", "queue.leased_jobs", "queue.claims_per_job",
    "queue.reclaims", "queue.fenced_rejections", "queue.duplicate_commits",
    "queue.commits", "queue.commits_approx"), 0)


# -- scratch layers -------------------------------------------------------------------


def time_cache_layer(
    entries: Sequence[Tuple[str, object, object]],
    scratch: Path,
    tracer: Tracer,
    source_dir: Optional[Path] = None,
    rounds: int = 3,
) -> Tuple[List[float], List[float], int]:
    """Time ``ResultCache.put`` into a fresh store and ``ResultCache.get``
    of every ``(key, job, result)`` entry, ``rounds`` times over.

    With ``source_dir`` the gets read a copy of that (live) cache
    directory; otherwise they read back the scratch puts.  Returns
    (put seconds, get seconds, gets whose digest differed from the
    result stored).
    """
    from repro.service import ResultCache

    put_cache = ResultCache(scratch / "cache-put")
    puts = []
    for key, job, result in entries:
        start = time.perf_counter()
        with tracer.span("cache.put", key):
            put_cache.put(key, result, job=job)
        puts.append(time.perf_counter() - start)
    if source_dir is not None:
        shutil.copytree(source_dir, scratch / "cache-copy")
        get_cache = ResultCache(scratch / "cache-copy")
    else:
        get_cache = put_cache
    gets, mismatches = [], 0
    for _ in range(rounds):
        for key, _job, result in entries:
            start = time.perf_counter()
            with tracer.span("cache.get", key):
                hit = get_cache.get(key)
            gets.append(time.perf_counter() - start)
            if hit is None or hit.commit_digest != result.commit_digest:
                mismatches += 1
    return puts, gets, mismatches


def time_queue_layer(jobs: Sequence[dict], scratch: Path, tracer: Tracer) -> Dict[str, float]:
    """Time ``DurableQueue`` append, claim and commit on a scratch queue
    holding one record per job spec; medians in seconds."""
    from repro.service import DurableQueue

    queue = DurableQueue(scratch / "queue", node_id="perfbench")
    appends, claims, commits = [], [], []
    for spec in jobs:
        start = time.perf_counter()
        with tracer.span("queue.append"):
            queue.append(dict(spec))
        appends.append(time.perf_counter() - start)
    while True:
        start = time.perf_counter()
        with tracer.span("queue.claim"):
            got = queue.claim_next()
        if got is None:
            break
        claims.append(time.perf_counter() - start)
        entry, claim = got
        start = time.perf_counter()
        with tracer.span("queue.commit", entry.id):
            queue.commit(claim, {"status": "ok"})
        commits.append(time.perf_counter() - start)
    return {
        "queue.append_s": median(appends),
        "queue.claim_s": median(claims),
        "queue.commit_s": median(commits),
    }


# -- output ---------------------------------------------------------------------------


def select(values: dict, traced: bool) -> Dict[str, Tuple[float, str]]:
    """``{name: (value, unit)}`` for the metrics ``BENCHMARK.json`` lists
    for the run mode: ``end_to_end`` untraced, ``per_layer`` traced.

    Raises ``KeyError`` when the workload's figures and the listed names
    differ either way, so a missing or unlisted number is an error.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = spec["per_layer" if traced else "end_to_end"]
    listed = [metric["name"] for metric in table]
    missing = sorted(set(listed) - set(values))
    unlisted = sorted(set(values) - set(listed))
    if missing or unlisted:
        raise KeyError(f"no value for {missing}; not in BENCHMARK.json: {unlisted}")
    return {metric["name"]: (values[metric["name"]], metric["unit"]) for metric in table}


def emit(checks: Checks, metrics: Dict[str, Tuple[float, str]]) -> None:
    """Print failed checks to stderr and the result line to stdout."""
    for problem in checks.problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    payload = {
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(payload))
