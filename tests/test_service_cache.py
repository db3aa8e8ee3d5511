"""Tests for the content-addressed result cache (repro.service.cache).

Keying: two jobs share an address iff they are guaranteed to produce
the same result under the same package version and simulator sources.  Hygiene: every failure
mode of the store reads as a *miss* — corruption, truncation, version
skew — and the size bound evicts in least-recently-used order.
"""

from __future__ import annotations

import json

import pytest

from repro.config import LARGE, MEDIUM
from repro.cpu.stats import PipelineStats
from repro.service import cache as cache_module
from repro.service.cache import (
    CACHE_SCHEMA_VERSION,
    ENTRY_SUFFIX,
    ResultCache,
    UncacheableJob,
    cache_key,
)
from repro.sim.faults import FaultSpec
from repro.sim.harness import SweepJob
from repro.sim.results import FailedResult, SimResult
from repro.workloads.generator import generate_trace
from repro.workloads.spec2017 import get_profile

N = 3000


def job(workload="exchange2", policy="age", config=MEDIUM, **kwargs):
    return SweepJob(workload, policy, config, N, **kwargs)


def fake_result(tag="exchange2") -> SimResult:
    stats = PipelineStats()
    stats.cycles = 1000
    stats.committed = 900
    return SimResult(
        workload=tag, policy="age", config="medium",
        num_instructions=N, stats=stats, seed=2019,
        config_hash="deadbeefdeadbeef", version="1.1.0",
        commit_digest="ab" * 16,
    )


class TestCacheKeying:
    def test_identical_jobs_share_a_key(self):
        assert cache_key(job()) == cache_key(job())

    def test_every_axis_changes_the_key(self):
        base = cache_key(job())
        assert cache_key(job(seed=7)) != base
        assert cache_key(job(workload="leela")) != base
        assert cache_key(job(policy="swque")) != base
        assert cache_key(job(config=LARGE)) != base
        assert cache_key(SweepJob("exchange2", "age", MEDIUM, N + 1)) != base
        assert cache_key(job(max_cycles=50_000)) != base
        assert cache_key(job(warmup_instructions=0)) != base

    def test_differing_seeds_do_not_collide(self):
        keys = {cache_key(job(seed=seed)) for seed in range(64)}
        assert len(keys) == 64

    def test_default_seed_normalizes_to_profile_seed(self):
        # seed=None resolves to the profile's fixed seed before keying,
        # so the explicit default and the implicit one share an entry.
        profile_seed = get_profile("exchange2").seed
        assert cache_key(job()) == cache_key(job(seed=profile_seed))

    def test_version_is_part_of_the_address(self):
        assert cache_key(job(), version="1.0.0") != cache_key(
            job(), version="1.1.0"
        )

    def test_changed_model_digest_misses(self, tmp_path, monkeypatch):
        # An edit to the simulator sources changes the digest: every
        # entry recorded by the old model becomes unreachable.
        cache = ResultCache(tmp_path)
        cache.put(cache_key(job()), fake_result(), job=job())
        assert cache.get(cache_key(job())) is not None
        monkeypatch.setattr(cache_module, "model_digest", lambda: "edited")
        assert cache.get(cache_key(job())) is None

    def test_model_digest_hashes_the_model_sources(self):
        digest = cache_module.model_digest()
        assert len(digest) == 16 and digest == cache_module.model_digest()
        root = cache_module.Path(cache_module.__file__).parent.parent
        for source in cache_module.MODEL_SOURCES:
            assert (root / source).exists(), source

    def test_profile_object_and_name_share_a_key(self):
        named = cache_key(job())
        by_profile = cache_key(
            SweepJob(get_profile("exchange2"), "age", MEDIUM, N)
        )
        assert named == by_profile

    def test_fault_jobs_are_uncacheable(self):
        with pytest.raises(UncacheableJob, match="fault"):
            cache_key(job(fault=FaultSpec("crash", at_cycle=100)))

    def test_prebuilt_traces_are_uncacheable(self):
        trace = generate_trace(get_profile("exchange2"), 500)
        with pytest.raises(UncacheableJob, match="Trace"):
            cache_key(SweepJob(trace, "age", MEDIUM, N))


class TestCacheStore:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(job())
        assert cache.get(key) is None           # cold: a miss
        assert cache.put(key, fake_result(), job=job())
        hit = cache.get(key)
        assert hit is not None
        assert hit.to_dict() == fake_result().to_dict()
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["stores"] == 1 and stats["entries"] == 1
        assert stats["bytes"] > 0

    def test_failed_results_are_not_stored(self, tmp_path):
        cache = ResultCache(tmp_path)
        failure = FailedResult(
            workload="mcf", policy="age", config="medium",
            error_type="WorkerCrashed", error_message="exit -9",
        )
        assert not cache.put("some-key", failure)
        assert len(cache) == 0
        assert cache.stats()["put_skipped"] == 1

    def test_atomic_writes_leave_no_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(5):
            cache.put(f"key-{i}", fake_result())
        leftovers = [p for p in tmp_path.iterdir()
                     if not p.name.endswith(ENTRY_SUFFIX)]
        assert leftovers == []

    def test_truncated_entry_reads_as_miss_and_is_deleted(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(job())
        cache.put(key, fake_result())
        path = tmp_path / f"{key}{ENTRY_SUFFIX}"
        path.write_bytes(path.read_bytes()[:40])   # torn mid-record
        assert cache.get(key) is None
        assert not path.exists()
        assert cache.stats()["corrupt_entries"] == 1

    @pytest.mark.parametrize("garbage", [
        b"", b"not json at all", b"[1, 2, 3]\n",
        b'{"schema": 999, "result": {}}\n',
        b'{"schema": 1, "version": "x", "result": "oops"}\n',
    ])
    def test_garbage_entries_read_as_miss(self, tmp_path, garbage):
        cache = ResultCache(tmp_path)
        path = tmp_path / f"somekey{ENTRY_SUFFIX}"
        path.write_bytes(garbage)
        assert cache.get("somekey") is None
        assert cache.stats()["corrupt_entries"] == 1
        assert not path.exists()

    def test_version_mismatch_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(job())
        cache.put(key, fake_result())
        path = tmp_path / f"{key}{ENTRY_SUFFIX}"
        envelope = json.loads(path.read_text())
        assert envelope["schema"] == CACHE_SCHEMA_VERSION
        envelope["version"] = "0.0.1"              # written by an old release
        path.write_text(json.dumps(envelope))
        assert cache.get(key) is None
        assert not path.exists()                   # reclaimed, not kept stale
        assert cache.stats()["version_invalidations"] == 1

    def test_restart_reads_the_same_store(self, tmp_path):
        key = cache_key(job())
        ResultCache(tmp_path).put(key, fake_result())
        warm = ResultCache(tmp_path)               # a new process, in effect
        assert warm.get(key) is not None
        assert warm.stats()["hits"] == 1


class TestLruEviction:
    def test_entry_bound_evicts_least_recently_used(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        cache.put("k1", fake_result())
        cache.put("k2", fake_result())
        assert cache.get("k1") is not None         # refresh k1's recency
        cache.put("k3", fake_result())             # k2 is now the LRU victim
        assert "k2" not in cache
        assert "k1" in cache and "k3" in cache
        assert cache.stats()["evictions"] == 1

    def test_insertion_order_evicts_without_touches(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        for key in ("a", "b", "c", "d"):
            cache.put(key, fake_result())
        assert "a" not in cache and "b" not in cache
        assert "c" in cache and "d" in cache
        assert cache.stats()["evictions"] == 2

    def test_byte_bound_evicts(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("probe", fake_result())
        entry_bytes = cache.stats()["bytes"]
        cache.clear()
        # Room for two entries, not three.
        cache = ResultCache(tmp_path, max_bytes=int(entry_bytes * 2.5))
        for key in ("a", "b", "c"):
            cache.put(key, fake_result())
        assert "a" not in cache
        assert "b" in cache and "c" in cache

    def test_bounds_validated(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            ResultCache(tmp_path, max_bytes=0)
        with pytest.raises(ValueError, match="max_entries"):
            ResultCache(tmp_path, max_entries=0)


class TestEvictionRaces:
    """A concurrent reader/evictor (or a second server process sharing
    the directory) can delete an entry between our glob and our stat —
    the PR-4 code crashed with FileNotFoundError; now every such race is
    a counted bookkeeping event (``evict_race``), never an exception."""

    def _with_ghost(self, cache):
        """Make the cache see one entry that no longer exists on disk."""
        ghost = cache._entry_path("f" * 32)
        real_entries = cache._entries
        cache._entries = lambda: real_entries() + [ghost]
        return cache

    def test_stats_tolerates_entry_vanishing_mid_scan(self, tmp_path):
        cache = self._with_ghost(ResultCache(tmp_path))
        cache.counters.snapshot()  # counter pre-seeded
        stats = cache.stats()
        assert stats["entries"] == 0
        assert cache.counters.get("evict_race") == 1

    def test_enforce_bounds_tolerates_vanished_victim(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=1)
        cache.put("a" * 32, fake_result())
        self._with_ghost(cache)
        # put() runs _enforce_bounds over [real, ghost]: the ghost's
        # stat fails (counted), the bound still evicts the real LRU.
        cache.put("b" * 32, fake_result())
        assert cache.counters.get("evict_race") >= 1
        assert ("b" * 32) in cache

    def test_evict_path_tolerates_already_deleted(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache._evict_path(cache._entry_path("0" * 32), reason="lru")
        assert cache.counters.get("evict_race") == 1
        assert cache.counters.get("evictions") == 0

    def test_touch_tolerates_eviction_under_read(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache._touch(cache._entry_path("0" * 32))
        assert cache.counters.get("evict_race") == 1

    def test_clear_tolerates_concurrent_delete(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a" * 32, fake_result())
        self._with_ghost(cache)
        assert cache.clear() == 1  # the ghost is skipped, not raised
        assert cache.counters.get("evict_race") == 1
