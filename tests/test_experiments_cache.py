"""Tests for the persistent simulation result cache."""

import dataclasses
import json

from repro.experiments.cache import (
    CACHE_SCHEMA_VERSION,
    CacheStats,
    SimCache,
    default_cache_dir,
    key_digest,
    run_key,
)
from repro.ir.loopnest import IterationSpace
from repro.kernels.stencil import sqrt_kernel_3d
from repro.kernels.workloads import StencilWorkload
from repro.model.machine import pentium_cluster


def _workload():
    return StencilWorkload(
        "w", IterationSpace.from_extents([8, 8, 512]),
        sqrt_kernel_3d(), (2, 2, 1), 2,
    )


PAYLOAD = {"completion_time": 1.25, "messages_sent": 7, "grain": 128,
           "network_stats": {}, "method": "sim"}


class TestRunKey:
    def test_contains_everything_that_determines_timing(self):
        spec = run_key(_workload(), 64, pentium_cluster(), blocking=True)
        assert spec["schema"] == CACHE_SCHEMA_VERSION
        assert spec["v"] == 64
        assert spec["blocking"] is True
        assert spec["method"] == "sim"
        assert spec["extents"] == [8, 8, 512]
        assert spec["machine"]  # every machine parameter, not a name
        json.dumps(spec)  # must be JSON-serialisable as-is

    def test_distinguishes_v_schedule_and_method(self):
        w, m = _workload(), pentium_cluster()
        base = run_key(w, 64, m, blocking=True)
        assert run_key(w, 32, m, blocking=True) != base
        assert run_key(w, 64, m, blocking=False) != base
        assert run_key(w, 64, m, blocking=True, method="chaos1") != base

    def test_reduced_exp_i_digests_are_pinned(self):
        """Existing caches and journals stay valid only while these
        digests hold: changing them must be deliberate (and bump
        ``CACHE_SCHEMA_VERSION``)."""
        from repro.experiments.cli import _workload as cli_workload

        w, m = cli_workload("i", full=False), pentium_cluster()
        assert {
            blocking: key_digest(run_key(w, 64, m, blocking=blocking,
                                         method="sim"))
            for blocking in (True, False)
        } == {
            True: "da5ef2d27719eb9e8feaad5bf5fb0187"
                  "5b500cebdffdf126bfaaac3847ea4b84",
            False: "9721e17af8b062db58b37f0256a5d5d9"
                   "040da1d86e438a8a5ed6ea32bd3c5e52",
        }


class TestSimCache:
    def test_miss_then_hit_round_trip(self, tmp_path):
        cache = SimCache(tmp_path)
        spec = run_key(_workload(), 64, pentium_cluster(), blocking=True)
        assert cache.get(spec) is None
        cache.put(spec, PAYLOAD)
        assert cache.get(spec) == PAYLOAD
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert "1 hits / 1 misses" in cache.stats.describe()

    def test_machine_parameter_invalidates(self, tmp_path):
        cache = SimCache(tmp_path)
        w, m = _workload(), pentium_cluster()
        spec = run_key(w, 64, m, blocking=True)
        cache.put(spec, PAYLOAD)
        field = dataclasses.fields(m)[0].name
        faster = dataclasses.replace(m, **{field: getattr(m, field) * 2})
        assert cache.get(run_key(w, 64, faster, blocking=True)) is None

    def test_schema_version_invalidates(self, tmp_path):
        cache = SimCache(tmp_path)
        spec = run_key(_workload(), 64, pentium_cluster(), blocking=True)
        cache.put(spec, PAYLOAD)
        stale = dict(spec, schema=CACHE_SCHEMA_VERSION + 1)
        assert cache.get(stale) is None

    def test_corrupted_entry_is_a_miss(self, tmp_path):
        cache = SimCache(tmp_path)
        spec = run_key(_workload(), 64, pentium_cluster(), blocking=True)
        cache.put(spec, PAYLOAD)
        cache._entry_path(spec).write_text("{not json")
        assert cache.get(spec) is None
        assert cache.stats.errors == 1
        # A non-dict payload is equally rejected.
        cache._entry_path(spec).write_text(json.dumps({"payload": [1, 2]}))
        assert cache.get(spec) is None
        assert cache.stats.errors == 2

    def test_half_written_entry_is_a_counted_miss(self, tmp_path):
        """A crash mid-write leaves truncated JSON; reads must treat it
        as a miss and bump the dedicated corruption counter."""
        cache = SimCache(tmp_path)
        spec = run_key(_workload(), 64, pentium_cluster(), blocking=True)
        cache.put(spec, PAYLOAD)
        entry = cache._entry_path(spec)
        raw = entry.read_text()
        entry.write_text(raw[: len(raw) // 2])  # half-written entry
        assert cache.get(spec) is None
        assert cache.stats.corrupt == 1
        assert cache.stats.errors == 1
        assert cache.stats.misses == 1
        assert "1 corrupt" in cache.stats.describe()
        # Re-simulating and re-storing heals the entry.
        cache.put(spec, PAYLOAD)
        assert cache.get(spec) == PAYLOAD
        assert cache.stats.corrupt == 1

    def test_put_is_atomic_tmp_plus_rename(self, tmp_path):
        """No reader can ever observe a partial entry: the payload lands
        under a tmp name and is renamed into place."""
        cache = SimCache(tmp_path)
        spec = run_key(_workload(), 64, pentium_cluster(), blocking=True)
        cache.put(spec, PAYLOAD)
        leftovers = [
            p for p in tmp_path.rglob("*") if ".tmp" in p.name
        ]
        assert leftovers == []
        assert cache.get(spec) == PAYLOAD

    def test_key_digest_stable_and_order_independent(self):
        spec = run_key(_workload(), 64, pentium_cluster(), blocking=True)
        shuffled = dict(reversed(list(spec.items())))
        assert key_digest(spec) == key_digest(shuffled)
        assert len(key_digest(spec)) == 64  # sha256 hex

    def test_unwritable_location_never_raises(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        cache = SimCache(blocker / "nested")  # parent is a regular file
        spec = run_key(_workload(), 64, pentium_cluster(), blocking=True)
        cache.put(spec, PAYLOAD)  # swallowed
        assert cache.get(spec) is None
        assert cache.stats.errors >= 1

    def test_clear(self, tmp_path):
        cache = SimCache(tmp_path)
        w, m = _workload(), pentium_cluster()
        for v in (16, 32, 64):
            cache.put(run_key(w, v, m, blocking=True), PAYLOAD)
        assert cache.clear() == 3
        assert cache.get(run_key(w, 16, m, blocking=True)) is None


class TestDefaultDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        assert default_cache_dir() == tmp_path / "c"

    def test_fallback_under_home(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir().name == "simcache"


class TestStats:
    def test_lookups(self):
        s = CacheStats(hits=3, misses=2)
        assert s.lookups == 5
