"""The in-memory hot tier: budget, eviction, digests, store integration.

The tier fronts the content-addressed disk store with decoded payloads
(:mod:`repro.cache.memtier`).  These tests pin its three contracts —
byte budget with LRU eviction, digest-validated invalidation, and the
parity requirement that a memory-tier hit returns *bit-identical* data
to the disk-tier read it replaced — plus the store-level interactions:
write-behind visibility, quarantine dropping resident entries, and one
stored document (the entry file's text) charged and digested on both
the put and the disk-hit path.
"""

import json

import pytest

from repro.cache import (
    ResultCache,
    canonical_json,
    hash_payload,
)
from repro.cache.memtier import ENTRY_OVERHEAD_BYTES, MemoryTier
from repro.cache.store import _encode_entry
from repro.errors import ConfigurationError
from repro.obs.metrics import REGISTRY


def counter_value(name, **labels):
    return REGISTRY.counter(name, **labels).value


def put(tier, section, key, payload):
    """Admit ``payload`` with the document the store would hand over."""
    tier.put(section, key, payload, _encode_entry(section, key, payload))


class TestMemoryTier:
    def test_round_trip_and_hit_miss_counters(self):
        tier = MemoryTier(1024 * 1024, shards=1)
        hits = counter_value("cache.mem_hits", section="unit")
        misses = counter_value("cache.mem_misses", section="unit")
        assert tier.get("unit", "k") == (False, None)
        put(tier, "unit", "k", {"rows": [1, 2]})
        assert tier.get("unit", "k") == (True, {"rows": [1, 2]})
        assert counter_value("cache.mem_hits", section="unit") == hits + 1
        assert counter_value("cache.mem_misses", section="unit") == misses + 1

    def test_stored_none_is_a_hit(self):
        tier = MemoryTier(1024, shards=1)
        put(tier, "unit", "k", None)
        assert tier.get("unit", "k") == (True, None)

    def test_byte_budget_evicts_lru(self):
        payload = {"blob": "x" * 256}
        entry_bytes = len(
            _encode_entry("unit", "a", payload)
        ) + ENTRY_OVERHEAD_BYTES
        tier = MemoryTier(entry_bytes * 2, shards=1)
        evictions = counter_value("cache.mem_evictions")
        put(tier, "unit", "a", payload)
        put(tier, "unit", "b", payload)
        tier.get("unit", "a")  # refresh: "b" becomes the LRU victim
        put(tier, "unit", "c", payload)
        assert tier.get("unit", "a")[0] is True
        assert tier.get("unit", "b")[0] is False  # evicted
        assert tier.get("unit", "c")[0] is True
        assert counter_value("cache.mem_evictions") == evictions + 1
        assert tier.stats()["bytes"] <= tier.budget_bytes

    def test_oversized_payload_skips_the_tier(self):
        tier = MemoryTier(512, shards=1)
        put(tier, "unit", "big", {"blob": "x" * 4096})
        assert tier.get("unit", "big")[0] is False
        assert tier.stats()["entries"] == 0
        # A resident entry re-put oversized is dropped, not left stale.
        put(tier, "unit", "k", {"v": 1})
        assert tier.get("unit", "k")[0] is True
        invalidations = counter_value("cache.mem_invalidations")
        put(tier, "unit", "k", {"blob": "x" * 4096})
        assert tier.get("unit", "k")[0] is False
        assert counter_value("cache.mem_invalidations") == invalidations + 1
        assert tier.stats()["entries"] == 0

    def test_changed_payload_replaces_and_counts_invalidation(self):
        tier = MemoryTier(1024 * 1024, shards=1)
        invalidations = counter_value("cache.mem_invalidations")
        put(tier, "unit", "k", {"v": 1})
        first = tier.digest("unit", "k")
        put(tier, "unit", "k", {"v": 1})  # same bytes: no invalidation
        assert counter_value("cache.mem_invalidations") == invalidations
        put(tier, "unit", "k", {"v": 2})
        assert counter_value("cache.mem_invalidations") == invalidations + 1
        assert tier.digest("unit", "k") != first
        assert tier.get("unit", "k") == (True, {"v": 2})

    def test_invalidate_drops_the_entry(self):
        tier = MemoryTier(1024 * 1024, shards=1)
        put(tier, "unit", "k", {"v": 1})
        assert tier.invalidate("unit", "k") is True
        assert tier.invalidate("unit", "k") is False
        assert tier.get("unit", "k")[0] is False
        assert tier.stats() == {
            "budget_bytes": tier.budget_bytes,
            "entries": 0,
            "bytes": 0,
            "shards": 1,
        }

    def test_zero_budget_disables_everything(self):
        tier = MemoryTier(0)
        assert tier.enabled is False
        put(tier, "unit", "k", {"v": 1})
        assert tier.get("unit", "k") == (False, None)
        assert tier.digest("unit", "k") is None


class TestStoreIntegration:
    def test_memory_hit_is_bit_identical_to_disk_hit(self, tmp_path):
        """The parity requirement: force both tiers over the same keys
        and compare canonical bytes."""
        payload = {"rows": [1.5, 2.25], "meta": {"zeta": 1, "alpha": 2}}
        key = hash_payload("unit", {"q": 1})
        ResultCache(tmp_path, mem_budget_mb=8).put("unit", key, payload)

        disk_only = ResultCache(tmp_path, mem_budget_mb=0)
        via_disk = disk_only.get("unit", key)

        tiered = ResultCache(tmp_path, mem_budget_mb=8)
        first = tiered.get("unit", key)  # disk read, admits to memory
        assert tiered.mem.digest("unit", key) is not None
        second = tiered.get("unit", key)  # memory hit
        assert canonical_json(via_disk) == canonical_json(payload)
        assert canonical_json(first) == canonical_json(payload)
        assert canonical_json(second) == canonical_json(payload)
        # Key order is part of the contract (report columns derive from
        # it), so compare plain dumps too, not just the canonical form.
        assert json.dumps(second) == json.dumps(via_disk)

    def test_put_and_disk_hit_share_one_digest(self, tmp_path):
        """Coherence without a second encode: the digest a ``put`` leaves
        equals the one a fresh handle's disk hit leaves, and both charge
        the entry file's length."""
        payload = {"v": [1, 2, 3], "meta": {"zeta": 1, "alpha": 2.5}}
        key = hash_payload("unit", {"q": 7})
        invalidations = counter_value("cache.mem_invalidations")
        writer = ResultCache(tmp_path, mem_budget_mb=8)
        writer.put("unit", key, payload)
        reader = ResultCache(tmp_path, mem_budget_mb=8)
        assert reader.get("unit", key) == payload  # disk hit, admitted
        digest = writer.mem.digest("unit", key)
        assert digest is not None
        assert reader.mem.digest("unit", key) == digest
        reader.put("unit", key, payload)  # refresh: same bytes, same digest
        assert reader.mem.digest("unit", key) == digest
        assert counter_value("cache.mem_invalidations") == invalidations
        file_bytes = writer._entry_path("unit", key).stat().st_size
        charged = file_bytes + ENTRY_OVERHEAD_BYTES
        assert writer.mem.stats()["bytes"] == charged
        assert reader.mem.stats()["bytes"] == charged
        assert writer.mem.digest("unit", "absent") is None

    def test_unserializable_payload_is_dropped(self, tmp_path):
        """``ResultCache.put`` drops a non-JSON payload on either path:
        nothing resident, nothing on disk."""
        cache = ResultCache(tmp_path, mem_budget_mb=8)
        eager = hash_payload("unit", {"q": 8})
        behind = hash_payload("unit", {"q": 9})
        cache.put("unit", eager, {"fn": object()})
        cache.put_behind("unit", behind, {"fn": object()})
        assert cache.drain(timeout=10)
        for key in (eager, behind):
            assert cache.mem.get("unit", key)[0] is False
            assert not cache._entry_path("unit", key).exists()
            assert cache.get("unit", key) is None
        assert cache.mem.stats()["entries"] == 0

    def test_disk_tier_never_consulted_on_memory_hit(self, tmp_path):
        cache = ResultCache(tmp_path, mem_budget_mb=8)
        key = hash_payload("unit", {"q": 2})
        cache.put("unit", key, {"v": 1})
        cache._entry_path("unit", key).unlink()  # disk gone, memory holds
        assert cache.get("unit", key) == {"v": 1}

    def test_deferred_put_visible_with_tier_disabled(
        self, tmp_path, held_writes
    ):
        """A ``put_behind`` entry stays visible to its own process until
        its write lands, even when ``REPRO_CACHE_MEM_MB=0`` turns the
        memory tier off."""
        started, release = held_writes
        cache = ResultCache(tmp_path, mem_budget_mb=0)
        key = hash_payload("unit", {"q": 3})
        cache.put_behind("unit", key, {"v": 3})
        assert started.wait(10)
        assert not cache._entry_path("unit", key).exists()
        assert cache.get("unit", key) == {"v": 3}
        release.set()
        assert cache.drain(timeout=10)
        assert cache.get("unit", key) == {"v": 3}  # now read from disk

    def test_oversized_reput_drops_the_resident_entry(self, tmp_path):
        """A payload too large for the tier must not leave an older copy
        of its key serving: this handle and a fresh one read what the
        disk holds."""
        key = hash_payload("unit", {"q": 10})
        cache = ResultCache(tmp_path, mem_budget_mb=1)
        cache.put("unit", key, {"v": "small"})
        assert cache.mem.digest("unit", key) is not None
        big = {"v": "x" * 200_000}
        cache.put("unit", key, big)
        assert cache.get("unit", key) == big
        assert ResultCache(tmp_path, mem_budget_mb=1).get("unit", key) == big

    def test_repair_quarantine_drops_the_resident_entry(self, tmp_path):
        """A corrupt disk entry must never keep serving from memory:
        quarantining it invalidates the resident copy too."""
        cache = ResultCache(tmp_path, mem_budget_mb=8)
        key = hash_payload("unit", {"q": 4})
        cache.put("unit", key, {"v": 4})
        assert cache.get("unit", key) == {"v": 4}  # resident
        cache._entry_path("unit", key).write_text("{corrupt")
        invalidations = counter_value("cache.mem_invalidations")
        report = cache.verify(repair=True)
        assert report["corrupt"] == 1 and report["quarantined"] == 1
        assert counter_value("cache.mem_invalidations") == invalidations + 1
        assert cache.get("unit", key) is None  # memory did not mask it

    def test_stats_reports_the_memory_tier(self, tmp_path):
        cache = ResultCache(tmp_path, mem_budget_mb=8)
        key = hash_payload("unit", {"q": 5})
        cache.put("unit", key, {"v": 5})
        stats = cache.stats()
        assert stats["memory"]["budget_bytes"] == 8 * 1024 * 1024
        assert stats["memory"]["entries"] == 1
        assert stats["memory"]["bytes"] > 0

    def test_env_budget_validation(self, monkeypatch):
        import repro.cache.store as store_mod

        monkeypatch.setenv(store_mod.ENV_MEM_MB, "16")
        assert store_mod._mem_mb_from_env() == 16
        monkeypatch.setenv(store_mod.ENV_MEM_MB, "")
        assert store_mod._mem_mb_from_env() == store_mod.DEFAULT_MEM_MB
        for bad in ("-1", "many"):
            monkeypatch.setenv(store_mod.ENV_MEM_MB, bad)
            with pytest.raises(ConfigurationError):
                store_mod._mem_mb_from_env()


class TestCliStats:
    def test_stats_json_includes_memory_counters(
        self, cache_dir, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_MEM_MB", "8")
        from repro.cache import active_cache, reset_cache_handles
        from repro.cli import main

        reset_cache_handles()
        cache = active_cache()
        key = hash_payload("unit", {"q": 6})
        cache.put("unit", key, {"v": 6})
        cache.get("unit", key)
        assert main(["cache", "stats", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["enabled"] is True
        assert stats["entries"] >= 1  # the disk entry written above
        assert stats["memory"]["budget_bytes"] == 8 * 1024 * 1024
        counters = stats["memory"]["counters"]
        assert counters and all(
            name.startswith("cache.mem_") for name in counters
        )
        # The hit recorded on the live handle above is in the registry.
        assert any(name.startswith("cache.mem_hits") for name in counters)
        reset_cache_handles()
