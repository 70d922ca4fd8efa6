"""Fault injection for cache publishes: degrade silently, never litter.

``ResultCache.put`` promises that a failed publish (unserializable
payload, full disk, vanished directory) costs one recompute — it must
not raise, must not leave ``*.tmp`` files, and must not poison the
in-process memo with an entry that never reached disk.
"""

import pytest

from repro.cache.store import ResultCache

KEY = "ab" + "0" * 62


def tmp_litter(root):
    if not root.is_dir():
        return []
    return [p for p in root.rglob(".*.tmp")]


class TestPutFaultInjection:
    def test_unserializable_payload_degrades_silently(self, cache_dir):
        cache = ResultCache(cache_dir)
        cache.put("sec", KEY, {"bad": {1, 2, 3}})  # sets are not JSON
        assert cache.get("sec", KEY) is None  # memo not poisoned either
        assert tmp_litter(cache_dir) == []

    def test_replace_failure_degrades_silently(self, cache_dir, monkeypatch):
        monkeypatch.setattr(
            "repro.cache.store.os.replace",
            lambda src, dst: (_ for _ in ()).throw(OSError("disk full")),
        )
        cache = ResultCache(cache_dir)
        cache.put("sec", KEY, {"x": 1})  # must not raise
        assert tmp_litter(cache_dir) == []
        monkeypatch.undo()
        # The failed publish is a clean miss, not a phantom memo hit.
        assert cache.get("sec", KEY) is None

    @pytest.mark.parametrize(
        "mem_budget_mb", [0, 64], ids=["mem-off", "mem-on"]
    )
    def test_deferred_unserializable_payload_degrades_silently(
        self, cache_dir, mem_budget_mb
    ):
        cache = ResultCache(cache_dir, mem_budget_mb=mem_budget_mb)
        cache.put_behind("sec", KEY, {"bad": {1, 2, 3}})
        # Never resident or pending, so never served back either.
        assert cache.get("sec", KEY) is None
        assert cache.mem.stats()["entries"] == 0
        assert cache.drain(timeout=10)
        assert cache.get("sec", KEY) is None
        assert not cache._entry_path("sec", KEY).exists()
        assert tmp_litter(cache_dir) == []

    def test_deferred_replace_failure_degrades_silently(
        self, cache_dir, monkeypatch
    ):
        monkeypatch.setattr(
            "repro.cache.store.os.replace",
            lambda src, dst: (_ for _ in ()).throw(OSError("disk full")),
        )
        caches = [
            ResultCache(cache_dir / name, mem_budget_mb=mem_budget_mb)
            for name, mem_budget_mb in (("mem-off", 0), ("mem-on", 64))
        ]
        for cache in caches:
            cache.put_behind("sec", KEY, {"x": 1})  # must not raise
            # The background write fails under the patch.
            assert cache.drain(timeout=10)
        assert tmp_litter(cache_dir) == []
        monkeypatch.undo()
        for cache in caches:
            # The failed write is a clean miss, not a phantom memory-tier
            # hit, in this handle or a fresh one.
            assert cache.get("sec", KEY) is None
            assert ResultCache(cache.root).get("sec", KEY) is None

    def test_failed_publish_keeps_previous_entry(self, cache_dir, monkeypatch):
        cache = ResultCache(cache_dir)
        cache.put("sec", KEY, {"version": 1})
        monkeypatch.setattr(
            "repro.cache.store.os.replace",
            lambda src, dst: (_ for _ in ()).throw(OSError("read-only fs")),
        )
        cache.put("sec", KEY, {"version": 2})
        monkeypatch.undo()
        fresh = ResultCache(cache_dir)  # bypass the first handle's memo
        assert fresh.get("sec", KEY) == {"version": 1}
        assert tmp_litter(cache_dir) == []
