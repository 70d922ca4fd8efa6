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
            "repro.fsutil.os.replace",
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
        with cache.deferred():
            cache.put("sec", KEY, {"bad": {1, 2, 3}})
            # Not served back from the deferral buffer either.
            assert cache.get("sec", KEY) is None
        cache.drain()
        assert cache.get("sec", KEY) is None
        assert tmp_litter(cache_dir) == []

    def test_deferred_replace_failure_degrades_silently(
        self, cache_dir, monkeypatch
    ):
        monkeypatch.setattr(
            "repro.fsutil.os.replace",
            lambda src, dst: (_ for _ in ()).throw(OSError("disk full")),
        )
        cache = ResultCache(cache_dir)
        with cache.deferred():
            cache.put("sec", KEY, {"x": 1})  # must not raise
        cache.drain()  # the write-behind flush fails under the patch
        assert tmp_litter(cache_dir) == []
        monkeypatch.undo()
        # The failed flush is a clean miss, not a phantom memory-tier hit.
        assert cache.get("sec", KEY) is None
        assert ResultCache(cache_dir).get("sec", KEY) is None

    def test_failed_publish_keeps_previous_entry(self, cache_dir, monkeypatch):
        cache = ResultCache(cache_dir)
        cache.put("sec", KEY, {"version": 1})
        monkeypatch.setattr(
            "repro.fsutil.os.replace",
            lambda src, dst: (_ for _ in ()).throw(OSError("read-only fs")),
        )
        cache.put("sec", KEY, {"version": 2})
        monkeypatch.undo()
        fresh = ResultCache(cache_dir)  # bypass the first handle's memo
        assert fresh.get("sec", KEY) == {"version": 1}
        assert tmp_litter(cache_dir) == []
