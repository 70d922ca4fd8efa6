"""Unit tests for the content-addressed result store itself."""

import json
import os
import sys
import threading
import time

import pytest

import repro.cache.store as store_mod
from repro.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    active_cache,
    cache_enabled,
    cache_root,
    canonical_json,
    hash_payload,
)
from repro.errors import ConfigurationError


class TestKeys:
    def test_canonical_json_is_order_independent(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})

    def test_key_changes_with_payload_and_section(self):
        key = hash_payload("s", {"x": 1})
        assert key != hash_payload("s", {"x": 2})
        assert key != hash_payload("t", {"x": 1})
        assert len(key) == 64

    def test_key_salted_by_schema_version(self, monkeypatch):
        import repro.cache.keys as keys_mod

        before = hash_payload("s", {"x": 1})
        monkeypatch.setattr(
            keys_mod, "CACHE_SCHEMA_VERSION", CACHE_SCHEMA_VERSION + 1
        )
        assert hash_payload("s", {"x": 1}) != before

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})


class TestRoundTrip:
    def test_payload_survives_new_instance(self, tmp_path):
        key = hash_payload("unit", {"q": 1})
        ResultCache(tmp_path).put("unit", key, {"rows": [1, 2, 3]})
        # A brand-new instance has an empty memo: this read hits the disk.
        assert ResultCache(tmp_path).get("unit", key) == {"rows": [1, 2, 3]}

    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).get("unit", hash_payload("unit", {})) is None

    def test_dict_key_order_preserved(self, tmp_path):
        # Column order of experiment tables derives from dict order, so
        # the store must not normalize it.
        payload = {"zeta": 1, "alpha": 2, "mid": 3}
        key = hash_payload("unit", {"case": "order"})
        ResultCache(tmp_path).put("unit", key, payload)
        restored = ResultCache(tmp_path).get("unit", key)
        assert list(restored) == ["zeta", "alpha", "mid"]


class TestCorruptionRecovery:
    def _entry_path(self, root, section, key):
        return ResultCache(root)._entry_path(section, key)

    def test_truncated_entry_is_removed_and_missed(self, tmp_path):
        key = hash_payload("unit", {"q": 2})
        ResultCache(tmp_path).put("unit", key, [1, 2])
        path = self._entry_path(tmp_path, "unit", key)
        path.write_text(path.read_text()[:10])
        assert ResultCache(tmp_path).get("unit", key) is None
        assert not path.exists()

    def test_stale_schema_entry_is_removed(self, tmp_path):
        key = hash_payload("unit", {"q": 3})
        cache = ResultCache(tmp_path)
        cache.put("unit", key, [1])
        path = self._entry_path(tmp_path, "unit", key)
        entry = json.loads(path.read_text())
        entry["schema"] = CACHE_SCHEMA_VERSION + 999
        path.write_text(json.dumps(entry))
        assert ResultCache(tmp_path).get("unit", key) is None
        assert not path.exists()

    def test_mismatched_key_field_rejected(self, tmp_path):
        key_a = hash_payload("unit", {"q": "a"})
        key_b = hash_payload("unit", {"q": "b"})
        cache = ResultCache(tmp_path)
        cache.put("unit", key_a, "A")
        # Copy A's document under B's path: the embedded key disagrees.
        doc = self._entry_path(tmp_path, "unit", key_a).read_text()
        path_b = self._entry_path(tmp_path, "unit", key_b)
        path_b.parent.mkdir(parents=True, exist_ok=True)
        path_b.write_text(doc)
        assert ResultCache(tmp_path).get("unit", key_b) is None

    def test_unserializable_payload_degrades_silently(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("unit", hash_payload("unit", {"q": 4}), object())
        assert cache.stats()["entries"] == 0

    def test_verify_reports_bad_entries_without_touching_them(self, tmp_path):
        cache = ResultCache(tmp_path)
        good = hash_payload("unit", {"n": 1})
        bad = hash_payload("unit", {"n": 2})
        cache.put("unit", good, "ok")
        cache.put("unit", bad, "soon-garbage")
        bad_path = self._entry_path(tmp_path, "unit", bad)
        bad_path.write_text("{not json")
        report = ResultCache(tmp_path).verify()
        assert report == {"checked": 2, "ok": 1, "corrupt": 1, "quarantined": 0}
        assert bad_path.exists()  # report-only: nothing moved yet

    def test_verify_repair_quarantines_bad_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        good = hash_payload("unit", {"n": 1})
        bad = hash_payload("unit", {"n": 2})
        cache.put("unit", good, "ok")
        cache.put("unit", bad, "soon-garbage")
        bad_path = self._entry_path(tmp_path, "unit", bad)
        bad_path.write_text("{not json")
        report = ResultCache(tmp_path).verify(repair=True)
        assert report == {"checked": 2, "ok": 1, "corrupt": 1, "quarantined": 1}
        assert not bad_path.exists()
        moved = tmp_path / ".quarantine" / "unit" / bad_path.name
        assert moved.read_text() == "{not json"  # kept for post mortems
        # The quarantine dir is invisible to stats/verify walks.
        follow_up = ResultCache(tmp_path).verify()
        assert follow_up == {
            "checked": 1, "ok": 1, "corrupt": 0, "quarantined": 0
        }
        assert ResultCache(tmp_path).get("unit", good) == "ok"


class TestEvictionAndMaintenance:
    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        for n in range(3):
            cache.put("unit", hash_payload("unit", {"n": n}), n)
        assert cache.clear() == 3
        assert ResultCache(tmp_path).stats()["entries"] == 0

    def test_stats_breaks_down_by_section(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("alpha", hash_payload("alpha", {}), [1])
        cache.put("beta", hash_payload("beta", {}), [2])
        stats = cache.stats()
        assert set(stats["sections"]) == {"alpha", "beta"}
        assert stats["entries"] == 2
        assert stats["bytes"] > 0

    def test_entries_sit_directly_under_their_section(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = hash_payload("unit", {"flat": True})
        cache.put("unit", key, [1])
        path = cache._entry_path("unit", key)
        assert path == tmp_path / "unit" / f"{key}.json"
        assert [p.name for p in (tmp_path / "unit").iterdir()] == [path.name]

    def test_older_nested_layout_is_counted_checked_and_cleared(
        self, tmp_path
    ):
        """Entries written under ``<section>/<key[:2]>/<key>.json`` by the
        earlier layout are no longer read, but ``stats`` counts them,
        ``verify`` checks them and ``clear`` removes them."""
        cache = ResultCache(tmp_path)
        good = hash_payload("unit", {"n": "good"})
        bad = hash_payload("unit", {"n": "bad"})
        nested = {}
        for key in (good, bad):
            cache.put("unit", key, key)
            nested[key] = tmp_path / "unit" / key[:2] / f"{key}.json"
            nested[key].parent.mkdir(exist_ok=True)
            os.replace(cache._entry_path("unit", key), nested[key])
        nested[bad].write_text("{torn")
        fresh = ResultCache(tmp_path)
        assert fresh.get("unit", good) is None  # reads cold once
        assert fresh.stats()["sections"]["unit"]["entries"] == 2
        assert fresh.verify() == {
            "checked": 2, "ok": 1, "corrupt": 1, "quarantined": 0
        }
        assert fresh.clear() == 2
        assert not any(path.exists() for path in nested.values())
        assert fresh.stats()["entries"] == 0


class TestConcurrentWriters:
    def test_threaded_putters_and_getters_never_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = [hash_payload("unit", {"n": n}) for n in range(8)]
        errors = []

        def hammer(worker):
            try:
                for round_no in range(25):
                    for n, key in enumerate(keys):
                        # Same key always carries the same payload, as in
                        # real use (keys are content hashes of the request).
                        ResultCache(tmp_path).put("unit", key, {"n": n})
                        got = cache.get("unit", key)
                        if got is not None and got != {"n": n}:
                            errors.append((worker, round_no, n, got))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append((worker, exc))

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        report = ResultCache(tmp_path).verify()
        assert report["checked"] == len(keys)
        assert report["corrupt"] == 0


class TestEnvironmentKnobs:
    def test_disabled_by_default_in_tests(self):
        # The repo conftest turns the store off for every other suite.
        assert cache_enabled() is False
        assert active_cache() is None

    def test_enable_roundtrip(self, cache_dir):
        cache = active_cache()
        assert cache is not None
        assert cache.root == cache_dir

    def test_invalid_enable_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "banana")
        with pytest.raises(ConfigurationError, match="REPRO_CACHE"):
            cache_enabled()

    def test_default_root_under_user_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", "/somewhere/cache")
        assert str(cache_root()) == f"/somewhere/cache/{store_mod.DEFAULT_SUBDIR}"

    def test_instances_shared_per_root(self, cache_dir):
        assert active_cache() is active_cache()


class TestDeferredPublishes:
    """``put_behind``, the write-behind publish, against ``put``."""

    def entry_files(self, root):
        return sorted(p for p in root.rglob("*.json"))

    def test_buffered_puts_visible_in_process_before_flush(
        self, tmp_path, held_writes
    ):
        started, release = held_writes
        cache = ResultCache(tmp_path)
        key = hash_payload("unit", {"d": 1})
        cache.put_behind("unit", key, {"v": 1})
        assert started.wait(10)
        # The write has not landed, yet this process reads the entry...
        assert not cache._entry_path("unit", key).exists()
        assert cache.get("unit", key) == {"v": 1}
        release.set()
        assert cache.drain(timeout=10)
        # ...and once it lands, so does a fresh handle.
        assert ResultCache(tmp_path).get("unit", key) == {"v": 1}

    def test_duplicate_puts_collapse_to_last(self, tmp_path, held_writes):
        """A second ``put_behind`` of a key while the first one's write is
        in flight still leaves the last payload on disk."""
        started, release = held_writes
        cache = ResultCache(tmp_path)
        key = hash_payload("unit", {"dup": True})
        cache.put_behind("unit", key, {"v": "first"})
        assert started.wait(10)
        cache.put_behind("unit", key, {"v": "last"})
        release.set()
        assert cache.drain(timeout=10)
        assert len(self.entry_files(tmp_path)) == 1
        assert ResultCache(tmp_path).get("unit", key) == {"v": "last"}

    def test_drain_is_noop_when_idle(self, tmp_path):
        assert ResultCache(tmp_path).drain(timeout=0.1) is True

    def test_flushes_are_deterministic_across_drains(self, tmp_path):
        """Same payloads -> byte-identical entries, ``put`` or
        ``put_behind``."""
        direct = ResultCache(tmp_path / "direct")
        behind = ResultCache(tmp_path / "behind")
        payloads = [{"n": n, "rows": list(range(n))} for n in range(5)]
        for n, payload in enumerate(payloads):
            direct.put("unit", hash_payload("unit", {"n": n}), payload)
            behind.put_behind("unit", hash_payload("unit", {"n": n}), payload)
        assert behind.drain(timeout=10)
        direct_files = {
            p.relative_to(tmp_path / "direct"): p.read_bytes()
            for p in (tmp_path / "direct").rglob("*.json")
        }
        behind_files = {
            p.relative_to(tmp_path / "behind"): p.read_bytes()
            for p in (tmp_path / "behind").rglob("*.json")
        }
        assert len(direct_files) == len(payloads)
        assert direct_files == behind_files

    def test_concurrent_put_behind_lands_every_last_payload(self, tmp_path):
        """Threads re-put their own keys while the flush thread writes
        them: after ``drain()`` every key holds its last payload on disk."""
        keys = [
            [hash_payload("unit", {"t": t, "k": k}) for k in range(2)]
            for t in range(8)
        ]

        def writer(cache, own):
            for version in range(100):
                for key in own:
                    cache.put_behind("unit", key, {"v": version})
                time.sleep(0.0002)  # let the flush thread interleave

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_dir in ("a", "b", "c", "d"):
                cache = ResultCache(tmp_path / round_dir)
                threads = [
                    threading.Thread(target=writer, args=(cache, own))
                    for own in keys
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(10)
                assert not any(thread.is_alive() for thread in threads)
                assert cache.drain(timeout=30)
                fresh = ResultCache(tmp_path / round_dir)
                landed = [fresh.get("unit", key) for own in keys for key in own]
                assert landed == [{"v": 99}] * 16
        finally:
            sys.setswitchinterval(interval)

    def test_report_batch_never_reaches_the_flush_thread(
        self, cache_dir, monkeypatch
    ):
        """An in-process batch publishes inside ``put``: every entry is on
        disk when ``run_batch`` returns, with no ``drain()`` and no flush
        thread."""
        from repro.experiments.runner import RunPolicy, run_batch

        flushes = []
        monkeypatch.setattr(
            ResultCache, "_flush_worker", lambda self: flushes.append(self)
        )
        ids = ["table04", "area"]
        outcomes = run_batch(ids, RunPolicy())
        assert [outcome.status for outcome in outcomes] == ["ok", "ok"]
        assert len(self.entry_files(cache_dir / "experiment")) == len(ids)
        assert flushes == []
