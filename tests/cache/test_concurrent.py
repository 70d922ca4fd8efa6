"""Cross-process cache races, exercised with real subprocesses.

Two writers publishing the same key, writers churning distinct keys, and
a reader polling mid-race must never observe a torn entry: ``os.replace``
publishes are atomic, so every read sees a complete, integrity-checked
document (or a miss) — never partial JSON.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.cache.store import ResultCache

PAD = "x" * 4096

#: Publishes `count` entries.  With `distinct=0` every iteration rewrites
#: the same key; with `distinct=1` each iteration gets its own key (the
#: churn mode).
WRITER = """
import hashlib, sys
from repro.cache.store import ResultCache

root, section, salt, count, distinct = sys.argv[1:6]
cache = ResultCache(root)
for i in range(int(count)):
    seed = f"{salt}-{i}" if int(distinct) else "contended"
    key = hashlib.sha256(seed.encode()).hexdigest()
    cache.put(section, key, {"salt": salt, "i": i, "pad": "x" * 4096})
"""


def _spawn_writer(root, section, salt, count, *, distinct=False):
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE"] = "on"
    return subprocess.Popen(
        [
            sys.executable, "-c", WRITER,
            str(root), section, salt, str(count), str(int(distinct)),
        ],
        env=env,
        stderr=subprocess.PIPE,
    )


def _assert_clean_exit(proc):
    stderr = proc.communicate(timeout=120)[1].decode()
    assert proc.returncode == 0, stderr


def _key_for(seed: str) -> str:
    return hashlib.sha256(seed.encode()).hexdigest()


class TestConcurrentPublish:
    def test_same_key_racing_writers_never_expose_partial_json(self, tmp_path):
        """A reader polling while two processes rewrite one key sees only
        complete documents — the no-torn-reads guarantee, observed from a
        third process (the test) at the raw-file level."""
        root = tmp_path / "store"
        key = _key_for("contended")
        path = ResultCache(root)._entry_path("race", key)
        writers = [
            _spawn_writer(root, "race", salt, 300) for salt in ("aaaa", "bbbb")
        ]
        observed = 0
        torn = []
        while any(proc.poll() is None for proc in writers):
            try:
                text = path.read_text()
            except OSError:
                continue  # not published yet — a miss, never a partial
            try:
                doc = json.loads(text)
            except ValueError:
                torn.append(text[:80])
                continue
            observed += 1
            if doc.get("payload", {}).get("pad") != PAD:
                torn.append(text[:80])
            if doc.get("key") != key or doc.get("section") != "race":
                torn.append(text[:80])
        for proc in writers:
            _assert_clean_exit(proc)
        assert torn == [], f"torn reads observed: {torn[:3]}"
        assert observed > 0, "reader never caught a published entry"
        # Last writer wins with an intact payload.
        final = ResultCache(root).get("race", key)
        assert final["salt"] in ("aaaa", "bbbb")
        assert final["pad"] == PAD and final["i"] == 299

    def test_publish_during_eviction_stays_consistent(self, tmp_path):
        """Two writers churning distinct keys into one section publish
        concurrently; every entry must land complete and decodable."""
        root = tmp_path / "store"
        writers = [
            _spawn_writer(root, "evict", salt, 120, distinct=True)
            for salt in ("pppp", "qqqq")
        ]
        for proc in writers:
            _assert_clean_exit(proc)
        cache = ResultCache(root)
        report = cache.verify()  # reports anything corrupt/stale
        assert report["corrupt"] == 0, "publish race corrupted entries"
        assert report["ok"] == report["checked"] == 240
        # Every entry is intact end to end.
        for salt in ("pppp", "qqqq"):
            for i in range(120):
                doc = cache.get("evict", _key_for(f"{salt}-{i}"))
                assert doc == {"salt": salt, "i": i, "pad": PAD}
