"""Fixtures for the persistent-cache suite.

The repo-wide conftest disables the store (so every other suite stays
hermetic); tests here re-enable it against a per-test temp directory.
"""

import threading

import pytest

from repro.cache import ResultCache, reset_cache_handles


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """A live persistent cache rooted in ``tmp_path``; yields the root."""
    root = tmp_path / "store"
    monkeypatch.setenv("REPRO_CACHE", "on")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    reset_cache_handles()
    yield root
    reset_cache_handles()


@pytest.fixture
def held_writes(monkeypatch):
    """Hold every store disk write until the test sets ``release``.

    Yields ``(started, release)``; ``started`` is set once a write is
    waiting, so a test can look at a ``put_behind`` entry before its
    write lands.
    """
    started, release = threading.Event(), threading.Event()
    write = ResultCache._write_entry

    def held(self, *args):
        started.set()
        release.wait(10)
        return write(self, *args)

    monkeypatch.setattr(ResultCache, "_write_entry", held)
    yield started, release
    release.set()
