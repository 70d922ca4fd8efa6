"""Fault-injection tests for :func:`repro.cache.store.atomic_write_text`.

The invariant: either the destination holds exactly the new text, or the
write failed, the destination is untouched, and — critically — no
``*.tmp`` litter survives.  Failures are injected at both stages of the
publish (the temp-file write and the ``os.replace``).
"""

import os

import pytest

from repro.cache.store import atomic_write_text


def tmp_litter(directory):
    return [p.name for p in directory.glob(".*.tmp")]


class TestHappyPath:
    def test_writes_and_creates_parents(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "out.json"
        atomic_write_text(target, "{}")
        assert target.read_text() == "{}"
        assert tmp_litter(target.parent) == []

    def test_overwrites_atomically(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_text(target, "old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"
        assert tmp_litter(tmp_path) == []

    def test_concurrent_style_temp_names_are_unique(self, tmp_path, monkeypatch):
        """Two publishes to one destination never share a temp file."""
        seen = []
        real_replace = os.replace

        def recording_replace(src, dst):
            seen.append(os.path.basename(str(src)))
            real_replace(src, dst)

        monkeypatch.setattr("repro.cache.store.os.replace", recording_replace)
        target = tmp_path / "out.json"
        atomic_write_text(target, "a")
        atomic_write_text(target, "b")
        assert len(seen) == 2 and seen[0] != seen[1]


class TestFaultInjection:
    def test_replace_failure_leaves_no_tmp(self, tmp_path, monkeypatch):
        """A failing ``os.replace`` (vanished dir, EXDEV...) cleans up."""
        monkeypatch.setattr(
            "repro.cache.store.os.replace",
            lambda src, dst: (_ for _ in ()).throw(OSError("disk full")),
        )
        target = tmp_path / "out.json"
        with pytest.raises(OSError, match="disk full"):
            atomic_write_text(target, "data")
        assert not target.exists()
        assert tmp_litter(tmp_path) == []

    def test_replace_failure_keeps_old_content(self, tmp_path, monkeypatch):
        target = tmp_path / "out.json"
        atomic_write_text(target, "old")
        monkeypatch.setattr(
            "repro.cache.store.os.replace",
            lambda src, dst: (_ for _ in ()).throw(OSError("read-only fs")),
        )
        with pytest.raises(OSError):
            atomic_write_text(target, "new")
        assert target.read_text() == "old"
        assert tmp_litter(tmp_path) == []

    def test_write_failure_leaves_no_tmp(self, tmp_path, monkeypatch):
        """A failure while writing the temp file itself also cleans up."""
        real_write = os.write

        def failing_write(fd, data):
            real_write(fd, data[: len(data) // 2])  # partial!
            raise OSError("no space left on device")

        monkeypatch.setattr("repro.cache.store.os.write", failing_write)
        target = tmp_path / "out.json"
        with pytest.raises(OSError, match="no space left"):
            atomic_write_text(target, "data-that-does-not-fit")
        assert not target.exists()
        assert tmp_litter(tmp_path) == []
