"""Persistent, content-addressed result store shared across processes.

Entries live under ``<root>/<section>/<key>.json`` where the key is a
SHA-256 over the full request (:mod:`repro.cache.keys`); only
:class:`ResultCache` knows the layout.  The store is safe for concurrent
writers — ``--jobs N`` experiment workers share one directory — because
every write lands in a unique temp file and is published with
``os.replace`` (atomic on POSIX).  Nothing trims it: a report writes
its 26 experiment entries, each distinct served request one ``serve``
entry, and ``repro cache clear`` empties it.  A corrupt or truncated
entry is never fatal: the hot read path *self-heals* — the bad entry is
quarantined (moved under ``<root>/.quarantine`` for post mortems),
counted, and reported as a miss so the caller recomputes and
republishes.  ``repro cache verify`` reports corruption; ``--repair``
sends bad entries through the same quarantine path.

Configuration is environment-driven so it crosses the ``spawn`` boundary
to worker processes:

* ``REPRO_CACHE`` — ``off``/``0``/``false``/``no`` disables the store
  entirely (default: on).
* ``REPRO_CACHE_DIR`` — store root (default:
  ``$XDG_CACHE_HOME/repro-flexflow`` or ``~/.cache/repro-flexflow``).
* ``REPRO_CACHE_MEM_MB`` — byte budget (MiB) for the in-memory hot tier
  holding decoded entries in front of the disk store (default
  :data:`repro.cache.memtier.DEFAULT_MEM_MB`; ``0`` disables the tier
  so every hit pays the disk read).

Hit/miss/corrupt counts flow into the :mod:`repro.obs` metrics registry
(``cache.lookups{section,outcome}``, ``cache.writes{section}``) so
``repro profile`` and the benchmark harness can report cache
effectiveness.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.cache.keys import CACHE_SCHEMA_VERSION
from repro.cache.memtier import DEFAULT_MEM_MB, MemoryTier
from repro.chaos import chaos_point, chaos_sleep
from repro.errors import ConfigurationError
from repro.fsutil import atomic_write_text
from repro.obs.metrics import REGISTRY

#: Default store location, under the user cache directory.
DEFAULT_SUBDIR = "repro-flexflow"

#: Environment variables (read on every :func:`active_cache` call so
#: tests and subprocesses can reconfigure without reimporting).
ENV_ENABLE = "REPRO_CACHE"
ENV_DIR = "REPRO_CACHE_DIR"
ENV_MEM_MB = "REPRO_CACHE_MEM_MB"

#: Corrupt entries are moved (never deleted) into this dot-directory,
#: which every store walk skips; operators can inspect or purge it.
QUARANTINE_DIR = ".quarantine"

_FALSEY = {"0", "off", "false", "no"}
_TRUTHY = {"1", "on", "true", "yes", ""}


def _encode_entry(section: str, key: str, payload: Any) -> Optional[str]:
    """The on-disk document for one entry, or ``None`` for a non-JSON payload.

    No ``sort_keys``: payload dict order is meaning-bearing (e.g.
    ExperimentResult rows derive their column order from it).  Compact
    separators: decode-identical, measurably faster to serialize and
    write on sweep-sized batches.
    """
    try:
        return json.dumps(
            {
                "schema": CACHE_SCHEMA_VERSION,
                "section": section,
                "key": key,
                "payload": payload,
            },
            separators=(",", ":"),
        )
    except (TypeError, ValueError):
        return None


class ResultCache:
    """One on-disk store plus a byte-budgeted memory tier in front of it.

    ``mem_budget_mb=None`` resolves the budget from ``REPRO_CACHE_MEM_MB``
    at construction (default :data:`~repro.cache.memtier.DEFAULT_MEM_MB`);
    ``0`` disables the tier so every hit pays the disk read.
    """

    def __init__(self, root: Path, *, mem_budget_mb: Optional[int] = None):
        self.root = Path(root)
        self._root_str = str(self.root)
        if mem_budget_mb is None:
            mem_budget_mb = _mem_mb_from_env()
        self.mem = MemoryTier(mem_budget_mb * 1024 * 1024)
        # Write-behind state (:meth:`put_behind`): ``(section, key)`` ->
        # ``(payload, encoded entry)`` for every entry whose disk write
        # has not landed, oldest first.  It is both the flush thread's
        # queue and a read-through for :meth:`get`; :meth:`drain` (and
        # an atexit hook) wait for it to empty.
        self._flush_lock = threading.Lock()
        self._flush_cond = threading.Condition(self._flush_lock)
        self._pending: "OrderedDict[Tuple[str, str], Tuple[Any, str]]" = (
            OrderedDict()
        )
        self._flush_thread_running = False
        self._atexit_registered = False

    # -- paths ----------------------------------------------------------------

    def _entry_path(self, section: str, key: str) -> Path:
        return Path(self._entry_path_str(section, key))

    def _entry_path_str(self, section: str, key: str) -> str:
        # The hot read/write paths build plain strings: ``Path`` algebra
        # is measurable overhead at hundreds of lookups per sweep.
        return os.path.join(self._root_str, section, f"{key}.json")

    def _entry_files(self):
        """``(section, path)`` for every entry file, sorted per section.

        Also yields entries of the older ``<section>/<key[:2]>/`` layout,
        which lookups no longer read, so ``stats``, ``verify`` and
        ``clear`` still count, check and remove them.
        """
        if not self.root.is_dir():
            return
        for section_dir in sorted(self.root.iterdir()):
            if not section_dir.is_dir() or section_dir.name.startswith("."):
                continue  # skip quarantine and other dot-state
            section = section_dir.name
            for path in sorted(
                [*section_dir.glob("*.json"), *section_dir.glob("*/*.json")]
            ):
                yield section, path

    def quarantine_path(self, section: str) -> Path:
        return self.root / QUARANTINE_DIR / section

    def _quarantine(self, path: Path, section: str) -> bool:
        """Move one corrupt entry aside (the self-healing read path).

        Quarantined entries stop matching lookups immediately — the next
        reader recomputes and republishes — but stay on disk for post
        mortems.  Falls back to deletion if the move itself fails; never
        raises.
        """
        # The memory tier must never outlive the disk entry it mirrors:
        # drop it first so a concurrent reader re-reads (and heals) disk.
        self.mem.invalidate(section, path.stem)
        dest = self.quarantine_path(section) / path.name
        try:
            dest.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest)
        except OSError:
            try:
                path.unlink()
            except OSError:
                return False
        REGISTRY.counter("cache.quarantined", section=section).inc()
        return True

    # -- core operations ------------------------------------------------------

    def get(self, section: str, key: str) -> Optional[Any]:
        """The stored payload, or ``None`` on miss/corruption (never raises)."""
        hit, payload = self.mem.get(section, key)
        if not hit and self._pending:
            # A write-behind entry stays visible to its own process until
            # its write lands, even with the memory tier disabled.
            with self._flush_lock:
                pending = self._pending.get((section, key))
            if pending is not None:
                hit, payload = True, pending[0]
        if hit:
            REGISTRY.counter("cache.lookups", section=section, outcome="hit").inc()
            REGISTRY.counter("cache.memo_hits", section=section).inc()
            return payload
        chaos_sleep("slow_io")
        path_str = self._entry_path_str(section, key)
        try:
            with open(path_str, "r") as handle:
                text = handle.read()
        except OSError:
            REGISTRY.counter("cache.lookups", section=section, outcome="miss").inc()
            return None
        entry = self._decode_entry(text, section, key)
        if entry is None:
            REGISTRY.counter(
                "cache.lookups", section=section, outcome="corrupt"
            ).inc()
            # Self-heal: a bad entry only costs one recompute, then it is
            # out of the lookup path (but kept for inspection).
            self._quarantine(Path(path_str), section)
            return None
        REGISTRY.counter("cache.lookups", section=section, outcome="hit").inc()
        self.mem.put(section, key, entry["payload"], text)
        return entry["payload"]

    def put(self, section: str, key: str, payload: Any) -> None:
        """Publish one entry atomically (last concurrent writer wins).

        When the call returns, the entry is on disk and, budget
        permitting, in the memory tier.  A non-JSON payload is dropped,
        and a failed write leaves no memory-tier copy: either costs a
        recompute, never a crash.
        """
        text = _encode_entry(section, key, payload)
        if text is None:
            return
        if self._write_entry(section, key, text):
            self.mem.put(section, key, payload, text)

    def put_behind(self, section: str, key: str, payload: Any) -> None:
        """:meth:`put` with the disk write on a background flush thread.

        The served response is the one caller: waiting on its own disk
        write cost the server 15–25% of its cold p50.  The entry enters
        the memory tier before the call returns, and :meth:`get` reads
        it from the pending map until its write lands, so this process
        never misses it, even with the tier disabled.  Other processes
        see it once the write lands: :meth:`drain` waits for that, and
        an atexit hook drains (bounded) at interpreter shutdown.  A
        write that fails drops the memory-tier copy, the rule
        :meth:`_quarantine` follows: the tier must never serve an entry
        the disk does not hold.
        """
        text = _encode_entry(section, key, payload)
        if text is None:
            return
        self.mem.put(section, key, payload, text)
        with self._flush_lock:
            self._pending[(section, key)] = (payload, text)
            if not self._atexit_registered:
                self._atexit_registered = True
                atexit.register(self._drain_at_exit)
            if not self._flush_thread_running:
                self._flush_thread_running = True
                threading.Thread(
                    target=self._flush_worker,
                    name="repro-cache-flush",
                    daemon=True,
                ).start()

    def _write_entry(self, section: str, key: str, text: str) -> bool:
        """One atomic on-disk publish; ``True`` once it has landed."""
        chaos_sleep("slow_io")
        path = self._entry_path_str(section, key)
        try:
            atomic_write_text(path, text)
        except OSError:
            # A full/read-only disk degrades to a slower (uncached) run,
            # never a crash.
            return False
        if chaos_point("cache_corrupt"):
            # Truncate the just-published entry mid-document: the shape a
            # torn write or disk fault leaves behind for readers to heal.
            try:
                with open(path, "r+") as handle:
                    handle.truncate(max(1, os.path.getsize(path) // 2))
            except OSError:
                pass
        REGISTRY.counter("cache.writes", section=section).inc()
        return True

    def _flush_worker(self) -> None:
        """Write pending entries oldest first; exit once none is left.

        An entry leaves the pending map only after its write is done, and
        only if no newer :meth:`put_behind` of its key replaced it
        meanwhile; a replaced entry is written again.  A new thread starts
        on demand.
        """
        while True:
            with self._flush_lock:
                if not self._pending:
                    self._flush_thread_running = False
                    self._flush_cond.notify_all()
                    return
                entry_key, entry = next(iter(self._pending.items()))
            landed = False
            try:
                landed = self._write_entry(*entry_key, entry[1])
            except Exception:  # never kill the thread: cache IO is best-effort
                pass
            if not landed:
                self.mem.invalidate(*entry_key)
            with self._flush_lock:
                if self._pending.get(entry_key) is entry:
                    del self._pending[entry_key]

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every :meth:`put_behind` write has landed on disk.

        Returns ``False`` on timeout.  Call before handing the store root
        to another process or before asserting on-disk state in tests.
        """
        with self._flush_lock:
            return self._flush_cond.wait_for(
                lambda: not self._pending, timeout
            )

    def _drain_at_exit(self) -> None:
        # Bounded: losing late cache entries only costs a recompute next
        # run, and a wedged disk must not hang interpreter shutdown.
        self.drain(timeout=10.0)

    # -- maintenance ----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Entry and byte counts per section for ``repro cache stats``."""
        sections: Dict[str, Dict[str, int]] = {}
        total_entries = 0
        total_bytes = 0
        for section, path in self._entry_files():
            try:
                size = path.stat().st_size
            except OSError:
                continue
            bucket = sections.setdefault(section, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += size
            total_entries += 1
            total_bytes += size
        return {
            "root": str(self.root),
            "schema": CACHE_SCHEMA_VERSION,
            "entries": total_entries,
            "bytes": total_bytes,
            "sections": sections,
            "memory": self.mem.stats(),
        }

    def verify(self, *, repair: bool = False) -> Dict[str, int]:
        """Validate every entry; with ``repair``, quarantine the bad ones.

        The repair path is the hot read path's quarantine — verify never
        deletes anything, so a false positive is always recoverable.
        """
        checked = ok = corrupt = quarantined = 0
        for section, path in list(self._entry_files()):
            checked += 1
            key = path.stem
            try:
                text = path.read_text()
            except OSError:
                continue
            if self._decode_entry(text, section, key) is None:
                corrupt += 1
                if repair and self._quarantine(path, section):
                    quarantined += 1
            else:
                ok += 1
        return {
            "checked": checked,
            "ok": ok,
            "corrupt": corrupt,
            "quarantined": quarantined,
        }

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for _, path in list(self._entry_files()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        self.mem.clear()
        return removed

    # -- internals ------------------------------------------------------------

    @staticmethod
    def _decode_entry(text: str, section: str, key: str) -> Optional[Dict[str, Any]]:
        """Parse + integrity-check one entry; ``None`` marks it corrupt/stale."""
        try:
            entry = json.loads(text)
        except ValueError:
            return None
        if not isinstance(entry, dict) or "payload" not in entry:
            return None
        if entry.get("schema") != CACHE_SCHEMA_VERSION:
            return None  # written by an incompatible code version
        if entry.get("section") != section or entry.get("key") != key:
            return None
        return entry


# -- the ambient cache handle -------------------------------------------------

_instances: Dict[Tuple[str, int], ResultCache] = {}


def cache_enabled() -> bool:
    """Whether the persistent cache is on (``REPRO_CACHE``, default on)."""
    raw = os.environ.get(ENV_ENABLE)
    if raw is None:
        return True
    value = raw.strip().lower()
    if value in _TRUTHY:
        return True
    if value in _FALSEY:
        return False
    raise ConfigurationError(
        f"{ENV_ENABLE} must be one of on/off/1/0/true/false/yes/no,"
        f" got {raw!r}"
    )


def cache_root() -> Path:
    """The configured store root (the directory need not exist yet)."""
    configured = os.environ.get(ENV_DIR)
    if configured:
        return Path(configured)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / DEFAULT_SUBDIR


def _mem_mb_from_env() -> int:
    """The hot-tier budget in MiB (``0`` disables the tier)."""
    raw = os.environ.get(ENV_MEM_MB)
    if raw is None or not raw.strip():
        return DEFAULT_MEM_MB
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{ENV_MEM_MB} must be a non-negative integer (MiB), got {raw!r}"
        ) from None
    if value < 0:
        raise ConfigurationError(
            f"{ENV_MEM_MB} must be a non-negative integer (MiB), got {raw!r}"
        )
    return value


#: Raw environment tuple -> resolved ``(root, mem_budget_mb)`` or ``None``
#: (disabled).  The environment is still consulted on every call — only
#: the *parsing* (path resolution, int validation) is memoized, so tests
#: and subprocesses can flip the variables without reimporting.
_resolved_env: Dict[Tuple[Optional[str], ...], Optional[Tuple[str, int]]] = {}


def active_cache() -> Optional[ResultCache]:
    """The process-wide cache handle, or ``None`` when disabled.

    The environment is re-read on every call (cheap), so tests and
    subprocesses can flip ``REPRO_CACHE``/``REPRO_CACHE_DIR`` without
    reimporting; instances are shared per ``(root, mem_budget_mb)`` so
    the memory tier survives across call sites.
    """
    raw = (
        os.environ.get(ENV_ENABLE),
        os.environ.get(ENV_DIR),
        os.environ.get(ENV_MEM_MB),
        os.environ.get("XDG_CACHE_HOME"),
        os.environ.get("HOME"),
    )
    try:
        resolved = _resolved_env[raw]
    except KeyError:
        resolved = (
            None
            if not cache_enabled()
            else (str(cache_root()), _mem_mb_from_env())
        )
        if len(_resolved_env) > 64:
            _resolved_env.clear()
        _resolved_env[raw] = resolved
    if resolved is None:
        return None
    instance = _instances.get(resolved)
    if instance is None:
        instance = ResultCache(Path(resolved[0]), mem_budget_mb=resolved[1])
        _instances[resolved] = instance
    return instance


def reset_cache_handles() -> None:
    """Drop process-wide handles (and their memos); tests use this."""
    _instances.clear()
    _resolved_env.clear()
