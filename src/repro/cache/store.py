"""Persistent, content-addressed result store shared across processes.

Entries live under ``<root>/<section>/<key[:2]>/<key>.json`` where the key
is a SHA-256 over the full request (:mod:`repro.cache.keys`).  The store
is safe for concurrent writers — ``--jobs N`` experiment workers share
one directory — because every write lands in a unique temp file and is
published with ``os.replace`` (atomic on POSIX), and eviction serializes
on an advisory ``fcntl`` lock where the platform provides one.  A corrupt
or truncated entry is never fatal: the hot read path *self-heals* — the
bad entry is quarantined (moved under ``<root>/.quarantine`` for post
mortems), counted, and reported as a miss so the caller recomputes and
republishes.  ``repro cache verify`` reports corruption; ``--repair``
sends bad entries through the same quarantine path.

Configuration is environment-driven so it crosses the ``spawn`` boundary
to worker processes:

* ``REPRO_CACHE`` — ``off``/``0``/``false``/``no`` disables the store
  entirely (default: on).
* ``REPRO_CACHE_DIR`` — store root (default:
  ``$XDG_CACHE_HOME/repro-flexflow`` or ``~/.cache/repro-flexflow``).
* ``REPRO_CACHE_MAX_ENTRIES`` — optional positive bound; writes beyond it
  evict oldest-mtime entries first.
* ``REPRO_CACHE_MEM_MB`` — byte budget (MiB) for the in-memory hot tier
  holding decoded entries in front of the disk store (default
  :data:`repro.cache.memtier.DEFAULT_MEM_MB`; ``0`` disables the tier
  so every hit pays the disk read).

Hit/miss/corrupt/evict counts flow into the :mod:`repro.obs` metrics
registry (``cache.lookups{section,outcome}``, ``cache.writes{section}``,
``cache.evictions``) so ``repro profile`` and the benchmark harness can
report cache effectiveness.
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import threading
from collections import OrderedDict, deque
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.cache.keys import CACHE_SCHEMA_VERSION
from repro.cache.memtier import DEFAULT_MEM_MB, MemoryTier
from repro.chaos import chaos_point, chaos_sleep
from repro.errors import ConfigurationError
from repro.fsutil import atomic_write_text
from repro.obs.metrics import REGISTRY

try:  # pragma: no cover - platform-dependent import
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

#: Default store location, under the user cache directory.
DEFAULT_SUBDIR = "repro-flexflow"

#: Environment variables (read on every :func:`active_cache` call so
#: tests and subprocesses can reconfigure without reimporting).
ENV_ENABLE = "REPRO_CACHE"
ENV_DIR = "REPRO_CACHE_DIR"
ENV_MAX_ENTRIES = "REPRO_CACHE_MAX_ENTRIES"
ENV_MEM_MB = "REPRO_CACHE_MEM_MB"

#: Corrupt entries are moved (never deleted) into this dot-directory,
#: which every store walk skips; operators can inspect or purge it.
QUARANTINE_DIR = ".quarantine"

_FALSEY = {"0", "off", "false", "no"}
_TRUTHY = {"1", "on", "true", "yes", ""}

#: Uniquifier for batched-flush temp names (same role as the one in
#: :mod:`repro.fsutil`, local so the flush loop stays self-contained).
_FLUSH_SEQUENCE = itertools.count()

#: A deferral buffer: ``(section, key)`` -> ``(payload, encoded entry)``.
_Buffer = "OrderedDict[Tuple[str, str], Tuple[Any, str]]"


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

    def __init__(
        self,
        root: Path,
        *,
        max_entries: Optional[int] = None,
        mem_budget_mb: Optional[int] = None,
    ):
        if max_entries is not None and max_entries <= 0:
            raise ConfigurationError(
                f"cache max_entries must be positive, got {max_entries}"
            )
        self.root = Path(root)
        self._root_str = str(self.root)
        self.max_entries = max_entries
        if mem_budget_mb is None:
            mem_budget_mb = _mem_mb_from_env()
        self.mem = MemoryTier(mem_budget_mb * 1024 * 1024)
        # Active deferral buffer (see :meth:`deferred`); ``None`` means
        # puts publish eagerly.  The depth counter makes nesting safe.
        self._deferred: "Optional[_Buffer]" = None
        self._deferred_depth = 0
        # Write-behind state: batched flushes run on one lazy daemon
        # thread so sweep wall-time excludes publish IO; :meth:`drain`
        # (and an atexit hook) give synchronization points.
        self._flush_lock = threading.Lock()
        self._flush_cond = threading.Condition(self._flush_lock)
        self._flush_backlog: "deque[_Buffer]" = deque()
        self._flush_jobs = 0
        self._flush_thread_running = False
        self._atexit_registered = False

    # -- paths ----------------------------------------------------------------

    def _entry_path(self, section: str, key: str) -> Path:
        return Path(self._entry_path_str(section, key))

    def _entry_path_str(self, section: str, key: str) -> str:
        # The hot read/flush paths build plain strings: ``Path`` algebra
        # is measurable overhead at hundreds of lookups per sweep.
        return os.path.join(self._root_str, section, key[:2], f"{key}.json")

    def _entry_files(self):
        if not self.root.is_dir():
            return
        for section_dir in sorted(self.root.iterdir()):
            if not section_dir.is_dir() or section_dir.name.startswith("."):
                continue  # skip quarantine and other dot-state
            yield from sorted(section_dir.glob("*/*.json"))

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
        if hit:
            REGISTRY.counter("cache.lookups", section=section, outcome="hit").inc()
            REGISTRY.counter("cache.memo_hits", section=section).inc()
            return payload
        if self._deferred is not None:
            # A put buffered in this very block must stay visible to its
            # own process even when the memory tier is disabled.
            buffered = self._deferred.get((section, key))
            if buffered is not None:
                REGISTRY.counter(
                    "cache.lookups", section=section, outcome="hit"
                ).inc()
                REGISTRY.counter("cache.memo_hits", section=section).inc()
                return buffered[0]
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

        The entry is encoded here, once, for either path; a non-JSON
        payload is dropped (a slower, uncached run, never a crash).
        Inside a :meth:`deferred` block the entry lands in the in-process
        memo immediately (same-process readers see it) but the disk write
        is buffered until the block exits.
        """
        text = _encode_entry(section, key, payload)
        if text is None:
            return
        if self._deferred is not None:
            self._deferred[(section, key)] = (payload, text)
            self.mem.put(section, key, payload, text)
            return
        self._write_entry(section, key, payload, text)
        if self.max_entries is not None:
            self._evict_to_limit()

    def _write_entry(
        self, section: str, key: str, payload: Any, text: str
    ) -> None:
        """One atomic on-disk publish (no eviction — callers own that)."""
        chaos_sleep("slow_io")
        path = self._entry_path(section, key)
        try:
            atomic_write_text(path, text)
        except OSError:
            # A full/read-only disk degrades to a slower (uncached) run,
            # never a crash.
            return
        if chaos_point("cache_corrupt"):
            # Truncate the just-published entry mid-document: the shape a
            # torn write or disk fault leaves behind for readers to heal.
            try:
                with open(path, "r+") as handle:
                    handle.truncate(max(1, path.stat().st_size // 2))
            except OSError:
                pass
        REGISTRY.counter("cache.writes", section=section).inc()
        self.mem.put(section, key, payload, text)

    @contextmanager
    def deferred(self):
        """Batch puts: buffer inside the block, publish behind the block.

        A batch of experiments pays one write-behind flush pass (and one
        eviction scan) instead of per-entry publish IO on its own wall
        clock, and a served response publishes off the event loop.
        Duplicate puts of one key collapse to the last payload.  Nesting
        is safe — only the outermost block hands its buffer to the flush
        thread.  The memo is updated at ``put`` time, so same-process
        readers never notice the delay; other processes see the entries
        once the background flush lands — call :meth:`drain` first where
        cross-process visibility is required (e.g. shard publication, or
        tests asserting on-disk state).  An atexit hook drains
        outstanding flushes so short-lived CLI and experiment worker
        processes still publish everything they computed.
        """
        self._deferred_depth += 1
        if self._deferred_depth == 1:
            self._deferred = OrderedDict()
        try:
            yield self
        finally:
            self._deferred_depth -= 1
            if self._deferred_depth == 0:
                buffered, self._deferred = self._deferred, None
                if buffered:
                    self._enqueue_flush(buffered)
                    REGISTRY.counter("cache.deferred_flushes").inc()

    def _enqueue_flush(self, buffered: "_Buffer") -> None:
        with self._flush_lock:
            self._flush_backlog.append(buffered)
            self._flush_jobs += 1
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

    def _flush_worker(self) -> None:
        """Drain the backlog, then exit (a new thread starts on demand)."""
        while True:
            with self._flush_lock:
                if not self._flush_backlog:
                    self._flush_thread_running = False
                    return
                buffered = self._flush_backlog.popleft()
            try:
                self._flush_entries(buffered)
                if self.max_entries is not None:
                    self._evict_to_limit()
            except Exception:  # never kill the thread: cache IO is best-effort
                pass
            finally:
                with self._flush_lock:
                    self._flush_jobs -= 1
                    if self._flush_jobs == 0:
                        self._flush_cond.notify_all()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every queued write-behind flush has landed on disk.

        Returns ``False`` on timeout.  Call before handing the store root
        to another process (shard publication) or before asserting
        on-disk state in tests.
        """
        with self._flush_lock:
            return self._flush_cond.wait_for(
                lambda: self._flush_jobs == 0, timeout
            )

    def _drain_at_exit(self) -> None:
        # Bounded: losing late cache entries only costs a recompute next
        # run, and a wedged disk must not hang interpreter shutdown.
        self.drain(timeout=10.0)

    def _flush_entries(self, buffered: "_Buffer") -> None:
        """Publish a buffered batch with one lean pass of os-level IO.

        Each entry is still a private temp file renamed into place
        (readers never see a torn write), but directory creation is
        deduplicated across the batch, paths are plain strings, and the
        write counters are bumped once per section instead of per entry.
        An entry that fails to land is dropped from the memory tier too,
        the rule :meth:`_quarantine` follows: the tier must never serve
        an entry the disk does not hold.
        """
        made_dirs = set()
        pid = os.getpid()
        writes: Dict[str, int] = {}
        for (section, key), (_, text) in buffered.items():
            chaos_sleep("slow_io")
            directory = os.path.join(self._root_str, section, key[:2])
            if directory not in made_dirs:
                try:
                    os.makedirs(directory, exist_ok=True)
                except OSError:
                    self.mem.invalidate(section, key)
                    continue
                made_dirs.add(directory)
            final = os.path.join(directory, f"{key}.json")
            tmp = os.path.join(
                directory, f".{key}.{pid}.{next(_FLUSH_SEQUENCE)}.tmp"
            )
            try:
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
                try:
                    os.write(fd, text.encode("utf-8"))
                finally:
                    os.close(fd)
                os.replace(tmp, final)
            except OSError:
                self.mem.invalidate(section, key)
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                continue
            if chaos_point("cache_corrupt"):
                try:
                    with open(final, "r+") as handle:
                        handle.truncate(
                            max(1, os.path.getsize(final) // 2)
                        )
                except OSError:
                    pass
            writes[section] = writes.get(section, 0) + 1
        for section, count in writes.items():
            REGISTRY.counter("cache.writes", section=section).inc(count)

    # -- maintenance ----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Entry and byte counts per section for ``repro cache stats``."""
        sections: Dict[str, Dict[str, int]] = {}
        total_entries = 0
        total_bytes = 0
        for path in self._entry_files():
            section = path.parent.parent.name
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
            "max_entries": self.max_entries,
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
        for path in list(self._entry_files()):
            checked += 1
            section = path.parent.parent.name
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
        for path in list(self._entry_files()):
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

    def _evict_to_limit(self) -> None:
        """Drop oldest-mtime entries until the store fits ``max_entries``."""
        lock_path = self.root / ".lock"
        lock_file = None
        try:
            if fcntl is not None:
                lock_file = open(lock_path, "w")
                fcntl.flock(lock_file, fcntl.LOCK_EX)
            entries = []
            for path in self._entry_files():
                try:
                    entries.append((path.stat().st_mtime, path))
                except OSError:
                    continue
            excess = len(entries) - self.max_entries
            if excess <= 0:
                return
            entries.sort(key=lambda item: item[0])
            for _, path in entries[:excess]:
                try:
                    path.unlink()
                    REGISTRY.counter("cache.evictions").inc()
                except OSError:
                    pass
        except OSError:
            pass
        finally:
            if lock_file is not None:
                try:
                    fcntl.flock(lock_file, fcntl.LOCK_UN)
                except OSError:
                    pass
                lock_file.close()


# -- the ambient cache handle -------------------------------------------------

_instances: Dict[Tuple[str, Optional[int], int], ResultCache] = {}


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


def _max_entries_from_env() -> Optional[int]:
    raw = os.environ.get(ENV_MAX_ENTRIES)
    if raw is None or not raw.strip():
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{ENV_MAX_ENTRIES} must be a positive integer, got {raw!r}"
        ) from None
    if value <= 0:
        raise ConfigurationError(
            f"{ENV_MAX_ENTRIES} must be a positive integer, got {raw!r}"
        )
    return value


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


#: Raw environment tuple -> resolved ``(root, max_entries)`` or ``None``
#: (disabled).  The environment is still consulted on every call — only
#: the *parsing* (path resolution, int validation) is memoized, so tests
#: and subprocesses can flip the variables without reimporting.
_resolved_env: Dict[
    Tuple[Optional[str], ...], Optional[Tuple[str, Optional[int], int]]
] = {}


def active_cache() -> Optional[ResultCache]:
    """The process-wide cache handle, or ``None`` when disabled.

    The environment is re-read on every call (cheap), so tests and
    subprocesses can flip ``REPRO_CACHE``/``REPRO_CACHE_DIR`` without
    reimporting; instances are shared per ``(root, max_entries)`` so the
    in-process memo survives across call sites.
    """
    raw = (
        os.environ.get(ENV_ENABLE),
        os.environ.get(ENV_DIR),
        os.environ.get(ENV_MAX_ENTRIES),
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
            else (
                str(cache_root()),
                _max_entries_from_env(),
                _mem_mb_from_env(),
            )
        )
        if len(_resolved_env) > 64:
            _resolved_env.clear()
        _resolved_env[raw] = resolved
    if resolved is None:
        return None
    instance = _instances.get(resolved)
    if instance is None:
        instance = ResultCache(
            Path(resolved[0]),
            max_entries=resolved[1],
            mem_budget_mb=resolved[2],
        )
        _instances[resolved] = instance
    return instance


def reset_cache_handles() -> None:
    """Drop process-wide handles (and their memos); tests use this."""
    _instances.clear()
    _resolved_env.clear()


@contextmanager
def deferred_cache_publishes():
    """:meth:`ResultCache.deferred` on the active cache; no-op when off.

    An in-process experiment batch wraps itself in this so a cold run
    publishes its entries in one batched flush instead of per-entry.
    """
    cache = active_cache()
    if cache is None:
        yield None
        return
    with cache.deferred():
        yield cache
