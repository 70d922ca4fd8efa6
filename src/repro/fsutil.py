"""The atomic file publish behind the persistent result store.

:func:`atomic_write_text` is the one way this codebase publishes a file:
write to a uniquely named sibling temp file, then ``os.replace`` onto the
destination (atomic on POSIX).  Readers therefore observe either the old
content or the new content, never a partial write — the property every
reader of the store (a report, a served request, a supervised batch
resuming) relies on.  The temp name embeds the pid *and* a process-wide
counter so two threads of one process publishing the same destination
never race on one temp file.

On any failure (serialization upstream, a full disk, ``os.replace`` into
a vanished directory) the temp file is unlinked before the exception
propagates, so an interrupted write never litters ``*.tmp`` files next
to the store.
"""

from __future__ import annotations

import itertools
import os
from typing import Union

#: Process-wide uniquifier: two threads writing the same destination get
#: distinct temp files even though they share a pid.
_SEQUENCE = itertools.count()

_TMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL


def atomic_write_text(path: Union[str, "os.PathLike[str]"], text: str) -> None:
    """Atomically publish ``text`` (UTF-8) at ``path`` (parents created).

    Either the write completes and ``path`` holds exactly ``text``, or it
    fails, the temp file is removed, and the original ``path`` (if any)
    is untouched.  Raises ``OSError`` on filesystem failure.  The result
    store publishes every entry here, so the writer makes plain ``os``
    calls and creates the directory only when the temp file cannot be
    opened without it.
    """
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.{next(_SEQUENCE)}.tmp")
    try:
        fd = os.open(tmp, _TMP_FLAGS, 0o666)
    except FileNotFoundError:
        os.makedirs(directory, exist_ok=True)
        fd = os.open(tmp, _TMP_FLAGS, 0o666)
    try:
        try:
            data = text.encode("utf-8")
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
