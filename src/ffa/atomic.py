"""Atomic artifact writes: readers see the old file or the new one, never a torn one."""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Yield a file open for writing that replaces ``path`` when the block succeeds.

    The data goes to a temporary file in the same directory, is flushed to
    disk, and is then renamed over ``path`` with ``os.replace``.  If the
    block raises, the temporary file is removed and ``path`` keeps its old
    contents.  ``mode`` is ``"w"`` or ``"wb"``.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    # "x" creates the file with the usual umask-derived permissions.
    f = open(tmp, mode.replace("w", "x"))
    try:
        with f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
