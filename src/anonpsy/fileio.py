"""Atomic file replacement for files that other readers or writers share.

A file that already holds the exact bytes is left as it is: a rerun that
produces the same artifact costs a read, not a write and a rename.
"""

from __future__ import annotations

import os


def write_atomic(path: str | os.PathLike, text: str) -> bool:
    """Write text to path through a temporary file of this writer's own, then rename.

    Readers see the old file or the new one, never a partial write, and two
    writers of the same path, in one process or several, never share a
    temporary file. When path already holds text's UTF-8 bytes, nothing is
    written. Returns whether the file was written.
    """
    data = text.encode("utf-8")
    try:
        with open(path, "rb") as current:
            if current.read(len(data) + 1) == data:
                return False
    except OSError:
        pass  # missing or unreadable: write it as below
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.urandom(16).hex()}.tmp")
    try:
        with open(tmp, "xb") as out:
            out.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
    return True
