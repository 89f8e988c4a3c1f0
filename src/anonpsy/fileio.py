"""Atomic file replacement for files that other readers or writers share."""

from __future__ import annotations

import os
import uuid
from pathlib import Path


def write_atomic(path: Path, text: str) -> None:
    """Write text to path through a temporary file of this writer's own, then rename.

    Readers see the old file or the new one, never a partial write, and two
    writers of the same path, in one process or several, never share a
    temporary file.
    """
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as out:
            out.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
