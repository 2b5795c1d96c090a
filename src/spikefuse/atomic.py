"""Whole-file writes.

A file is written under a temporary name beside its target and renamed over
the target only once it is complete, so a process killed mid-write never
leaves a partial file under the target's name. (The rename survives a
killed process; surviving power loss would also need an fsync.)
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temporary file beside ``path``. If the block completes, rename
    it over ``path``; if it raises, delete it and leave ``path`` as it was."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
