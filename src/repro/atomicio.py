"""Atomic, durable file writes for every on-disk artifact.

Traces, table and drift files and benchmark results all leave the
process through this module: content is written to a sibling temp
file, flushed and ``fsync``\\ ed, then renamed over the target with
``os.replace`` (atomic on POSIX within one filesystem), and the parent
directory is fsynced best-effort so the rename itself is durable.  A
crash at any instant therefore leaves either the complete old artifact
or the complete new one — never a torn file.

The torn-write windows are declared as chaos kill sites
(``artifact.tmp_written`` between the temp write and the rename,
``artifact.replaced`` just after), so ``tests/test_chaos_kill.py`` can
prove the either-old-or-new property under real ``SIGKILL``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Union

from .chaos.sites import kill_point

__all__ = ["atomic_write_json", "atomic_write_text", "fsync_dir"]

#: Suffix of the sibling temp file.  Fixed (not randomized) so a
#: crash's residue is identifiable and simply overwritten by the next
#: successful write of the same artifact.
_TMP_SUFFIX = ".tmp"


def fsync_dir(path: Union[str, Path]) -> None:
    """Best-effort fsync of a directory (durability of renames in it)."""
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir-fsync
        pass
    finally:
        os.close(fd)


def atomic_write_text(
    path: Union[str, Path],
    text: str,
    encoding: str = "utf-8",
) -> Path:
    """Atomically and durably replace ``path`` with ``text``; returns
    the path."""
    target = Path(path)
    tmp = target.with_name(target.name + _TMP_SUFFIX)
    with open(tmp, "w", encoding=encoding) as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    kill_point("artifact.tmp_written")
    os.replace(tmp, target)
    fsync_dir(target.parent)
    kill_point("artifact.replaced")
    return target


def atomic_write_json(
    path: Union[str, Path],
    payload: Any,
    **dumps_kwargs: Any,
) -> Path:
    """Atomically replace ``path`` with ``payload`` serialized as JSON."""
    dumps_kwargs.setdefault("sort_keys", True)
    return atomic_write_text(path, json.dumps(payload, **dumps_kwargs) + "\n")
