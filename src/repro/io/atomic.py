"""Atomic artifact writes: temp file in the target directory + ``os.replace``.

Campaign caches, exported results and serialized models must never be
observable in a half-written state: a process killed mid-write would
otherwise leave a truncated ``.npz`` that every later run trips over
(``zipfile.BadZipFile``) instead of regenerating.  The protocol here is
the standard one:

1. write the complete payload to a uniquely named sibling temp file
   (same directory ⇒ same filesystem ⇒ ``os.replace`` is atomic);
2. ``os.replace`` the temp file onto the final path — readers see
   either the old complete file or the new complete file, never a mix;
3. on any error, unlink the temp file so aborted writes leave no debris.

This module is the **only** place allowed to call the raw write
primitives; ``tests/test_source_invariants.py`` enforces that every
other durable write routes through these helpers.
"""

from __future__ import annotations

import json
import os
import tokenize
import uuid
import zipfile
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Union

import numpy as np

__all__ = [
    "atomic_open",
    "atomic_write_text",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_savez",
    "CORRUPT_ARCHIVE_ERRORS",
]

#: What loading a damaged :func:`atomic_savez` archive can raise.  The
#: zip layer raises ``BadZipFile``, ``zlib.error`` (bad deflate stream),
#: ``NotImplementedError`` (a flipped compression method or version)
#: and ``RuntimeError`` (a flipped encryption flag); numpy raises
#: ``tokenize.TokenError`` or ``ValueError`` for a mangled array header
#: and ``EOFError`` for short data; a missing member is a ``KeyError``.
#: Loaders catch exactly these to discard the file instead of failing.
CORRUPT_ARCHIVE_ERRORS = (
    zipfile.BadZipFile, zlib.error, NotImplementedError, RuntimeError,
    tokenize.TokenError, ValueError, EOFError, KeyError, OSError,
)


def _temp_sibling(path: Path) -> Path:
    """A unique temp path next to ``path`` (same filesystem)."""
    return path.parent / f".{path.name}.{uuid.uuid4().hex[:12]}.tmp"


@contextmanager
def atomic_open(
    path: Union[str, Path], mode: str = "w", **kwargs
) -> Iterator[IO]:
    """Open a temp file for writing; publish to ``path`` on clean exit.

    Accepts the text/binary write modes (``w``, ``wb``).  The handle is
    flushed and fsync'd before the rename so the publish is durable,
    not merely ordered.
    """
    if not set(mode) & set("wax"):
        raise ValueError(f"atomic_open is for writing, got mode {mode!r}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = _temp_sibling(path)
    fh = open(tmp, mode, **kwargs)
    try:
        yield fh
        fh.flush()
        os.fsync(fh.fileno())
        fh.close()
        os.replace(tmp, path)
    except BaseException:
        fh.close()
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(
    path: Union[str, Path], text: str, *, encoding: str = "utf-8"
) -> None:
    """Atomically replace ``path`` with ``text``."""
    with atomic_open(path, "w", encoding=encoding) as fh:
        fh.write(text)


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Atomically replace ``path`` with ``data``."""
    with atomic_open(path, "wb") as fh:
        fh.write(data)


def atomic_write_json(path: Union[str, Path], obj: object) -> None:
    """Atomically replace ``path`` with ``obj`` serialized as JSON.

    Sorted keys and a trailing newline keep the output byte-stable, so
    manifests diff cleanly across writes.
    """
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def atomic_savez(path: Union[str, Path], **arrays: "np.ndarray") -> None:
    """Atomically write a compressed ``.npz`` of the given arrays.

    The temp file keeps the ``.npz`` suffix so numpy does not append a
    second one before the rename.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.stem}.{uuid.uuid4().hex[:12]}.tmp.npz"
    try:
        np.savez_compressed(tmp, **arrays)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
