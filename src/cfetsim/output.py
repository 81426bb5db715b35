"""Atomic report files: write a temp file beside the target, then rename."""

from __future__ import annotations

import os
import tempfile


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def atomic_write(path, text):
    """Replace `path` with `text`, leaving either the old or the new file.

    `text` is a string or an iterable of strings or bytes written in order;
    strings are written as UTF-8. The file gets the mode a plain `open()`
    would give it (0o666 less the umask), not the 0o600 of `mkstemp`.
    """
    folder = os.path.dirname(os.path.abspath(path))
    os.makedirs(folder, exist_ok=True)
    chunks = [text] if isinstance(text, str) else text
    fd, tmp = tempfile.mkstemp(dir=folder)
    try:
        with open(fd, "wb") as f:
            f.writelines(c.encode() if isinstance(c, str) else c for c in chunks)
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
