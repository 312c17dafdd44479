"""Whole-file writes: a file is replaced only once its new content is complete."""

from __future__ import annotations

import os
from pathlib import Path
from typing import BinaryIO, Callable


def replace_file(path: Path | str, write: Callable[[BinaryIO], object]) -> None:
    """Replace ``path`` with what ``write`` writes to ``<name>.tmp``, made in any missing parent.

    No ``*.json`` or ``*.npz`` glob sees the temporary file, and a write that
    fails part-way keeps the previous file whole and leaves no ``.tmp`` file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
