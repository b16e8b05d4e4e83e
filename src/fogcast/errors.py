"""The errors fogcast raises for bad input or a scenario it cannot run.

Each message names the file, line, key or value at fault; ``cli.main``
prints it as one ``fogcast: error:`` line and exits 2. Text inputs (grid
and population files) are read with ``read_text``, so one that is not UTF-8
is such an error too.
"""
from __future__ import annotations

from pathlib import Path

__all__ = ["FogcastError", "read_text"]


class FogcastError(ValueError):
    """Base of every error fogcast raises for bad input or an unrunnable scenario."""


def read_text(path: str | Path) -> str:
    """The text of file ``path`` as UTF-8, whatever the locale; bytes that
    are no UTF-8 raise a ``FogcastError`` naming the path and byte offset."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as error:
        raise FogcastError(f"{path}: not UTF-8 text (byte 0x{data[error.start]:02x} "
                           f"at offset {error.start})") from None
