"""The errors fogcast raises for bad input or a scenario it cannot run.

Each message names the file, line, key or value at fault; ``cli.main``
prints it as one ``fogcast: error:`` line and exits 2.
"""
from __future__ import annotations

__all__ = ["FogcastError", "NoSubscriberError"]


class FogcastError(ValueError):
    """Base of every error fogcast raises for bad input or an unrunnable scenario."""


class NoSubscriberError(FogcastError, LookupError):
    """A request found no service point to serve it."""
