"""Shared exception types and size guards.

Argument errors raise plain ValueError everywhere in the package; the
classes here cover the two other failure modes: refusing work that would
blow past a size guard, and detecting that an internal cross-check failed
(which always indicates a bug, never bad user input).
"""

from __future__ import annotations

import os

DEFAULT_MAX_DIM = 1_000_000

_ENV_MAX_DIM = "WEYLWORKS_MAX_DIM"


class WeylworksError(Exception):
    """Base class for non-ValueError failures raised by this package."""


class ResourceLimitError(WeylworksError):
    """A computation was refused because it exceeds a size guard."""


class InvariantViolation(WeylworksError):
    """An internal consistency cross-check failed; this is a bug."""


def max_dimension() -> int:
    """Current dimension guard, honoring the WEYLWORKS_MAX_DIM override."""
    raw = os.environ.get(_ENV_MAX_DIM)
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_ENV_MAX_DIM} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{_ENV_MAX_DIM} must be positive, got {value}")
    return value


def check_dimension(dim: int) -> None:
    """Raise ResourceLimitError if dim exceeds the WEYLWORKS_MAX_DIM guard."""
    cap = max_dimension()
    if dim > cap:
        raise ResourceLimitError(
            f"requested object has dimension {dim}, above the guard {cap}; "
            f"raise it via the {_ENV_MAX_DIM} environment variable if intended"
        )
