"""Rule modules; importing this package populates the registry."""

from repro.analysis.rules import (
    api_hygiene,
    atomicity,
    dtype_safety,
    observability,
    registry_sync,
)

__all__ = [
    "api_hygiene",
    "atomicity",
    "dtype_safety",
    "observability",
    "registry_sync",
]
