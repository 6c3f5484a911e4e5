"""Shared utilities: seeding, logging, and formatting."""

from repro.utils.seeding import SeedSequenceFactory, derive_rng
from repro.utils.format import human_bytes, format_table
from repro.utils.logging import get_logger

__all__ = [
    "SeedSequenceFactory",
    "derive_rng",
    "human_bytes",
    "format_table",
    "get_logger",
]
