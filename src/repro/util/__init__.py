"""Shared helpers: byte-size units, metrics, table rendering."""

from repro.util.units import (
    KiB,
    MiB,
    GiB,
    TiB,
    KB,
    MB,
    GB,
    TB,
    format_size,
    format_rate,
    format_time,
    parse_size,
)
from repro.util.recorder import Counter, MetricsRecorder
from repro.util.tables import render_table

__all__ = [
    "KiB",
    "MiB",
    "GiB",
    "TiB",
    "KB",
    "MB",
    "GB",
    "TB",
    "format_size",
    "format_rate",
    "format_time",
    "parse_size",
    "Counter",
    "MetricsRecorder",
    "render_table",
]
