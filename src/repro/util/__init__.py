"""Shared helpers: byte-size units, interval sets, metrics, table rendering."""

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
from repro.util.intervals import IntervalSet
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
    "IntervalSet",
    "Counter",
    "MetricsRecorder",
    "render_table",
]
