"""Tests for repro.util.units."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.units import (
    GB,
    GiB,
    KB,
    KiB,
    MB,
    MiB,
    TB,
    TiB,
    format_rate,
    format_size,
    format_time,
    parse_size,
)
from tests.conftest import fuzz_settings


class TestConstants:
    def test_binary_units_are_powers_of_1024(self):
        assert KiB == 1024
        assert MiB == 1024**2
        assert GiB == 1024**3
        assert TiB == 1024**4

    def test_decimal_units_are_powers_of_1000(self):
        assert KB == 1000
        assert MB == 1000**2
        assert GB == 1000**3
        assert TB == 1000**4


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0", 0),
            ("123", 123),
            ("1KB", 1000),
            ("1KiB", 1024),
            ("256KiB", 256 * 1024),
            ("1.5GB", 1_500_000_000),
            ("2MiB", 2 * 1024 * 1024),
            ("1tb", TB),
            (" 64 MiB ", 64 * MiB),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_size(text) == expected

    def test_integer_passthrough(self):
        assert parse_size(4096) == 4096

    def test_negative_integer_rejected(self):
        with pytest.raises(ValueError):
            parse_size(-1)

    @pytest.mark.parametrize("text", ["", "abc", "12XB", "--3MB", "1.2.3KB"])
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            parse_size(text)

    def test_fractional_bytes_rejected(self):
        with pytest.raises(ValueError):
            parse_size("1.5B")

    @fuzz_settings(max_examples=100)  # hypothesis's default
    @given(st.integers(min_value=0, max_value=10**15))
    def test_roundtrip_plain_integers(self, n):
        assert parse_size(str(n)) == n


class TestFormatSize:
    def test_bytes(self):
        assert format_size(0) == "0B"
        assert format_size(512) == "512B"

    def test_binary_scaling(self):
        assert format_size(1024) == "1.00KiB"
        assert format_size(3 * MiB) == "3.00MiB"
        assert format_size(5 * GiB) == "5.00GiB"

    def test_decimal_scaling(self):
        assert format_size(250 * MB, binary=False) == "250.00MB"

    def test_negative(self):
        assert format_size(-1024) == "-1.00KiB"

    @fuzz_settings(max_examples=100)  # hypothesis's default
    @given(st.integers(min_value=0, max_value=2**60))
    def test_never_raises(self, n):
        assert isinstance(format_size(n), str)


class TestFormatRate:
    def test_uses_decimal_units(self):
        assert format_rate(250 * MB) == "250.00MB/s"


class TestFormatTime:
    @pytest.mark.parametrize(
        "seconds,expected",
        [
            (0, "0s"),
            (5e-9, "5.0ns"),
            (75e-6, "75.0us"),
            (1.5e-3, "1.50ms"),
            (2.5, "2.500s"),
        ],
    )
    def test_scales(self, seconds, expected):
        assert format_time(seconds) == expected

    def test_negative(self):
        assert format_time(-1e-3).startswith("-")
