"""Unit tests for unit conversions."""

import pytest

from repro import units


def test_time_helpers():
    assert units.usec(1) == 1_000
    assert units.msec(1) == 1_000_000
    assert units.seconds(1) == 1_000_000_000
    assert units.usec(1.5) == 1_500


def test_rate_helpers():
    assert units.gbps(10) == 10e9
    assert units.mbps(100) == 100e6


def test_serialization_time():
    # 1500 bytes at 1 Gbps = 12 us
    assert units.serialization_time_ns(1500, units.gbps(1)) == 12_000
    # 1 byte at 10 Gbps rounds to 1 ns minimum granularity
    assert units.serialization_time_ns(0, units.gbps(10)) == 1


def test_serialization_time_rejects_bad_rate():
    with pytest.raises(ValueError):
        units.serialization_time_ns(1500, 0)


def test_rate_bps_round_trip():
    dur = units.serialization_time_ns(125_000, units.gbps(1))
    assert units.rate_bps(125_000, dur) == pytest.approx(1e9, rel=1e-6)


def test_rate_bps_zero_duration():
    assert units.rate_bps(100, 0) == 0.0


def test_constants():
    assert units.MTU == 1500
    assert units.MAX_TSO_BYTES == 64 * 1024
