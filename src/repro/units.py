"""Unit conventions used throughout the library.

All simulated time is kept as **integer nanoseconds** so event ordering is
exact and runs are reproducible bit-for-bit.  Data sizes are **bytes** and
link/application rates are **bits per second**.  The helpers below exist so
call sites read like the paper ("64 KB flowcells", "10 Gbps links",
"500 us inactivity timer") instead of raw exponents.
"""

from __future__ import annotations

# --- time ------------------------------------------------------------------

NSEC = 1
USEC = 1_000
MSEC = 1_000_000
SEC = 1_000_000_000


def usec(value: float) -> int:
    """Microseconds -> integer nanoseconds."""
    return int(round(value * USEC))


def msec(value: float) -> int:
    """Milliseconds -> integer nanoseconds."""
    return int(round(value * MSEC))


def seconds(value: float) -> int:
    """Seconds -> integer nanoseconds."""
    return int(round(value * SEC))


# --- sizes -----------------------------------------------------------------

KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024

#: Standard Ethernet MTU payload used by the paper's testbed.
MTU = 1500

#: Bytes of L2-L4 headers we account for on the wire per MTU packet
#: (Ethernet 14 + IP 20 + TCP 20 + preamble/IFG/FCS 24 = 78; we fold the
#: framing overhead into a single constant so goodput/throughput math is
#: explicit at call sites).
HEADER_BYTES = 78

#: Maximum TCP Segmentation Offload segment: the flowcell size (paper S2.1).
MAX_TSO_BYTES = 64 * KB


# --- rates -----------------------------------------------------------------


def mbps(value: float) -> float:
    return value * 1e6


def gbps(value: float) -> float:
    return value * 1e9


def serialization_time_ns(size_bytes: int, rate_bps: float) -> int:
    """Time to clock ``size_bytes`` onto a link running at ``rate_bps``.

    Always at least 1 ns so zero-size control packets still advance time.
    """
    if rate_bps <= 0:
        raise ValueError(f"rate must be positive, got {rate_bps}")
    return max(1, int(round(size_bytes * 8 * SEC / rate_bps)))


def rate_bps(size_bytes: int, duration_ns: int) -> float:
    """Average rate in bit/s for ``size_bytes`` moved in ``duration_ns``."""
    if duration_ns <= 0:
        return 0.0
    return size_bytes * 8 * SEC / duration_ns
