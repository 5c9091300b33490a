"""Full-duplex links.

A :class:`Link` is the physical cable: a rate, a propagation delay, and
an up/down state shared by both directions.  The per-direction transmit
machinery (queue + serializer) lives in :class:`repro.net.port.Port`;
the link wires the two ports together so a failure takes both
directions down at once, which is how the paper's fast-failover
experiment (Fig 17) perturbs the network.
"""

from __future__ import annotations

from typing import Callable, List

from repro.units import gbps, usec


class Link:
    """Shared state of a full-duplex cable between two nodes."""

    def __init__(
        self,
        name: str,
        rate_bps: float = gbps(10),
        prop_delay_ns: int = usec(1),
    ):
        if rate_bps <= 0:
            raise ValueError(f"link rate must be positive: {rate_bps}")
        if prop_delay_ns < 0:
            raise ValueError(f"propagation delay must be >= 0: {prop_delay_ns}")
        self.name = name
        self.rate_bps = rate_bps
        self.prop_delay_ns = prop_delay_ns
        self._up = True
        self.ports: List = []  # the two directional Ports using this cable
        self.on_state_change: List[Callable[["Link"], None]] = []
        #: wire_size -> serialization ns at the current rate.  Traffic
        #: uses a handful of distinct packet sizes, so ports answer the
        #: per-packet float math with one dict hit; invalidated by
        #: :meth:`set_rate`.
        self._ser_cache: dict = {}

    @property
    def up(self) -> bool:
        return self._up

    def set_down(self) -> None:
        """Fail the link: queued packets on both directions are dropped and
        state-change observers (e.g. failover groups) are notified."""
        if not self._up:
            return
        self._up = False
        for port in self.ports:
            port.on_link_down()
        for callback in list(self.on_state_change):
            callback(self)

    def set_up(self) -> None:
        """Restore the link: ports resume transmitting and observers
        (failover groups, the control plane) are notified, symmetric to
        :meth:`set_down`."""
        if self._up:
            return
        self._up = True
        for port in self.ports:
            port.on_link_up()
        for callback in list(self.on_state_change):
            callback(self)

    def set_rate(self, rate_bps: float) -> None:
        """Change the link rate in place (degraded optics / FEC fallback).

        Packets already serializing finish at the old rate; observers are
        notified so the control plane can reweight schedules.  This is
        the only supported way to change a rate: the serialization
        cache, the controller's schedule plans and the fluid engine's
        capacities and kept paths all follow ``on_state_change``, which
        assigning ``rate_bps`` directly bypasses.
        """
        if rate_bps <= 0:
            raise ValueError(f"link rate must be positive: {rate_bps}")
        if rate_bps == self.rate_bps:
            return
        self.rate_bps = rate_bps
        self._ser_cache.clear()
        for callback in list(self.on_state_change):
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Link {self.name} {self.rate_bps / 1e9:.1f}Gbps {'up' if self._up else 'DOWN'}>"
