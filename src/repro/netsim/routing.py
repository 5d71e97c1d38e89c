"""Longest-prefix-match routing table for the simulator."""

from __future__ import annotations

from dataclasses import dataclass

from ..framework.addressing import Subnet, ip_to_int


@dataclass(frozen=True)
class Route:
    """One route: destination subnet, next hop (0 = directly connected),
    and the interface name to send out of."""

    subnet: Subnet
    next_hop: int
    interface: str

    @property
    def directly_connected(self) -> bool:
        return self.next_hop == 0


class RoutingTable:
    """A list of routes searched by longest prefix match."""

    def __init__(self) -> None:
        self._routes: list[Route] = []

    def add(self, cidr: str, interface: str, next_hop: str | int = 0) -> None:
        if isinstance(next_hop, str):
            next_hop = ip_to_int(next_hop) if next_hop else 0
        self._routes.append(
            Route(subnet=Subnet.parse(cidr), next_hop=next_hop, interface=interface)
        )

    def lookup(self, destination: int) -> Route | None:
        """Return the most specific matching route, or None."""
        best: Route | None = None
        for route in self._routes:
            if not route.subnet.contains(destination):
                continue
            if best is None or route.subnet.prefix_len > best.subnet.prefix_len:
                best = route
        return best
