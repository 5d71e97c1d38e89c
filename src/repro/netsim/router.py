"""The simulated router: forwarding plus ICMP message generation.

Mirrors the course router of §2.1 and the test scenarios of Appendix A:
TTL expiry → time exceeded; no route → destination unreachable; unsupported
type-of-service → parameter problem; full outbound buffer → source quench;
next hop back out the arrival subnet → redirect; echo/timestamp/info requests
addressed to the router → the corresponding replies.  All ICMP construction
is delegated to a pluggable :class:`~repro.netsim.icmp_impl.ICMPImplementation`.
"""

from __future__ import annotations

from ..framework import icmp
from ..framework.ip import PROTO_ICMP, PROTO_UDP, IPv4Header, make_ip_packet
from ..framework.udp import UDPHeader
from .core import Node
from .icmp_impl import ICMPImplementation, ReferenceICMP
from .routing import RoutingTable


class Router(Node):
    """A router with an attached ICMP implementation under test."""

    def __init__(
        self,
        name: str,
        implementation: ICMPImplementation | None = None,
        require_tos_zero: bool = False,
        buffer_capacity: int = 64,
    ) -> None:
        super().__init__(name)
        self.routes = RoutingTable()
        self.implementation = implementation or ReferenceICMP(self.os.clock)
        self.require_tos_zero = require_tos_zero
        self.buffer_capacity = buffer_capacity
        self.udp_listeners: set[int] = set()

    # -- configuration -----------------------------------------------------
    def add_route(self, cidr: str, interface: str, next_hop: str | int = 0) -> None:
        self.routes.add(cidr, interface, next_hop)

    # -- datapath ------------------------------------------------------------
    def receive(self, data: bytes, interface: str) -> None:
        try:
            packet = IPv4Header.unpack(data)
        except ValueError:
            return  # malformed datagram: silently dropped, like a kernel
        if not packet.checksum_ok():
            return  # bad IP checksum: dropped by the "kernel"
        if packet.total_length != len(data):
            return

        if packet.dst in self.os.own_addresses():
            self._deliver_locally(packet, interface)
            return
        self._forward(packet, interface)

    # -- local delivery ------------------------------------------------------
    def _deliver_locally(self, packet: IPv4Header, interface: str) -> None:
        responder = self.interface(interface).address
        if packet.protocol == PROTO_ICMP:
            self._respond_icmp(packet, responder, interface)
        elif packet.protocol == PROTO_UDP:
            self._respond_udp(packet, responder, interface)

    def _respond_icmp(self, packet: IPv4Header, responder: int, interface: str) -> None:
        if len(packet.data) < 1:
            return
        message_type = packet.data[0]
        reply: bytes | None = None
        if message_type == icmp.ECHO:
            reply = self.implementation.echo_reply(packet, responder)
        elif message_type == icmp.TIMESTAMP:
            reply = self.implementation.timestamp_reply(packet, responder)
        elif message_type == icmp.INFO_REQUEST:
            reply = self.implementation.info_reply(packet, responder)
        if reply is not None:
            self.transmit(interface, reply)

    def _respond_udp(self, packet: IPv4Header, responder: int, interface: str) -> None:
        try:
            datagram = UDPHeader.unpack(packet.data)
        except ValueError:
            return
        if datagram.dst_port in self.udp_listeners:
            return  # an application consumed it
        # No listener: port unreachable (this is what terminates traceroute).
        reply = self.implementation.destination_unreachable(
            packet, icmp.PORT_UNREACHABLE, responder
        )
        if reply is not None:
            self.transmit(interface, reply)

    # -- forwarding ------------------------------------------------------------
    def _forward(self, packet: IPv4Header, arrival_interface: str) -> None:
        responder = self.interface(arrival_interface).address

        if self.require_tos_zero and packet.tos != 0:
            # Appendix A parameter-problem scenario: the router only handles
            # type-of-service zero; the pointer indexes the ToS octet (1).
            reply = self.implementation.parameter_problem(packet, 1, responder)
            if reply is not None:
                self.transmit(arrival_interface, reply)
            return

        route = self.routes.lookup(packet.dst)
        if route is None:
            reply = self.implementation.destination_unreachable(
                packet, icmp.NET_UNREACHABLE, responder
            )
            if reply is not None:
                self.transmit(arrival_interface, reply)
            return

        if packet.ttl <= 1:
            reply = self.implementation.time_exceeded(packet, responder)
            if reply is not None:
                self.transmit(arrival_interface, reply)
            return

        arrival_subnet = self.interface(arrival_interface).subnet
        gateway = route.next_hop
        if gateway and arrival_subnet.contains(gateway):
            # Next hop lies on the sender's own subnet: tell it to go direct.
            reply = self.implementation.redirect(packet, gateway, responder)
            if reply is not None:
                self.transmit(arrival_interface, reply)
            return

        buffer_pool = self.os.buffer_for(route.interface, self.buffer_capacity)
        forwarded = self._decrement_ttl(packet)
        if not buffer_pool.enqueue(forwarded):
            # Outbound buffer full: discard and quench the source.
            reply = self.implementation.source_quench(packet, responder)
            if reply is not None:
                self.transmit(arrival_interface, reply)
            return
        for queued in buffer_pool.drain():
            self.transmit(route.interface, queued)

    @staticmethod
    def _decrement_ttl(packet: IPv4Header) -> bytes:
        forwarded = packet.copy()
        forwarded.ttl -= 1
        forwarded.header_checksum = 0
        forwarded.finalize()
        return forwarded.pack()


def fill_buffer(router: Router, interface: str) -> None:
    """Test helper: saturate an outbound buffer to force source quench."""
    pool = router.os.buffer_for(interface, router.buffer_capacity)
    filler = make_ip_packet(src=0x0A000001, dst=0x0A000002, protocol=PROTO_ICMP, data=b"")
    while not pool.full:
        pool.enqueue(filler.pack())
