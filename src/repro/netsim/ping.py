"""A Linux-faithful `ping` for the simulator.

The student study (§2.1) hinges on ping's *strictness*: Linux ping only
counts a reply when the ICMP checksum verifies (the kernel already dropped
bad IP checksums), the identifier matches the sender's, the sequence matches
an outstanding probe, and the payload bytes come back intact and whole.
Each check failing maps onto one of the Table 2 error classes, which is what
lets the fault injector reproduce the study.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..framework import icmp
from ..framework.ip import PROTO_ICMP, IPv4Header, make_ip_packet
from .host import Host

# Linux ping's default payload: 56 bytes; we use the classic pattern of
# incrementing bytes after an 8-byte (zeroed here) timestamp slot.
DEFAULT_PAYLOAD_LEN = 56


def default_payload(length: int = DEFAULT_PAYLOAD_LEN) -> bytes:
    return bytes(i & 0xFF for i in range(length))


@dataclass
class PingReply:
    """One accepted echo reply."""

    sequence: int
    source: int
    length: int


@dataclass
class PingError:
    """An ICMP error (e.g. destination unreachable) observed for a probe."""

    icmp_type: int
    icmp_code: int
    source: int


@dataclass
class PingResult:
    """Aggregate outcome of a ping run, plus every rejection reason."""

    transmitted: int = 0
    received: int = 0
    replies: list[PingReply] = field(default_factory=list)
    errors: list[PingError] = field(default_factory=list)
    rejections: list[str] = field(default_factory=list)

    @property
    def success(self) -> bool:
        return self.transmitted > 0 and self.received == self.transmitted


class Ping:
    """Sends echo requests from ``host`` and strictly validates replies."""

    def __init__(self, host: Host, identifier: int = 0x4242,
                 payload_len: int = DEFAULT_PAYLOAD_LEN, ttl: int = 64) -> None:
        self.host = host
        self.identifier = identifier
        self.payload_len = payload_len
        self.ttl = ttl
        self.result = PingResult()
        self._outstanding: dict[int, bytes] = {}
        host.add_listener(self._on_packet)

    # -- sending ------------------------------------------------------------
    def send_probe(self, destination: int, sequence: int, tos: int = 0) -> None:
        payload = default_payload(self.payload_len)
        echo = icmp.make_echo(self.identifier, sequence, payload)
        packet = make_ip_packet(
            src=self.host.os.interfaces[0].address,
            dst=destination,
            protocol=PROTO_ICMP,
            data=echo.pack(),
            ttl=self.ttl,
            tos=tos,
        )
        self._outstanding[sequence] = payload
        self.result.transmitted += 1
        self.host.send(packet)

    def run(self, destination: int, count: int = 1, tos: int = 0) -> PingResult:
        """Send ``count`` probes and drive the network to quiescence."""
        for sequence in range(1, count + 1):
            self.send_probe(destination, sequence, tos=tos)
            assert self.host.network is not None
            self.host.network.run()
        return self.result

    # -- receiving ------------------------------------------------------------
    def _on_packet(self, packet: IPv4Header, _interface: str) -> None:
        if packet.protocol != PROTO_ICMP:
            return
        try:
            message = icmp.ICMPHeader.unpack(packet.data)
        except ValueError:
            self.result.rejections.append("truncated ICMP message")
            return
        if message.type == icmp.ECHO_REPLY:
            self._on_echo_reply(packet, message)
        elif message.type in (
            icmp.DEST_UNREACHABLE,
            icmp.TIME_EXCEEDED,
            icmp.SOURCE_QUENCH,
            icmp.PARAMETER_PROBLEM,
            icmp.REDIRECT,
        ):
            self.result.errors.append(
                PingError(icmp_type=message.type, icmp_code=message.code, source=packet.src)
            )

    def _on_echo_reply(self, packet: IPv4Header, message: icmp.ICMPHeader) -> None:
        if not message.checksum_ok():
            self.result.rejections.append("bad ICMP checksum")
            return
        if message.identifier != self.identifier:
            self.result.rejections.append(
                f"identifier mismatch (got {message.identifier}, want {self.identifier})"
            )
            return
        expected = self._outstanding.pop(message.sequence, None)
        if expected is None:
            self.result.rejections.append(f"unexpected sequence {message.sequence}")
            return
        if len(message.payload) != len(expected):
            self.result.rejections.append(
                f"payload length {len(message.payload)} != sent {len(expected)}"
            )
            return
        if message.payload != expected:
            self.result.rejections.append("payload corrupted in reply")
            return
        self.result.received += 1
        self.result.replies.append(
            PingReply(sequence=message.sequence, source=packet.src, length=len(packet.data))
        )


def ping(host: Host, destination: int, count: int = 1, **kwargs) -> PingResult:
    """Convenience wrapper: ``ping(host, dst)`` like the shell command."""
    return Ping(host, **kwargs).run(destination, count=count)
