"""OS-facing services of the static framework.

The paper (§5.1): "standards descriptions do not explicitly specify what
abstract functionality they require of the underlying operating system
(e.g., the ability to read interface addresses)."  Generated code gets those
abilities through this module: interface/address enumeration, a monotonic
clock, buffer pools (for the source-quench scenario), and timestamping in
ICMP's milliseconds-since-midnight-UT format.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .addressing import Subnet, int_to_ip, ip_to_int

MS_PER_DAY = 24 * 60 * 60 * 1000


@dataclass
class Interface:
    """One network interface: a name, an address, and its subnet."""

    name: str
    address: int
    subnet: Subnet

    @classmethod
    def from_cidr(cls, name: str, cidr: str) -> "Interface":
        address, _, prefix = cidr.partition("/")
        return cls(name=name, address=ip_to_int(address),
                   subnet=Subnet.parse(cidr))

    def __str__(self) -> str:
        return f"{self.name}: {int_to_ip(self.address)}/{self.subnet.prefix_len}"


class Clock:
    """A deterministic simulated clock (milliseconds since midnight UT).

    ICMP timestamp messages want "the time in milliseconds since midnight
    UT"; a controllable clock keeps tests reproducible.
    """

    def __init__(self, start_ms: int = 0) -> None:
        self._now_ms = start_ms % MS_PER_DAY

    def now_ms(self) -> int:
        return self._now_ms

    def advance(self, ms: int) -> None:
        if ms < 0:
            raise ValueError("clock cannot run backwards")
        self._now_ms = (self._now_ms + ms) % MS_PER_DAY


@dataclass
class BufferPool:
    """A bounded outbound buffer; exhaustion triggers source quench."""

    capacity: int
    queued: list[bytes] = field(default_factory=list)

    @property
    def full(self) -> bool:
        return len(self.queued) >= self.capacity

    def enqueue(self, packet: bytes) -> bool:
        """Queue a packet; returns False (drop) when the buffer is full."""
        if self.full:
            return False
        self.queued.append(packet)
        return True

    def drain(self) -> list[bytes]:
        drained, self.queued = self.queued, []
        return drained


@dataclass
class OSServices:
    """The bundle of OS facilities handed to generated protocol code."""

    interfaces: list[Interface] = field(default_factory=list)
    clock: Clock = field(default_factory=Clock)
    buffers: dict[str, BufferPool] = field(default_factory=dict)

    def own_addresses(self) -> set[int]:
        return {interface.address for interface in self.interfaces}

    def buffer_for(self, name: str, capacity: int = 8) -> BufferPool:
        if name not in self.buffers:
            self.buffers[name] = BufferPool(capacity=capacity)
        return self.buffers[name]
