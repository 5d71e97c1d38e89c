"""Nodes, links, and the event loop of the Mininet-like simulator.

The paper tests generated code "using Mininet": a client, a router, and
servers on several subnets exchange real packets, and tools (`ping`,
`traceroute`, `tcpdump`) judge interoperability.  This module is the
equivalent substrate: nodes hold interfaces, links move raw IP datagrams
between them, and :class:`Network` drives delivery deterministically.

Links can carry seeded fault schedules (:class:`LinkFaults`): drop,
duplicate, and delay decisions are drawn from a per-link
``random.Random(seed)``, so a fuzz episode that perturbs delivery replays
byte-identically under the same seed — the substrate the differential
scenario fuzzer (:mod:`repro.fuzz`) leans on.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass, field

from ..framework.netdev import Interface, OSServices


class StepClock:
    """A deterministic, injectable step counter for scenario replay.

    Scenarios that used to rely on implicit ordering (capture-list lengths,
    call sequence) take a ``StepClock`` instead: every observable event is
    stamped with an explicit step number, so an episode replayed under
    reordered or duplicated delivery still produces comparable traces.
    """

    def __init__(self, start: int = 0) -> None:
        self._step = start

    def tick(self, steps: int = 1) -> int:
        if steps < 1:
            raise ValueError("a step clock only moves forward")
        self._step += steps
        return self._step

    def __repr__(self) -> str:
        return f"StepClock(step={self._step})"


@dataclass(eq=False)
class Transmission:
    """A datagram in flight: which node sent it out of which interface.

    ``delayed`` and ``duplicate`` are fault-injection bookkeeping (how many
    times a :class:`LinkFaults` schedule has held the datagram back, and
    whether it is an injected copy); they are deliberately excluded from
    equality — two transmissions are *the same packet* when sender,
    interface, and bytes agree, regardless of what the wire did to them.
    """

    sender: str
    interface: str
    data: bytes
    delayed: int = 0
    duplicate: bool = False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Transmission):
            return NotImplemented
        return (self.sender, self.interface, self.data) == (
            other.sender, other.interface, other.data
        )

    def __hash__(self) -> int:
        return hash((self.sender, self.interface, self.data))

    def __repr__(self) -> str:
        digest = hashlib.sha1(self.data).hexdigest()[:8]
        flags = ""
        if self.delayed:
            flags += f", delayed x{self.delayed}"
        if self.duplicate:
            flags += ", duplicate"
        return (f"Transmission({self.sender}/{self.interface}, "
                f"{len(self.data)}B, sha1:{digest}{flags})")

    def summary(self) -> dict:
        """A JSON-safe record for fuzz case files and divergence reports."""
        return {
            "sender": self.sender,
            "interface": self.interface,
            "length": len(self.data),
            "sha1": hashlib.sha1(self.data).hexdigest(),
            "hex": self.data.hex(),
        }


class Node:
    """Base class for simulated devices.

    Subclasses implement :meth:`receive`.  ``transmit`` hands a datagram to
    the network; every transmitted and received packet is also appended to
    per-node capture lists so tests can run the tcpdump verifier over them
    (the paper's "captured both sender and receiver packets").
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.os = OSServices()
        self.network: "Network | None" = None
        self.sent_capture: list[bytes] = []
        self.received_capture: list[bytes] = []

    def add_interface(self, name: str, cidr: str) -> Interface:
        interface = Interface.from_cidr(name, cidr)
        self.os.interfaces.append(interface)
        return interface

    def interface(self, name: str) -> Interface:
        for candidate in self.os.interfaces:
            if candidate.name == name:
                return candidate
        raise KeyError(f"{self.name} has no interface {name!r}")

    def transmit(self, interface: str, data: bytes) -> None:
        if self.network is None:
            raise RuntimeError(f"{self.name} is not attached to a network")
        self.sent_capture.append(data)
        self.network.enqueue(Transmission(self.name, interface, data))

    def receive(self, data: bytes, interface: str) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        interfaces = ", ".join(str(i) for i in self.os.interfaces) or "no interfaces"
        return f"<{type(self).__name__} {self.name} [{interfaces}]>"


@dataclass(frozen=True)
class Link:
    """A point-to-point wire between two (node, interface) endpoints."""

    node_a: str
    iface_a: str
    node_b: str
    iface_b: str

    def other_end(self, node: str, iface: str) -> tuple[str, str] | None:
        if (node, iface) == (self.node_a, self.iface_a):
            return (self.node_b, self.iface_b)
        if (node, iface) == (self.node_b, self.iface_b):
            return (self.node_a, self.iface_a)
        return None

    def __repr__(self) -> str:
        return (f"Link({self.node_a}/{self.iface_a} <-> "
                f"{self.node_b}/{self.iface_b})")


@dataclass
class LinkFaults:
    """A seeded fault schedule for one link.

    ``drop``, ``duplicate``, and ``delay`` are per-crossing probabilities;
    every decision is drawn from a private ``random.Random(seed)``, so the
    same seed plus the same traffic reproduces the same fault sequence
    exactly.  A delayed datagram is re-queued behind everything currently
    in flight (bounded by ``max_delays`` so the network still quiesces);
    a duplicated datagram enqueues one marked copy that is never
    re-duplicated.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    seed: int = 0
    max_delays: int = 3

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "delay"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} probability must be in [0, 1], "
                                 f"got {value}")


class _FaultState:
    """A :class:`LinkFaults` schedule bound to its private RNG stream."""

    def __init__(self, faults: LinkFaults) -> None:
        self.faults = faults
        self.rng = random.Random(faults.seed)


@dataclass
class Network:
    """The topology plus a synchronous delivery queue.

    ``run`` processes transmissions until quiescence; ``max_hops`` bounds
    total deliveries so a misconfigured topology cannot loop forever.
    Links with an installed :class:`LinkFaults` schedule may drop, delay,
    or duplicate crossings; every fault decision is appended to
    ``fault_log`` so tests can assert determinism under a fixed seed.
    """

    nodes: dict[str, Node] = field(default_factory=dict)
    links: list[Link] = field(default_factory=list)
    delivered: int = 0

    def add_node(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        node.network = self
        return node

    def connect(self, node_a: str, iface_a: str, node_b: str, iface_b: str,
                faults: LinkFaults | None = None) -> Link:
        for name, iface in ((node_a, iface_a), (node_b, iface_b)):
            self.nodes[name].interface(iface)  # validates existence
        link = Link(node_a, iface_a, node_b, iface_b)
        self.links.append(link)
        if faults is not None:
            self.install_faults(link, faults)
        return link

    def __post_init__(self) -> None:
        self._queue: deque[Transmission] = deque()
        self._faults: dict[Link, _FaultState] = {}
        self.fault_log: list[str] = []

    def install_faults(self, link: Link, faults: LinkFaults) -> None:
        """Attach (or replace) a seeded fault schedule on ``link``."""
        if link not in self.links:
            raise KeyError(f"{link!r} is not part of this network")
        self._faults[link] = _FaultState(faults)

    def enqueue(self, transmission: Transmission) -> None:
        self._queue.append(transmission)

    def _link_for(self, transmission: Transmission) -> tuple[Link, tuple[str, str]] | None:
        for link in self.links:
            other = link.other_end(transmission.sender, transmission.interface)
            if other is not None:
                return link, other
        return None

    def _apply_faults(self, link: Link, transmission: Transmission) -> bool:
        """Roll the link's fault schedule for one crossing.

        Returns True when the datagram should be delivered now.  Rolls are
        made in a fixed order (drop, delay, duplicate) so the RNG stream —
        and therefore the whole fault sequence — is a pure function of the
        seed and the traffic.
        """
        state = self._faults.get(link)
        if state is None:
            return True
        faults, rng = state.faults, state.rng
        if faults.drop and rng.random() < faults.drop:
            self.fault_log.append(f"drop {transmission!r}")
            return False
        if (faults.delay and transmission.delayed < faults.max_delays
                and rng.random() < faults.delay):
            transmission.delayed += 1
            self.fault_log.append(f"delay {transmission!r}")
            self._queue.append(transmission)
            return False
        if faults.duplicate and not transmission.duplicate \
                and rng.random() < faults.duplicate:
            copy = Transmission(transmission.sender, transmission.interface,
                                transmission.data, duplicate=True)
            self.fault_log.append(f"duplicate {transmission!r}")
            self._queue.append(copy)
        return True

    def run(self, max_hops: int = 10_000) -> int:
        """Deliver queued transmissions until the network is quiet.

        Returns the number of deliveries performed in this call.
        """
        performed = 0
        processed = 0
        while self._queue:
            if processed >= max_hops:
                raise RuntimeError(f"delivery did not quiesce within {max_hops} hops")
            transmission = self._queue.popleft()
            processed += 1
            found = self._link_for(transmission)
            if found is None:
                continue  # unplugged cable: packet is lost
            link, endpoint = found
            if not self._apply_faults(link, transmission):
                continue  # dropped or held back by the fault schedule
            node_name, iface_name = endpoint
            receiver = self.nodes[node_name]
            receiver.received_capture.append(transmission.data)
            receiver.receive(transmission.data, iface_name)
            performed += 1
            self.delivered += 1
        return performed

    def __repr__(self) -> str:
        return (f"<Network {len(self.nodes)} nodes, {len(self.links)} links, "
                f"{len(self._queue)} queued, {self.delivered} delivered>")
