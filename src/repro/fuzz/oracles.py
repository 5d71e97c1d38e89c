"""Per-protocol invariant oracles over replay traces.

Differential comparison catches backends that *disagree*; oracles catch
the case where every backend agrees on something *wrong*.  Each oracle
receives an :class:`~repro.fuzz.generator.Episode` plus one backend's
trace dict and returns human-readable violation strings (empty when the
trace is clean).

Adding an oracle is one call::

    from repro.fuzz.oracles import register_oracle

    def no_giant_replies(episode, trace):
        return [f"oversized reply {h}" for h in trace.get("client_rx", ())
                if len(h) // 2 > 1500]

    register_oracle("ICMP", no_giant_replies)

Registered oracles run on every distinct trace of their protocol, every
episode.

The contract: an oracle is a pure function of ``(episode, trace)``.  It
must not mutate either argument, keep state between calls or depend on
which backend produced the trace.  The runner
(:meth:`~repro.fuzz.runner.DifferentialRunner.run_episode`) relies on
this: backends that agree produce equal traces, so each distinct trace is
checked once and its violations are reported for every backend that
produced it (DESIGN.md §12.4).
"""

from __future__ import annotations

from typing import Callable

from ..framework.addressing import ip_to_int
from ..framework.igmp import HOST_MEMBERSHIP_REPORT, IGMPHeader
from ..framework.ip import PROTO_IGMP, PROTO_UDP, IPv4Header
from ..framework.ntp import NTP_PORT
from ..framework.tcpdump import decode_packet
from ..framework.udp import UDPHeader
from .generator import Episode

Oracle = Callable[[Episode, dict], list]

ORACLES: dict[str, list[Oracle]] = {}


def register_oracle(protocol: str, oracle: Oracle) -> None:
    ORACLES.setdefault(protocol.upper(), []).append(oracle)


def check_trace(episode: Episode, trace: dict) -> list[str]:
    """Every registered violation for ``trace`` under its protocol."""
    violations: list[str] = []
    for oracle in ORACLES.get(episode.protocol, ()):
        violations.extend(str(v) for v in oracle(episode, trace))
    return violations


#: Trace fields that carry raw wire bytes as hex strings.
WIRE_FIELDS = ("client_rx", "router_tx", "switch_tx", "querier_tx",
               "local_tx", "remote_tx", "emitted")


def _wire_fields(trace: dict) -> list[tuple[str, str]]:
    """Every (field, hex) wire capture in a trace."""
    captures = []
    for name in WIRE_FIELDS:
        for item in trace.get(name, ()):
            if isinstance(item, str):
                captures.append((name, item))
    return captures


# -- ICMP: every emitted datagram must survive tcpdump -v ----------------------

def _icmp_tcpdump_clean(episode: Episode, trace: dict) -> list[str]:
    violations = []
    for field, value in _wire_fields(trace):
        decoded = decode_packet(bytes.fromhex(value))
        for warning in decoded.warnings:
            violations.append(f"{field}: {warning} in {decoded.summary}")
    return violations


def _icmp_reply_accounting(episode: Episode, trace: dict) -> list[str]:
    transmitted = trace.get("transmitted")
    received = trace.get("received")
    if transmitted is None or received is None:
        return []
    if received > transmitted:
        return [f"received {received} replies for {transmitted} probes"]
    return []


# -- IGMP: RFC 1112 report discipline ------------------------------------------

def _igmp_reports_well_formed(episode: Episode, trace: dict) -> list[str]:
    violations = []
    for field in ("switch_tx", "reports", "querier_tx"):
        for value in trace.get(field, ()):
            if not isinstance(value, str):
                continue
            try:
                packet = IPv4Header.unpack(bytes.fromhex(value))
            except ValueError as exc:
                violations.append(f"{field}: malformed IP datagram ({exc})")
                continue
            if packet.protocol != PROTO_IGMP:
                violations.append(f"{field}: non-IGMP protocol {packet.protocol}")
                continue
            if packet.ttl != 1:
                violations.append(f"{field}: IGMP datagram with TTL "
                                  f"{packet.ttl}, RFC 1112 requires 1")
            try:
                message = IGMPHeader.unpack(packet.data)
            except ValueError as exc:
                violations.append(f"{field}: truncated IGMP message ({exc})")
                continue
            if not message.checksum_ok():
                violations.append(f"{field}: bad IGMP checksum")
            if (message.type == HOST_MEMBERSHIP_REPORT
                    and packet.dst != message.group_address):
                violations.append(
                    f"{field}: report for group {message.group_address:#x} "
                    f"addressed to {packet.dst:#x}"
                )
    return violations


# -- NTP: Appendix A encapsulation and timer discipline ------------------------

def _ntp_encapsulation(episode: Episode, trace: dict) -> list[str]:
    violations = []
    traces = [trace] + [entry[1] for entry in trace.get("modes", ())]
    for subtrace in traces:
        for value in subtrace.get("emitted", ()):
            try:
                packet = IPv4Header.unpack(bytes.fromhex(value))
                datagram = UDPHeader.unpack(packet.data)
            except ValueError as exc:
                violations.append(f"emitted: malformed NTP datagram ({exc})")
                continue
            if packet.protocol != PROTO_UDP:
                violations.append(f"emitted: NTP outside UDP "
                                  f"(protocol {packet.protocol})")
            if (datagram.src_port, datagram.dst_port) != (NTP_PORT, NTP_PORT):
                violations.append(
                    f"emitted: ports {datagram.src_port}->{datagram.dst_port}"
                    f", RFC 1059 Appendix A requires {NTP_PORT} on both ends"
                )
        for entry in subtrace.get("trajectory", ()):
            timer, _fired, packet_hex = entry
            if packet_hex is not None and timer != 0:
                violations.append(
                    f"trajectory: timeout fired but peer timer is {timer}, "
                    "the timeout procedure must reset it"
                )
    return violations


# -- BFD: session states stay inside the §6.8.6 machine ------------------------

_BFD_STATES = frozenset(range(4))


def _bfd_states_legal(episode: Episode, trace: dict) -> list[str]:
    violations = []
    snapshots = []
    for entry in trace.get("snapshots", ()):
        snapshots.append(entry[0] if isinstance(entry, list) else entry)
    for step in trace.get("steps", ()):
        snapshots.append(step["snapshot"])
    for index, snapshot in enumerate(snapshots):
        for name in ("SessionState", "RemoteSessionState"):
            value = snapshot.get(name)
            if value not in _BFD_STATES:
                violations.append(
                    f"snapshot {index}: {name}={value} outside the "
                    "AdminDown/Down/Init/Up machine"
                )
    return violations


register_oracle("ICMP", _icmp_tcpdump_clean)
register_oracle("ICMP", _icmp_reply_accounting)
register_oracle("IGMP", _igmp_reports_well_formed)
register_oracle("NTP", _ntp_encapsulation)
register_oracle("BFD", _bfd_states_legal)
