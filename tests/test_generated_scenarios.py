"""Generated code in netsim scenarios, one per protocol (§6.2–§6.4).

The acceptance surface of the IR refactor:

* the C rendering of the ICMP corpus is byte-identical to the pre-IR
  golden files (Table 4 parity);
* generated ICMP passes ping *and* traceroute interop on the course
  topology, via both executable backends;
* generated IGMP queries elicit correct reports from the commodity-switch
  model;
* generated NTP dispatch drives an NTPPeer's timeout policy exactly like
  the reference predicate;
* generated BFD reception brings a session Up against a reference peer and
  matches the reference FSM on all 32 (local, remote, demand) transitions.
"""

import itertools
import pathlib

import pytest

from repro.core import SageEngine
from repro.framework.addressing import ip_to_int
from repro.framework.bfd import BFDControlHeader
from repro.framework.igmp import HOST_MEMBERSHIP_REPORT
from repro.framework.ip import IPv4Header
from repro.framework.ntp import MODE_BROADCAST, MODE_CLIENT, NTPHeader, PeerVariables
from repro.framework.tcpdump import decode_packet
from repro.framework.udp import UDPHeader
from repro.netsim import (
    BFDSession,
    GeneratedBFDSession,
    generated_bfd_handshake,
    generated_course_topology,
    generated_ntp_peer,
    igmp_query_scenario,
    ping,
    traceroute,
)
from repro.netsim.bfd_session import run_handshake
from repro.runtime import GeneratedIGMP, generated_implementation

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
BACKENDS = ("python", "interp")


@pytest.fixture(scope="module")
def runs():
    return SageEngine(mode="revised").process_corpora()


class TestGoldenC:
    """Table 4 parity: the IR refactor must not move a byte of C output."""

    def test_revised_icmp_c_is_byte_identical(self, runs):
        golden = (GOLDEN_DIR / "icmp_revised.c").read_text()
        assert runs["ICMP"].code_unit.render_c() + "\n" == golden

    def test_strict_icmp_c_is_byte_identical(self):
        run = SageEngine(mode="strict").process_corpus("ICMP")
        golden = (GOLDEN_DIR / "icmp_strict.c").read_text()
        assert run.code_unit.render_c() + "\n" == golden


class TestGeneratedICMPScenario:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_ping_interop(self, runs, backend):
        topology = generated_course_topology(runs["ICMP"].code_unit,
                                             backend=backend)
        result = ping(topology.client, ip_to_int("10.0.1.1"), count=3)
        assert result.success, result.rejections

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_traceroute_interop(self, runs, backend):
        topology = generated_course_topology(runs["ICMP"].code_unit,
                                             backend=backend)
        result = traceroute(topology.client, ip_to_int("192.168.2.2"))
        assert result.destination_reached
        assert result.path() == [ip_to_int("10.0.1.1"), ip_to_int("192.168.2.2")]

    def test_family_factory_builds_the_icmp_adapter(self, runs):
        from repro.runtime import GeneratedICMP

        implementation = generated_implementation("ICMP", runs["ICMP"].code_unit)
        assert isinstance(implementation, GeneratedICMP)

    def test_family_factory_rejects_unknown_protocols(self, runs):
        with pytest.raises(KeyError):
            generated_implementation("SMTP", runs["ICMP"].code_unit)


class TestGeneratedIGMPScenario:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_generated_query_elicits_reports(self, runs, backend):
        member = ip_to_int("10.0.5.9")
        group = ip_to_int("225.1.2.3")
        scenario = igmp_query_scenario(
            runs["IGMP"].code_unit, backend=backend,
            memberships=[(member, group)],
        )
        reports = scenario.run_query()
        assert scenario.switch.queries_seen, "switch never saw the generated query"
        assert [r.type for r in reports] == [HOST_MEMBERSHIP_REPORT]
        assert reports[0].group_address == group

    def test_generated_query_is_tcpdump_clean(self, runs):
        scenario = igmp_query_scenario(runs["IGMP"].code_unit)
        source = scenario.sender.interface("eth0").address
        query = scenario.implementation.query_datagram(source)
        assert decode_packet(query).clean

    def test_generated_query_matches_reference_bytes(self, runs):
        from repro.framework.igmp import make_query

        implementation = GeneratedIGMP.from_unit(runs["IGMP"].code_unit)
        assert implementation.membership_query().pack() == make_query().pack()

    def test_generated_report_matches_reference_bytes(self, runs):
        from repro.framework.igmp import make_report

        group = ip_to_int("226.0.0.5")
        implementation = GeneratedIGMP.from_unit(runs["IGMP"].code_unit)
        assert implementation.membership_report(group).pack() == \
            make_report(group).pack()


class TestGeneratedNTPScenario:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_generated_dispatch_fires_like_reference(self, runs, backend):
        peer = generated_ntp_peer(
            runs["NTP"].code_unit,
            ip_to_int("10.0.9.1"), ip_to_int("10.0.9.2"), backend=backend,
        )
        peer.peer.threshold = 4
        emitted = peer.run_for(10)
        assert len(emitted) == 2  # fires at t=4 and t=8, like the reference
        assert peer.peer.timeouts_fired == 2

    def test_emitted_packets_are_ntp_in_udp(self, runs):
        peer = generated_ntp_peer(
            runs["NTP"].code_unit,
            ip_to_int("10.0.9.1"), ip_to_int("10.0.9.2"),
        )
        peer.peer.threshold = 1
        raw = peer.run_for(1)[0]
        packet = IPv4Header.unpack(raw)
        datagram = UDPHeader.unpack(packet.data)
        assert datagram.dst_port == 123
        message = NTPHeader.unpack(datagram.payload)
        assert message.mode == MODE_CLIENT
        assert decode_packet(raw).clean

    def test_no_dispatch_outside_client_or_symmetric_mode(self, runs):
        peer = generated_ntp_peer(
            runs["NTP"].code_unit, 1, 2,
            peer=PeerVariables(mode=MODE_BROADCAST, threshold=2),
        )
        assert peer.run_for(6) == []

    def test_decision_only_dispatch_never_double_fires(self, runs):
        """The predicate records the decision; only the peer driver runs the
        timeout procedure — exactly one firing per threshold crossing."""
        peer = generated_ntp_peer(
            runs["NTP"].code_unit, 1, 2,
            peer=PeerVariables(mode=MODE_CLIENT, threshold=3),
        )
        emitted = peer.run_for(9)
        assert len(emitted) == 3
        assert peer.peer.timeouts_fired == 3


class TestGeneratedBFDScenario:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_handshake_reaches_up(self, runs, backend):
        generated, reference = generated_bfd_handshake(
            runs["BFD"].code_unit, backend=backend
        )
        from repro.framework.bfd import STATE_UP

        assert generated.state.SessionState == STATE_UP
        assert reference.state.SessionState == STATE_UP
        assert generated.state.RemoteDiscr == 2
        assert reference.state.RemoteDiscr == 1

    def test_demand_mode_ceases_periodic_transmission(self, runs):
        generated, reference = generated_bfd_handshake(runs["BFD"].code_unit)
        reference.state.DemandMode = 1
        generated.receive_control(reference.send_control())
        assert generated.periodic_transmission_enabled is False

    def test_discarded_packet_does_not_reenable_transmission(self, runs):
        """Like the reference session, a discard leaves the transmission
        policy untouched — an invalid packet must not undo demand mode."""
        generated, reference = generated_bfd_handshake(runs["BFD"].code_unit)
        reference.state.DemandMode = 1
        generated.receive_control(reference.send_control())
        assert generated.periodic_transmission_enabled is False
        bad = reference.send_control()
        bad.detect_mult = 0  # fails the §6.8.6 validation prefix
        generated.receive_control(bad)
        assert generated.discarded
        assert generated.periodic_transmission_enabled is False

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_32_transitions_match_reference(self, runs, backend):
        """Every (local state, received state, demand) against the §6.8.6
        reference transcription — the paper's transition-for-transition
        validation, via the netsim session adapter."""
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

            generated = GeneratedBFDSession.from_unit(
                runs["BFD"].code_unit, backend=backend
            )
            generated.state.SessionState = local_state
            generated.state.LocalDiscr = 7
            generated.receive_control(packet)
            if generated.state.SessionState != reference.state.SessionState:
                mismatches.append((local_state, remote_state, demand))
        assert mismatches == []

    def test_generated_session_interoperates_with_reference_runner(self, runs):
        """run_handshake drives a generated and a reference session as
        equals — the substitution the netsim boundary promises."""
        generated = GeneratedBFDSession.from_unit(runs["BFD"].code_unit)
        generated.state.LocalDiscr = 11
        reference = BFDSession()
        reference.state.LocalDiscr = 22
        run_handshake(reference, generated)
        assert generated.state.SessionState == reference.state.SessionState


class TestCompiledCacheSharing:
    def test_repeat_topologies_reuse_the_compiled_program(self, runs):
        from repro.rfc.registry import default_registry

        cache = default_registry().compiled_cache()
        generated_course_topology(runs["ICMP"].code_unit)
        hits_before = cache.stats()["hits"]
        generated_course_topology(runs["ICMP"].code_unit)
        assert cache.stats()["hits"] > hits_before
