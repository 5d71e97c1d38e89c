"""Integration tests: the SAGE pipeline end to end, plus the runtime."""

import pytest

from repro.core import SageEngine, modal_sentences
from repro.framework.addressing import ip_to_int
from repro.netsim import course_topology, ping
from repro.rfc import bfd_corpus, icmp_corpus
from repro.runtime import GeneratedICMP, compile_unit


@pytest.fixture(scope="module")
def strict_run():
    return SageEngine(mode="strict").process_corpus(icmp_corpus())


@pytest.fixture(scope="module")
def revised_run():
    return SageEngine(mode="revised").process_corpus(icmp_corpus())


class TestStrictPipeline:
    def test_flags_the_paper_sentences(self, strict_run):
        flagged_texts = [r.spec.text for r in strict_run.flagged()]
        assert any("To form an echo reply message" in t for t in flagged_texts)
        assert any("Address of the gateway" in t for t in flagged_texts)

    def test_ambiguous_sentences_have_multiple_lfs(self, strict_run):
        ambiguous = [r for r in strict_run.results if r.status == "ambiguous-lf"]
        assert ambiguous
        assert all(r.final_lf_count > 1 for r in ambiguous)

    def test_most_sentences_resolve_to_one_lf(self, strict_run):
        resolved = [
            r for r in strict_run.results
            if r.trace is not None and r.final_lf_count == 1
        ]
        assert len(resolved) > len(strict_run.results) * 0.7

    def test_modal_sentences_found(self, strict_run):
        # The @May readings behind the §6.5 unit-test discovery.
        modals = modal_sentences(strict_run)
        assert len(modals) >= 4

    def test_strict_code_fails_ping(self, strict_run):
        implementation = GeneratedICMP.from_unit(strict_run.code_unit)
        topology = course_topology(implementation=implementation)
        result = ping(topology.client, ip_to_int("10.0.1.1"), count=2)
        assert result.received == 0  # the paper's non-interoperability

    def test_strict_code_zeroes_identifier(self, strict_run):
        """The §6.5 unit-test discovery: the naive "may be zero" reading
        makes the receiver zero the identifier in the reply."""
        from repro.framework import icmp
        from repro.framework.ip import PROTO_ICMP, IPv4Header, make_ip_packet

        implementation = GeneratedICMP.from_unit(strict_run.code_unit)
        echo = icmp.make_echo(0x4242, 1, b"x" * 8)
        request = make_ip_packet(
            ip_to_int("10.0.1.100"), ip_to_int("10.0.1.1"), PROTO_ICMP, echo.pack()
        )
        raw = implementation.echo_reply(request, ip_to_int("10.0.1.1"))
        reply = icmp.ICMPHeader.unpack(IPv4Header.unpack(raw).data)
        assert reply.identifier == 0  # zeroed, not echoed: ping will reject


class TestRevisedPipeline:
    def test_no_flags_remain(self, revised_run):
        assert revised_run.flagged() == []

    def test_rewrites_applied(self, revised_run):
        rewritten = revised_run.rewritten()
        assert len(rewritten) >= 10
        for result in rewritten:
            assert result.rewrite is not None
            for sub in result.sub_results:
                assert sub.status in ("ok", "non-actionable")

    def test_sixteen_builders_generated(self, revised_run):
        # 8 sections; echo/timestamp/info sections carry two messages each.
        assert len(revised_run.code_unit.programs) == 11

    def test_c_and_python_renderings_exist(self, revised_run):
        c_source = revised_run.code_unit.render_c()
        python_source = revised_run.code_unit.render_python()
        assert "struct" in c_source
        assert "hdr->type = 0;" in c_source
        assert "def icmp_echo_reply_receiver(ctx):" in python_source

    def test_generated_code_compiles(self, revised_run):
        functions = compile_unit(revised_run.code_unit)
        assert "icmp_echo_reply_receiver" in functions
        assert "icmp_destination_unreachable_receiver" in functions

    def test_revised_code_passes_ping(self, revised_run):
        implementation = GeneratedICMP.from_unit(revised_run.code_unit)
        topology = course_topology(implementation=implementation)
        result = ping(topology.client, ip_to_int("10.0.1.1"), count=3)
        assert result.success, result.rejections

    def test_subject_supply_used(self, revised_run):
        supplied = [r for r in revised_run.results if r.subject_supplied]
        assert supplied  # fragments like "If code = 0, identifies the octet..."


class TestEchoReplySemantics:
    def test_reply_echoes_payload_and_ids(self, revised_run):
        from repro.framework import icmp
        from repro.framework.ip import PROTO_ICMP, IPv4Header, make_ip_packet

        implementation = GeneratedICMP.from_unit(revised_run.code_unit)
        echo = icmp.make_echo(0xABCD, 7, b"payload-bytes")
        request = make_ip_packet(
            ip_to_int("10.0.1.100"), ip_to_int("10.0.1.1"), PROTO_ICMP, echo.pack()
        )
        raw = implementation.echo_reply(request, ip_to_int("10.0.1.1"))
        assert raw is not None
        reply_ip = IPv4Header.unpack(raw)
        assert reply_ip.src == ip_to_int("10.0.1.1")
        assert reply_ip.dst == ip_to_int("10.0.1.100")
        reply = icmp.ICMPHeader.unpack(reply_ip.data)
        assert reply.type == icmp.ECHO_REPLY
        assert reply.identifier == 0xABCD
        assert reply.sequence == 7
        assert reply.payload == b"payload-bytes"
        assert reply.checksum_ok()

    def test_error_message_quotes_datagram(self, revised_run):
        from repro.framework import icmp
        from repro.framework.ip import PROTO_UDP, IPv4Header, make_ip_packet

        implementation = GeneratedICMP.from_unit(revised_run.code_unit)
        original = make_ip_packet(
            ip_to_int("10.0.1.100"), ip_to_int("8.8.8.8"), PROTO_UDP,
            b"0123456789",
        )
        raw = implementation.destination_unreachable(
            original, icmp.NET_UNREACHABLE, ip_to_int("10.0.1.1")
        )
        message = icmp.ICMPHeader.unpack(IPv4Header.unpack(raw).data)
        assert message.type == icmp.DEST_UNREACHABLE
        assert message.payload[:20] == original.header_bytes()
        assert message.payload[20:] == b"01234567"
        assert message.checksum_ok()


class TestRouterReplyPaths:
    """The three router paths no ping or traceroute takes: a full outbound
    buffer (source quench), a next hop on the sender's own subnet
    (redirect) and an information request.  The revised unit's generated
    replies must equal the hand-written reference's byte for byte."""

    @staticmethod
    def replies(implementation) -> list[list[bytes]]:
        from repro.framework import icmp
        from repro.framework.ip import PROTO_ICMP, make_ip_packet
        from repro.netsim import fill_buffer
        from repro.netsim.topologies import (
            CLIENT_IP, ROUTER_CLIENT_SIDE, SERVER1_IP, add_redirect_route,
        )

        topology = course_topology(implementation=implementation)
        client = ip_to_int(CLIENT_IP)
        echo = icmp.make_echo(0x1234, 1, b"probe").pack()
        fill_buffer(topology.router, "eth1")
        probes = [
            make_ip_packet(client, ip_to_int(SERVER1_IP), PROTO_ICMP, echo),
            make_ip_packet(client, ip_to_int(add_redirect_route(topology)),
                           PROTO_ICMP, echo),
            make_ip_packet(client, ip_to_int(ROUTER_CLIENT_SIDE), PROTO_ICMP,
                           icmp.make_info_request(0x1234, 2).pack()),
        ]
        replies = []
        for probe in probes:
            topology.client.received_capture.clear()
            topology.client.send(probe)
            topology.run()
            replies.append(list(topology.client.received_capture))
        return replies

    @pytest.mark.parametrize("backend", ["python", "interp"])
    def test_generated_replies_equal_reference(self, revised_run, backend):
        from repro.framework import icmp
        from repro.framework.ip import IPv4Header

        reference = self.replies(None)
        types = [[icmp.ICMPHeader.unpack(IPv4Header.unpack(raw).data).type
                  for raw in replies] for replies in reference]
        assert types == [[icmp.SOURCE_QUENCH], [icmp.REDIRECT],
                         [icmp.INFO_REPLY]]
        generated = GeneratedICMP.from_unit(revised_run.code_unit,
                                            backend=backend)
        assert self.replies(generated) == reference


class TestBFDPipeline:
    def test_bfd_corpus_processes(self):
        run = SageEngine(mode="revised").process_corpus(bfd_corpus())
        assert run.by_status().get("unparsed", 0) == 0
        program = run.code_unit.program_named(
            "bfd_reception_of_bfd_control_packets_receiver"
        )
        assert program is not None
        rendered = program.render_python()
        assert "bfd.remotediscr" in rendered
        assert "ctx.discard" in rendered
