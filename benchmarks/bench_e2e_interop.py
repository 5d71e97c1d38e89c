"""§6.2 end-to-end evaluation: tcpdump-clean packets and tool interop.

Experiment 1 (packet capture): every message type generated by the SAGE
pipeline produces packets that the tcpdump-equivalent decodes with no
warnings or errors.

Experiment 2 (tool interop): the generated implementation, mounted on the
course-topology router, interoperates with the Linux-faithful ping and
traceroute across the four command scenarios (echo, destination
unreachable, time exceeded, traceroute), plus the remaining Appendix A
scenarios.
"""

from conftest import print_table

from repro.framework import icmp, verify_clean
from repro.framework.addressing import ip_to_int
from repro.framework.pcap import packets_to_pcap_bytes
from repro.netsim import Ping, add_redirect_route, course_topology, ping, traceroute
from repro.runtime import GeneratedICMP


def _run_all_scenarios(unit):
    outcomes = {}
    captures = []

    topology = course_topology(implementation=GeneratedICMP.from_unit(unit))
    echo = ping(topology.client, ip_to_int("10.0.1.1"), count=4)
    outcomes["echo (ping router)"] = echo.success
    across = ping(topology.client, ip_to_int("192.168.2.2"), count=2)
    outcomes["echo (ping across router)"] = across.success
    unreachable = ping(topology.client, ip_to_int("8.8.8.8"))
    outcomes["destination unreachable"] = any(
        e.icmp_type == icmp.DEST_UNREACHABLE for e in unreachable.errors
    )
    exceeded = Ping(topology.client, ttl=1).run(ip_to_int("192.168.2.2"))
    outcomes["time exceeded"] = any(
        e.icmp_type == icmp.TIME_EXCEEDED for e in exceeded.errors
    )
    route = traceroute(topology.client, ip_to_int("192.168.2.2"))
    outcomes["traceroute"] = route.destination_reached and not route.rejections
    captures.extend(topology.client.received_capture)
    captures.extend(topology.client.sent_capture)

    tos_topology = course_topology(
        implementation=GeneratedICMP.from_unit(unit), require_tos_zero=True
    )
    problem = Ping(tos_topology.client).run(ip_to_int("192.168.2.2"), tos=1)
    outcomes["parameter problem"] = any(
        e.icmp_type == icmp.PARAMETER_PROBLEM for e in problem.errors
    )
    captures.extend(tos_topology.client.received_capture)

    quench_topology = course_topology(
        implementation=GeneratedICMP.from_unit(unit), buffer_capacity=0
    )
    quench = ping(quench_topology.client, ip_to_int("192.168.2.2"))
    outcomes["source quench"] = any(
        e.icmp_type == icmp.SOURCE_QUENCH for e in quench.errors
    )
    captures.extend(quench_topology.client.received_capture)

    redirect_topology = course_topology(
        implementation=GeneratedICMP.from_unit(unit)
    )
    destination = add_redirect_route(redirect_topology)
    redirected = ping(redirect_topology.client, ip_to_int(destination))
    outcomes["redirect"] = any(
        e.icmp_type == icmp.REDIRECT for e in redirected.errors
    )
    captures.extend(redirect_topology.client.received_capture)

    return outcomes, captures


def test_e2e_generated_code_interoperates(benchmark, icmp_run_revised):
    outcomes, captures = benchmark(
        lambda: _run_all_scenarios(icmp_run_revised.code_unit))
    print_table("§6.2: generated ICMP vs Linux-faithful tools",
                ["Scenario", "interoperates"],
                sorted(outcomes.items()))
    failed = [name for name, passed in outcomes.items() if not passed]
    assert not failed, failed


def test_e2e_packet_captures_are_tcpdump_clean(icmp_run_revised):
    _, captures = _run_all_scenarios(icmp_run_revised.code_unit)
    clean, warnings = verify_clean(captures)
    print(f"\n§6.2: tcpdump verification over {len(captures)} captured packets: "
          f"{'no warnings or errors' if clean else warnings[:5]}")
    assert clean, warnings
    # The capture also round-trips through the pcap writer.
    assert packets_to_pcap_bytes(captures)


def test_e2e_strict_mode_fails_ping(icmp_run_strict):
    """The §6.5 negative control: pre-rewrite code zeroes the identifier
    and Linux-style ping rejects every reply."""
    implementation = GeneratedICMP.from_unit(icmp_run_strict.code_unit)
    topology = course_topology(implementation=implementation)
    result = ping(topology.client, ip_to_int("10.0.1.1"), count=2)
    assert result.received == 0
    assert any("identifier mismatch" in reason for reason in result.rejections)
