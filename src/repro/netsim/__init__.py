"""A Mininet-like network simulator for interoperability testing.

Hosts, routers, and links move raw IPv4 datagrams; Linux-faithful `ping`
and `traceroute` tools judge implementations exactly the way the paper's
end-to-end evaluation (§6.2) and student study (§2.1) do.  IGMP switches,
BFD sessions, and NTP peers cover the generality experiments (§6.3-6.4).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".bfd_session": ("BFDSession", "run_handshake"),
    ".core": ("Link", "LinkFaults", "Network", "Node", "StepClock",
              "Transmission"),
    ".generated": ("GeneratedBFDSession", "IGMPQueryScenario",
                   "generated_bfd_handshake", "generated_course_topology",
                   "generated_ntp_peer", "igmp_query_scenario"),
    ".host": ("Host",),
    ".icmp_impl": ("ICMPImplementation", "ReferenceICMP"),
    ".igmp_switch": ("ForwardingIGMPSwitch", "IGMPSwitch"),
    ".ntp_peer": ("NTPPeer", "reference_timeout_predicate"),
    ".ping": ("Ping", "PingResult", "ping"),
    ".router": ("Router", "fill_buffer"),
    ".routing": ("Route", "RoutingTable"),
    ".topologies": ("CourseTopology", "add_redirect_route", "course_topology"),
    ".traceroute": ("Traceroute", "TracerouteResult", "traceroute"),
})
