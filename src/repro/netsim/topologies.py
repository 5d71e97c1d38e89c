"""Canned topologies, including the Appendix A course topology.

The paper's test scenarios assume a router that "only recognizes three
subnets, which are 10.0.1.1/24, 192.168.2.1/24, and 172.64.3.1/24" with a
client and servers hanging off them.  :func:`course_topology` builds exactly
that; scenario helpers then perturb it (TTL=1 probes, bad ToS, full buffers,
unknown destinations) per Appendix A.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Network
from .host import Host
from .icmp_impl import ICMPImplementation
from .router import Router

CLIENT_IP = "10.0.1.100"
SERVER1_IP = "192.168.2.2"
SERVER2_IP = "172.64.3.10"
ROUTER_CLIENT_SIDE = "10.0.1.1"
ROUTER_SERVER1_SIDE = "192.168.2.1"
ROUTER_SERVER2_SIDE = "172.64.3.1"
UNKNOWN_DESTINATION = "8.8.8.8"
SECOND_GATEWAY_IP = "10.0.1.254"  # a second router on the client's subnet


@dataclass
class CourseTopology:
    """The assembled course network with convenient node handles."""

    network: Network
    client: Host
    router: Router
    server1: Host
    server2: Host
    second_gateway: Router

    def run(self) -> int:
        return self.network.run()


def course_topology(
    implementation: ICMPImplementation | None = None,
    require_tos_zero: bool = False,
    buffer_capacity: int = 64,
) -> CourseTopology:
    """Build the three-subnet course topology around ``implementation``."""
    network = Network()

    client = Host("client")
    client.add_interface("eth0", f"{CLIENT_IP}/24")

    router = Router(
        "router",
        implementation=implementation,
        require_tos_zero=require_tos_zero,
        buffer_capacity=buffer_capacity,
    )
    router.add_interface("eth0", f"{ROUTER_CLIENT_SIDE}/24")
    router.add_interface("eth1", f"{ROUTER_SERVER1_SIDE}/24")
    router.add_interface("eth2", f"{ROUTER_SERVER2_SIDE}/24")
    router.add_route("10.0.1.0/24", "eth0")
    router.add_route("192.168.2.0/24", "eth1")
    router.add_route("172.64.3.0/24", "eth2")

    server1 = Host("server1")
    server1.add_interface("eth0", f"{SERVER1_IP}/24")
    server2 = Host("server2")
    server2.add_interface("eth0", f"{SERVER2_IP}/24")

    # A second gateway on the client's subnet: reaching it via the main
    # router triggers the redirect scenario.
    second_gateway = Router("gw2")
    second_gateway.add_interface("eth0", f"{SECOND_GATEWAY_IP}/24")
    second_gateway.add_route("10.0.1.0/24", "eth0")

    for node in (client, router, server1, server2, second_gateway):
        network.add_node(node)

    network.connect("client", "eth0", "router", "eth0")
    network.connect("router", "eth1", "server1", "eth0")
    network.connect("router", "eth2", "server2", "eth0")

    return CourseTopology(
        network=network,
        client=client,
        router=router,
        server1=server1,
        server2=server2,
        second_gateway=second_gateway,
    )


def add_redirect_route(topology: CourseTopology, cidr: str = "203.0.113.0/24") -> str:
    """Route ``cidr`` via the second gateway on the client's own subnet.

    A client packet for that prefix then makes the router issue a redirect
    (the next hop is reachable directly by the sender).  Returns an address
    inside the prefix to probe.
    """
    topology.router.add_route(cidr, "eth0", next_hop=SECOND_GATEWAY_IP)
    network_part = cidr.split("/")[0].rsplit(".", 1)[0]
    return f"{network_part}.7"
