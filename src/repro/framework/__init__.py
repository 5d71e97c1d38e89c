"""The SAGE *static framework*: protocol codecs and OS services.

Paper §5.1: "sage requires a pre-defined static framework that provides such
functionality along with an API to access and manipulate headers of other
protocols, and to interface with the OS."  Everything generated code calls
lives here: one's-complement arithmetic, byte-order conversion, IPv4/ICMP/
UDP/IGMP/NTP/BFD codecs, interface/clock/buffer services, and the pcap +
tcpdump tooling used to verify emitted packets.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".addressing": ("Subnet", "int_to_ip", "ip_to_int"),
    ".byteorder": ("htonl", "htons", "ntohl", "ntohs", "swap16", "swap32"),
    ".checksum": ("incremental_update", "internet_checksum",
                  "ones_complement_sum", "verify_checksum"),
    ".netdev": ("BufferPool", "Clock", "Interface", "OSServices"),
    ".packet": ("FieldSpec", "Header", "HeaderLayout", "LayoutField"),
    ".pcap": ("CapturedPacket", "packets_to_pcap_bytes", "read_pcap",
              "read_pcap_file", "write_pcap", "write_pcap_file"),
    ".tcpdump": ("DecodedPacket", "decode_capture", "decode_packet",
                 "verify_clean"),
})
