"""Execution of SAGE-generated code against the static framework.

The executable backends produce builder functions over a ``ctx`` object;
this module provides those objects (:class:`ExecutionContext` for ICMP,
:class:`IGMPExecutionContext` for IGMP — the state-runtime contexts live in
:mod:`repro.runtime.state_runtime`), compiles generated programs through
the shared compiled-program cache (:func:`compile_unit`), and adapts the
results to the simulator's interfaces through the protocol-generic
:class:`GeneratedImplementation` family — the paper's §6.2 integration,
generalized to every bundled protocol (§6.3–§6.4):

* :class:`GeneratedICMP` — the `ICMPImplementation` boundary for
  routers/hosts (ping, traceroute, the Appendix A scenarios);
* :class:`GeneratedIGMP` — query/report construction for the
  commodity-switch experiment;
* :class:`~repro.runtime.state_runtime.GeneratedNTP` /
  :class:`~repro.runtime.state_runtime.GeneratedBFD` — the state-machine
  adapters (Table 11 dispatch, §6.8.6 reception).

Every adapter compiles through :func:`compile_unit`: programs are keyed on
their backend and IR fingerprint in the registry's
:class:`~repro.rfc.registry.CompiledProgramCache`, so a repeated scenario
pays a dictionary hit, not a recompile.  Generated code reaches the
runtime only as IR: the exec backend renders the Python itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from ..codegen.emitters import PyEmitter
from ..framework import icmp
from ..framework.checksum import internet_checksum
from ..framework.igmp import ALL_HOSTS_GROUP, IGMPHeader
from ..framework.ip import PROTO_ICMP, PROTO_IGMP, IPv4Header, make_ip_packet
from ..framework.netdev import Clock
from ..netsim.icmp_impl import ICMPImplementation


def compile_unit(unit, backend: str = "python", cache=None) -> dict[str, object]:
    """Compile an IR :class:`~repro.codegen.ir.Program` to callables.

    ``backend`` names any registered executable backend ("python" execs the
    rendering; "interp" walks the IR directly).  ``cache`` is a
    :class:`~repro.rfc.registry.CompiledProgramCache`, ``True`` for the
    default registry's, or None.  The cache key is ``(backend, IR
    fingerprint)``, so the same program compiled under two backends caches
    independently while a repeat under either is free.

    Compiled callables cannot outlive their process, but the *rendered
    source* can: a disk-backed cache (:class:`~repro.cache.persistent.
    PersistentCompiledCache`) persists the Python rendering under the same
    key, so a cold process skips the render and only re-pays the ``exec``.
    The in-memory cache's ``get_source``/``put_source`` are no-ops.
    """
    if cache is True:
        from ..rfc.registry import default_registry

        cache = default_registry().compiled_cache()
    key = (backend, unit.fingerprint())
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            return hit
    if backend != "python":
        functions = unit.compile(backend=backend)
    else:
        # Render at most once: the one rendering is both exec'd and
        # persisted.
        source = None if cache is None else cache.get_source(key)
        rendered = source is None
        if rendered:
            source = unit.render_python()
        functions = PyEmitter.compile_source(source)
        if rendered and cache is not None:
            cache.put_source(key, source)
    if cache is not None:
        cache.put(key, functions)
    return functions


@dataclass
class ExecutionContext:
    """The ``ctx`` object generated builders operate on.

    IP fields start as the *request's* addresses — the unmodified-datagram
    view the RFC prose assumes ("the source and destination addresses are
    simply reversed").  ``finish`` applies the OS egress rule: a source
    address the responder does not own is replaced by the responder's
    interface address (error messages originate at the router).
    """

    request_ip: IPv4Header
    responder_address: int
    params: dict[str, int] = dataclass_field(default_factory=dict)
    clock: Clock = dataclass_field(default_factory=Clock)
    ip_fields: dict[str, int] = dataclass_field(default_factory=dict)
    icmp_fields: dict[str, int] = dataclass_field(default_factory=dict)
    payload: bytes = b""
    checksum_requested: bool = False
    checksum_start: str = "type"
    discarded_reason: str | None = None

    def __post_init__(self) -> None:
        self.ip_fields = {
            "src": self.request_ip.src,
            "dst": self.request_ip.dst,
            "ttl": 64,
            "total_length": self.request_ip.total_length,
        }
        self.icmp_fields = {}
        try:
            self._request_icmp = icmp.ICMPHeader.unpack(self.request_ip.data)
        except ValueError:
            self._request_icmp = None
        try:
            self._request_timestamp = icmp.ICMPTimestampHeader.unpack(
                self.request_ip.data
            )
        except ValueError:
            self._request_timestamp = None

    # -- ops API (what the Python emitter calls) ------------------------------
    def set_field(self, protocol: str, name: str, value: int) -> None:
        if protocol == "ip":
            self.ip_fields[name] = value
        else:
            self.icmp_fields[name] = value

    def get_field(self, protocol: str, name: str) -> int:
        if protocol == "ip":
            return self.ip_fields.get(name, 0)
        return self.icmp_fields.get(name, self.request_field(protocol, name))

    def swap_fields(self, protocol_a: str, field_a: str,
                    protocol_b: str, field_b: str) -> None:
        a_value = self.get_field(protocol_a, field_a)
        b_value = self.get_field(protocol_b, field_b)
        self.set_field(protocol_a, field_a, b_value)
        self.set_field(protocol_b, field_b, a_value)

    def request_field(self, protocol: str, name: str) -> int:
        if protocol == "ip":
            return getattr(self.request_ip, name, 0)
        if name in ("identifier", "sequence_number") and self._request_icmp:
            if name == "identifier":
                return self._request_icmp.identifier
            return self._request_icmp.sequence
        if name.endswith("_timestamp") and self._request_timestamp:
            short = name.removesuffix("_timestamp")
            return getattr(self._request_timestamp, short, 0)
        if self._request_icmp is not None:
            return getattr(self._request_icmp, name, 0)
        return 0

    def param(self, name: str) -> int:
        if name == "current_time":
            return self.clock.now_ms()
        return self.params.get(name, 0)

    def clock_ms(self) -> int:
        return self.clock.now_ms()

    def copy_data(self) -> None:
        if self._request_timestamp is not None and len(self.request_ip.data) == 20:
            self.payload = b""  # timestamp messages carry no data
        elif self._request_icmp is not None:
            self.payload = self._request_icmp.payload

    def quote_datagram(self) -> None:
        self.payload = icmp.quoted_datagram(self.request_ip)

    def compute_checksum(self, protocol: str, name: str, start: str = "type") -> None:
        if protocol == "icmp":
            self.checksum_requested = True
            self.checksum_start = start
        # The IP header checksum is recomputed by the IP layer at finish().

    def pad_for_checksum(self) -> None:
        """Odd-length coverage is padded inside the checksum routine."""

    def discard(self, reason: str = "") -> None:
        self.discarded_reason = reason or "discarded"

    # -- finalization ------------------------------------------------------------
    def _is_timestamp_message(self) -> bool:
        return any(name.endswith("_timestamp") for name in self.icmp_fields)

    def build_icmp(self) -> bytes:
        """Assemble the ICMP message bytes from the accumulated fields."""
        if self._is_timestamp_message():
            header = icmp.ICMPTimestampHeader(
                type=self.icmp_fields.get("type", 0),
                code=self.icmp_fields.get("code", 0),
                identifier=self.icmp_fields.get("identifier", 0),
                sequence=self.icmp_fields.get("sequence_number", 0),
                originate=self.icmp_fields.get("originate_timestamp", 0),
                receive=self.icmp_fields.get("receive_timestamp", 0),
                transmit=self.icmp_fields.get("transmit_timestamp", 0),
            )
        else:
            header = icmp.ICMPHeader(
                type=self.icmp_fields.get("type", 0),
                code=self.icmp_fields.get("code", 0),
                payload=self.payload,
            )
            if "identifier" in self.icmp_fields or "sequence_number" in self.icmp_fields:
                header.identifier = self.icmp_fields.get("identifier", 0)
                header.sequence = self.icmp_fields.get("sequence_number", 0)
            elif "gateway_internet_address" in self.icmp_fields:
                header.gateway = self.icmp_fields["gateway_internet_address"]
            elif "pointer" in self.icmp_fields:
                header.pointer = self.icmp_fields["pointer"]
        raw = bytearray(header.pack())
        if self.checksum_requested:
            raw[2:4] = (0).to_bytes(2, "big")
            checksum = internet_checksum(bytes(raw))
            raw[2:4] = checksum.to_bytes(2, "big")
        return bytes(raw)

    def finish(self) -> bytes | None:
        """The complete IP datagram, or None when the code discarded it."""
        if self.discarded_reason is not None:
            return None
        source = self.ip_fields.get("src", self.responder_address)
        # OS egress rule: never emit a source address we do not own.
        if source == self.request_ip.src and source != self.responder_address:
            source = self.responder_address
        packet = make_ip_packet(
            src=source,
            dst=self.ip_fields.get("dst", self.request_ip.src),
            protocol=PROTO_ICMP,
            data=self.build_icmp(),
            ttl=self.ip_fields.get("ttl", 64),
        )
        return packet.pack()


class GeneratedImplementation:
    """Base of the adapter family: generated builders behind a simulator
    interface.

    Construction is uniform across protocols: a dictionary of compiled
    builder functions (from any executable backend) plus the scenario
    substrate (clock, parameters).  Subclasses add the protocol-specific
    surface the simulator calls (`ICMPImplementation` methods, IGMP message
    construction, the BFD receive path, the NTP timeout predicate).
    """

    #: The registered protocol this adapter serves (informational).
    protocol = ""

    def __init__(self, functions: dict[str, object], clock: Clock | None = None,
                 params: dict[str, int] | None = None) -> None:
        self.functions = functions
        self.clock = clock or Clock()
        self.params = params or {}

    @classmethod
    def from_unit(cls, unit, backend: str = "python",
                  clock: Clock | None = None,
                  params: dict[str, int] | None = None, cache=True,
                  **kwargs):
        """Build from an IR Program via any executable backend, cached."""
        return cls(compile_unit(unit, backend=backend, cache=cache),
                   clock=clock, params=params, **kwargs)

    @classmethod
    def from_artifact(cls, artifact, backend: str | None = None, **kwargs):
        """Build from a serialized :class:`~repro.api.contracts.
        GeneratedArtifact` (the object, or its JSON envelope text).

        The artifact's embedded IR is rebuilt with its content SHA-1
        verified (:class:`~repro.codegen.ir.FingerprintMismatch` on drift),
        then compiled under ``backend`` — default: the artifact's own
        backend when executable, else "python".  This is the consume side
        of the service layer's artifact endpoint: a payload fetched from a
        remote ``SageService`` drops straight onto the simulator.
        """
        from ..codegen.backends import get_backend

        if isinstance(artifact, str):
            from ..api.contracts import from_json

            artifact = from_json(artifact)
        program = artifact.to_program()
        if backend is None:
            backend = artifact.backend
            if not get_backend(backend).executable:
                backend = "python"
        return cls.from_unit(program, backend=backend, **kwargs)

    def builder(self, name: str):
        """The compiled builder function called ``name``, or None."""
        return self.functions.get(name)


class GeneratedICMP(GeneratedImplementation, ICMPImplementation):
    """Adapter: generated builder functions behind the simulator interface.

    Incoming-request validation (checksum verification, type dispatch) is
    kernel behaviour provided by the framework, mirroring the paper's static
    framework; the *construction* of every reply is the generated code.
    """

    protocol = "ICMP"

    # -- plumbing ------------------------------------------------------------
    def _run(self, function_name: str, request: IPv4Header,
             responder_address: int, **params: int) -> bytes | None:
        function = self.builder(function_name)
        if function is None:
            return None
        merged = dict(self.params)
        merged.update(params)
        context = ExecutionContext(
            request_ip=request,
            responder_address=responder_address,
            params=merged,
            clock=self.clock,
        )
        result = function(context)
        return result.finish() if result is not None else None

    @staticmethod
    def _validated(request: IPv4Header, expected_type: int) -> bool:
        try:
            message = icmp.ICMPHeader.unpack(request.data)
        except ValueError:
            return False
        return message.type == expected_type and message.checksum_ok()

    # -- ICMPImplementation interface ---------------------------------------
    def echo_reply(self, request: IPv4Header, responder_address: int) -> bytes | None:
        if not self._validated(request, icmp.ECHO):
            return None
        return self._run("icmp_echo_reply_receiver", request, responder_address)

    def destination_unreachable(self, original: IPv4Header, code: int,
                                responder_address: int) -> bytes | None:
        return self._run(
            "icmp_destination_unreachable_receiver", original,
            responder_address, code=code,
        )

    def time_exceeded(self, original: IPv4Header, responder_address: int) -> bytes | None:
        return self._run(
            "icmp_time_exceeded_receiver", original, responder_address, code=0
        )

    def parameter_problem(self, original: IPv4Header, pointer: int,
                          responder_address: int) -> bytes | None:
        return self._run(
            "icmp_parameter_problem_receiver", original, responder_address,
            error_octet=pointer,
        )

    def source_quench(self, original: IPv4Header, responder_address: int) -> bytes | None:
        return self._run("icmp_source_quench_receiver", original, responder_address)

    def redirect(self, original: IPv4Header, gateway: int,
                 responder_address: int) -> bytes | None:
        return self._run(
            "icmp_redirect_receiver", original, responder_address,
            gateway_address=gateway, code=1,
        )

    def timestamp_reply(self, request: IPv4Header, responder_address: int) -> bytes | None:
        try:
            message = icmp.ICMPTimestampHeader.unpack(request.data)
        except ValueError:
            return None
        if message.type != icmp.TIMESTAMP or not message.checksum_ok():
            return None
        return self._run("icmp_timestamp_reply_receiver", request, responder_address)

    def info_reply(self, request: IPv4Header, responder_address: int) -> bytes | None:
        if not self._validated(request, icmp.INFO_REQUEST):
            return None
        return self._run("icmp_information_reply_receiver", request, responder_address)


@dataclass
class IGMPExecutionContext:
    """The ``ctx`` object generated IGMP builders operate on (§6.3).

    IGMP builders only construct messages (there is no request being
    replied to), so the context is a field accumulator plus the @Send
    routing record — the adapter reads ``sends`` to learn where the
    generated code wants the message addressed ("queries are sent to the
    all-hosts group").
    """

    params: dict[str, int] = dataclass_field(default_factory=dict)
    fields: dict[str, int] = dataclass_field(default_factory=dict)
    sends: list[tuple[str, str]] = dataclass_field(default_factory=list)
    checksum_requested: bool = False
    discarded_reason: str | None = None

    # -- ops API ---------------------------------------------------------------
    def set_field(self, protocol: str, name: str, value: int) -> None:
        self.fields[name] = value

    def get_field(self, protocol: str, name: str) -> int:
        return self.fields.get(name, 0)

    def param(self, name: str) -> int:
        return self.params.get(name, 0)

    def send(self, message: str, destination: str = "") -> None:
        self.sends.append((message, destination))

    def compute_checksum(self, protocol: str, name: str, start: str = "type") -> None:
        self.checksum_requested = True

    def pad_for_checksum(self) -> None:
        """Odd-length coverage is padded inside the checksum routine."""

    def discard(self, reason: str = "") -> None:
        self.discarded_reason = reason or "discarded"

    # -- finalization ----------------------------------------------------------
    def build_igmp(self) -> IGMPHeader:
        """The assembled message; the checksum is finalized by the framework
        codec (the kernel-egress rule, as with the IP checksum for ICMP)."""
        return IGMPHeader(
            version=self.fields.get("version", 1),
            type=self.fields.get("type", 0),
            unused=self.fields.get("unused", 0),
            group_address=self.fields.get("group_address", 0),
        ).finalize()

    def sent_to_all_hosts(self) -> bool:
        """Did the generated code route a send to the all-hosts group?"""
        return any(destination == "all_hosts_group"
                   for _message, destination in self.sends)


class GeneratedIGMP(GeneratedImplementation):
    """Adapter: generated IGMP builders construct query/report datagrams.

    The §6.3 experiment: "our generated code sends a host membership query
    to a commodity switch".  ``query_datagram`` runs the generated query
    builder and wraps the result in IP addressed per the builder's own
    @Send routing (the all-hosts group), TTL 1 as RFC 1112 requires.
    """

    protocol = "IGMP"
    QUERY_BUILDER = "igmp_host_membership_query_receiver"
    REPORT_BUILDER = "igmp_host_membership_report_receiver"

    def _build(self, function_name: str,
               **params: int) -> IGMPExecutionContext | None:
        function = self.builder(function_name)
        if function is None:
            return None
        merged = dict(self.params)
        merged.update(params)
        context = IGMPExecutionContext(params=merged)
        result = function(context)
        return result if result is not None else context

    def membership_query(self) -> IGMPHeader | None:
        context = self._build(self.QUERY_BUILDER, group_address=0)
        return context.build_igmp() if context is not None else None

    def membership_report(self, group_address: int) -> IGMPHeader | None:
        context = self._build(self.REPORT_BUILDER, group_address=group_address)
        return context.build_igmp() if context is not None else None

    def query_datagram(self, source_address: int,
                       destination: int | None = None) -> bytes | None:
        """A complete IP datagram carrying the generated query."""
        context = self._build(self.QUERY_BUILDER, group_address=0)
        if context is None:
            return None
        if destination is None:
            # The generated @Send op names the destination group.
            destination = ALL_HOSTS_GROUP if context.sent_to_all_hosts() else 0
        return make_ip_packet(
            src=source_address, dst=destination, protocol=PROTO_IGMP,
            data=context.build_igmp().pack(), ttl=1,
        ).pack()

    def report_datagram(self, source_address: int, group_address: int) -> bytes | None:
        """A complete IP datagram carrying a generated report (reports are
        addressed to the group being reported, TTL 1)."""
        context = self._build(self.REPORT_BUILDER, group_address=group_address)
        if context is None:
            return None
        return make_ip_packet(
            src=source_address, dst=group_address, protocol=PROTO_IGMP,
            data=context.build_igmp().pack(), ttl=1,
        ).pack()


def generated_implementation(protocol: str, unit, backend: str = "python",
                             **kwargs) -> GeneratedImplementation:
    """The family factory: the right adapter for ``protocol``, compiled from
    an IR program through the shared cache."""
    from .state_runtime import GeneratedBFD, GeneratedNTP

    adapters: dict[str, type[GeneratedImplementation]] = {
        "ICMP": GeneratedICMP,
        "IGMP": GeneratedIGMP,
        "NTP": GeneratedNTP,
        "BFD": GeneratedBFD,
    }
    try:
        adapter = adapters[protocol.upper()]
    except KeyError:
        raise KeyError(
            f"no generated-implementation adapter for protocol {protocol!r}: "
            f"known adapters are {', '.join(sorted(adapters))}"
        ) from None
    return adapter.from_unit(unit, backend=backend, **kwargs)
