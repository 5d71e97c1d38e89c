"""Dynamic and static context for code generation (§5.2, Table 4).

A logical form alone cannot become code: ``@Is('type', '3')`` needs to know
*whose* type field.  SAGE builds a **dynamic context** per sentence from the
document structure (protocol, message section, field block) and keeps a
pre-defined **static context** mapping lower-layer terms ("source address" →
the IP header's source field, "one's complement sum" → a framework
function).  Resolution searches the dynamic context first, then the static
context (paper: "During code generation, sage first searches the dynamic
context, then the static context").

Unqualified terms that could denote several targets ("checksum" outside a
checksum field block — IP or ICMP checksum?; "type code" — the type field or
the code field?) resolve to an :class:`AmbiguousReference`; the pipeline
surfaces these as sentences requiring a human rewrite, the §2.2 observation
that code generation itself "may also uncover ambiguity".
"""

from __future__ import annotations

from dataclasses import dataclass, field


class ResolutionError(Exception):
    """Base class for context-resolution failures."""


class AmbiguousReference(ResolutionError):
    """A term with more than one plausible target and no qualifier."""

    def __init__(self, term: str, candidates: list["Target"]):
        self.term = term
        self.candidates = candidates
        rendered = ", ".join(str(candidate) for candidate in candidates)
        super().__init__(f"ambiguous reference {term!r}: could be {rendered}")


class UnknownReference(ResolutionError):
    """A term with no known target (routes the sentence to non-actionable)."""

    def __init__(self, term: str):
        self.term = term
        super().__init__(f"no target known for term {term!r}")


@dataclass(frozen=True)
class Target:
    """What a term denotes: a header field, a function, or a runtime value.

    ``kind`` is one of ``field`` (protocol, name), ``function`` (framework
    callable), ``param`` (a value the runtime scenario supplies), ``range``
    (a checksum coverage range), or ``object`` (a whole message/packet).
    """

    kind: str
    protocol: str = ""
    name: str = ""

    def __str__(self) -> str:
        if self.kind == "field":
            return f"{self.protocol}.{self.name}"
        return f"{self.kind}:{self.name}"


def field_target(protocol: str, name: str) -> Target:
    return Target(kind="field", protocol=protocol, name=name)


def function_target(name: str) -> Target:
    return Target(kind="function", name=name)


def param_target(name: str) -> Target:
    return Target(kind="param", name=name)


def object_target(name: str) -> Target:
    return Target(kind="object", name=name)


@dataclass
class SentenceContext:
    """The Table 4 context dictionary for one sentence."""

    protocol: str = "ICMP"
    message: str = ""
    field: str = ""
    role: str = ""  # "sender" | "receiver" | ""


# Pronouns and generic nouns that refer back to the current message/field.
_SELF_REFERENCES = {"it", "they", "them", "this", "these", "message",
                    "the_message", "reply", "packet"}


class StaticContext:
    """The pre-defined term → target table plus ambiguity markings."""

    def __init__(self) -> None:
        self._targets: dict[str, Target] = {}
        self._ambiguous: dict[str, list[Target]] = {}
        self._install_defaults()

    def register(self, term: str, target: Target) -> None:
        self._targets[term] = target

    def register_ambiguous(self, term: str, candidates: list[Target]) -> None:
        self._ambiguous[term] = candidates

    def lookup(self, term: str) -> Target:
        if term in self._ambiguous:
            raise AmbiguousReference(term, self._ambiguous[term])
        if term in self._targets:
            return self._targets[term]
        raise UnknownReference(term)

    def known(self, term: str) -> bool:
        return term in self._targets or term in self._ambiguous

    # -- defaults ------------------------------------------------------------
    def _install_defaults(self) -> None:
        # Qualified IP-layer fields (what the rewrites use).
        self.register("ip_source_address", field_target("ip", "src"))
        self.register("ip_destination_address", field_target("ip", "dst"))
        self.register("source_address", field_target("ip", "src"))
        self.register("destination_address", field_target("ip", "dst"))
        self.register("time_to_live", field_target("ip", "ttl"))
        self.register("time_to_live_field", field_target("ip", "ttl"))
        self.register("total_length", field_target("ip", "total_length"))
        self.register("type_of_service", field_target("ip", "tos"))
        self.register("ip_checksum", field_target("ip", "header_checksum"))
        self.register("ip_header_checksum", field_target("ip", "header_checksum"))

        # Qualified ICMP fields.
        for name in ("type", "code", "checksum", "identifier",
                     "sequence_number", "pointer"):
            self.register(f"icmp_{name}", field_target("icmp", name))
        self.register("icmp_type_field", field_target("icmp", "type"))
        self.register("icmp_code_field", field_target("icmp", "code"))
        self.register("icmp_checksum_field", field_target("icmp", "checksum"))
        self.register("gateway_internet_address",
                      field_target("icmp", "gateway_internet_address"))

        # Framework functions (the "one's complement sum" → function map).
        self.register("ones_complement_sum", function_target("ones_complement_sum"))
        self.register("one's complement sum", function_target("ones_complement_sum"))
        self.register("16_bit_ones_complement", function_target("internet_checksum"))
        self.register("ones_complement", function_target("internet_checksum"))

        # Runtime-scenario parameters.
        self.register("current_time", param_target("current_time"))
        self.register("value", param_target("chosen_value"))
        self.register("any_value", param_target("chosen_value"))
        self.register("chosen_value", param_target("chosen_value"))
        self.register("octet", param_target("error_octet"))
        self.register("redirect_gateway_address", param_target("gateway_address"))
        self.register("gateway_address", param_target("gateway_address"))

        # IGMP / NTP / UDP targets for the generality experiments (§6.3).
        self.register("group_address", field_target("igmp", "group_address"))
        self.register("group_address_field", field_target("igmp", "group_address"))
        self.register("host_group_address", param_target("group_address"))
        self.register("all_hosts_group", param_target("all_hosts_group"))
        self.register("source_port", field_target("udp", "src_port"))
        self.register("destination_port", field_target("udp", "dst_port"))
        self.register("igmp_checksum", field_target("igmp", "checksum"))

        # Whole-message objects.
        self.register("icmp_message", object_target("icmp_message"))
        self.register("original_datagram", object_target("original_datagram"))
        self.register("original_datagrams_data", object_target("original_datagram"))
        self.register("original_data_datagram", object_target("original_datagram"))
        self.register("internet_header", object_target("internet_header"))
        self.register("first_64_bits", object_target("first_64_bits"))
        self.register("data", object_target("data"))
        self.register("request", object_target("request"))
        self.register("echo_message", object_target("request"))
        self.register("timestamp_message", object_target("request"))
        self.register("request_message", object_target("request"))
        self.register("echo_reply_message", object_target("reply"))
        self.register("timestamp_reply_message", object_target("reply"))
        self.register("information_reply_message", object_target("reply"))
        self.register("reply", object_target("reply"))
        self.register("source_network", object_target("source_network"))
        self.register("address", object_target("address"))

        # The famously confusing unqualified terms (§4.1 sentence G): these
        # are ambiguous by construction; only a qualified rewrite resolves
        # them.
        self.register_ambiguous(
            "checksum",
            [field_target("icmp", "checksum"), field_target("ip", "header_checksum")],
        )
        self.register_ambiguous(
            "checksum_field",
            [field_target("icmp", "checksum"), field_target("ip", "header_checksum")],
        )
        self.register_ambiguous(
            "type_code",
            [field_target("icmp", "type"), field_target("icmp", "code")],
        )
        self.register_ambiguous(
            "source",
            [field_target("ip", "src"), object_target("original_datagram")],
        )
        self.register_ambiguous(
            "destination",
            [field_target("ip", "dst"), object_target("original_datagram")],
        )
        self.register_ambiguous(
            "destination_addresses",
            [field_target("ip", "dst"), object_target("original_datagram")],
        )
        self.register_ambiguous(
            "source_and_destination_addresses",
            [field_target("ip", "src"), field_target("ip", "dst"),
             object_target("original_datagram")],
        )


# Field terms that appear inside a field block and denote that block's field.
_FIELD_SYNONYMS = {
    "identifier": "identifier",
    "identifier_field": "identifier",
    "sequence_number": "sequence_number",
    "sequence_number_field": "sequence_number",
    "pointer": "pointer",
    "pointer_field": "pointer",
    "checksum": "checksum",
    "checksum_field": "checksum",
    "type": "type",
    "type_field": "type",
    "code": "code",
    "code_field": "code",
    "unused": "unused",
    "unused_field": "unused",
    "gateway_internet_address": "gateway_internet_address",
    "originate_timestamp": "originate_timestamp",
    "receive_timestamp": "receive_timestamp",
    "transmit_timestamp": "transmit_timestamp",
    "internet_header": "internet_header",
    "destination_address": "destination_address",
    "addresses": "addresses",
}


class ContextResolver:
    """Resolves LF constants using dynamic context first, then static."""

    def __init__(self, static: StaticContext | None = None) -> None:
        self.static = static or StaticContext()

    def resolve(self, term: str, context: SentenceContext) -> Target:
        """Resolve a term to a target.

        Dynamic resolution: inside a field block, the block's own field (and
        recognizable field names of the current protocol) resolve without
        consulting the static table — this is how "checksum" is unambiguous
        inside the Checksum block but ambiguous in sentence G.
        """
        protocol = context.protocol.lower()
        if context.field:
            if term in (context.field, f"{context.field}_field"):
                return field_target(protocol, context.field)
            if term in _FIELD_SYNONYMS and _FIELD_SYNONYMS[term] == context.field:
                return field_target(protocol, context.field)
        if term in _SELF_REFERENCES:
            return object_target("current_message")
        if term in _FIELD_SYNONYMS and self._is_local_field(term, context):
            return field_target(protocol, _FIELD_SYNONYMS[term])
        return self.static.lookup(term)

    @staticmethod
    def _is_local_field(term: str, context: SentenceContext) -> bool:
        """Inside a message section, bare unambiguous field names like
        "identifier", "code", or "pointer" denote that message's own fields.
        "checksum" is excluded: outside its own field block it is the §4.1
        IP-vs-ICMP ambiguity (sentence G) and must resolve via the static
        table's ambiguity marking."""
        if not context.message:
            return False
        return term not in ("checksum", "checksum_field")

    def resolve_value(self, term: str) -> int | None:
        """A numeric constant, or None when the term is not a number."""
        try:
            return int(term)
        except ValueError:
            return None
