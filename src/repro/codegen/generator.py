"""Code assembly: sentence snippets → per-message builder functions (§5.2).

The generator concatenates each sentence's ops "into a packet handling
function", one per (message, role), named from the context dictionaries
("sage uses the context to generate unique names for the function, based on
the protocol, the message type, and the role").  The assembly itself — op
filtering by goal/role, the reordering passes implementing the paper's
discussion of code order, and validation — lives in the typed IR
(:mod:`repro.codegen.ir`); this module keeps
:func:`assemble_message_program`, the :class:`CodeUnit` name and the role
policy.  The IR's two reordering passes:

* **advice** — ops tagged ``advice_before`` are moved immediately before the
  first op of the advised function (@AdvBefore, the checksum-zeroing case);
* **finalization** — checksum computations sort to the end of the function:
  the RFC lists the Checksum field before Identifier/Sequence/Data, but the
  checksum covers them, so it must be computed after they are filled.
"""

from __future__ import annotations

from .ir import (
    Function,
    Program,
    SentenceCode,
    build_function,
    function_name,
)

# The IR's Program is the object the pre-IR generator called CodeUnit; the
# name stays because it is the wire kind's name (``code_unit``).
CodeUnit = Program

# Which side of the exchange constructs each ICMP message.  This is the
# bundled-ICMP *fallback*: protocol-correct sender-built sets live in the
# protocol registry's metadata (``ProtocolRegistry.sender_built``) and are
# passed to :func:`builder_role` explicitly by the engine.
_SENDER_BUILT = frozenset({"echo", "timestamp", "information request"})


def builder_role(message_name: str,
                 sender_built: frozenset[str] | None = None) -> str:
    """"echo" is built by the probing sender; everything else by the
    responding node (replies and error messages).

    ``sender_built`` is the per-protocol message set from the registry's
    metadata; without one the bundled ICMP set applies.
    """
    built_by_sender = _SENDER_BUILT if sender_built is None else sender_built
    return "sender" if message_name in built_by_sender else "receiver"


def assemble_message_program(
    protocol: str,
    message_name: str,
    sentence_codes: list[SentenceCode],
    type_value: int | None = None,
    code_value: int | None = None,
    sender_built: frozenset[str] | None = None,
) -> Function:
    """Assemble one message's builder from its sentences plus the structural
    value bindings (the "0 = Echo Reply" idiom and bare field values)."""
    return build_function(
        protocol=protocol,
        message_name=message_name,
        role=builder_role(message_name, sender_built),
        sentence_codes=sentence_codes,
        type_value=type_value,
        code_value=code_value,
    )
