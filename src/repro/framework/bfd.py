"""BFD control-packet codec and state variables (RFC 5880 §4.1 and §6.8.1).

The paper parses RFC 5880's packet header (§4.1) and the reception-of-control-
packet state-management sentences (§6.8.6).  This module supplies the wire
format plus the ``bfd.*`` state variables those sentences read and write;
`repro.netsim.bfd_session` runs the resulting state machine between nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .packet import FieldSpec, Header

# Session states (RFC 5880 §4.1: the State (Sta) field).
STATE_ADMIN_DOWN = 0
STATE_DOWN = 1
STATE_INIT = 2
STATE_UP = 3

STATE_NAMES = {
    STATE_ADMIN_DOWN: "AdminDown",
    STATE_DOWN: "Down",
    STATE_INIT: "Init",
    STATE_UP: "Up",
}

# Diagnostic codes (subset).
DIAG_NONE = 0
DIAG_TIME_EXPIRED = 1
DIAG_ECHO_FAILED = 2
DIAG_NEIGHBOR_DOWN = 3


class BFDControlHeader(Header):
    """Mandatory section of a BFD control packet (RFC 5880 §4.1)."""

    FIELDS = (
        FieldSpec("version", 3, default=1),
        FieldSpec("diag", 5),
        FieldSpec("state", 2),
        FieldSpec("poll", 1),
        FieldSpec("final", 1),
        FieldSpec("control_plane_independent", 1),
        FieldSpec("authentication_present", 1),
        FieldSpec("demand", 1),
        FieldSpec("multipoint", 1),
        FieldSpec("detect_mult", 8, default=3),
        FieldSpec("length", 8, default=24),
        FieldSpec("my_discriminator", 32),
        FieldSpec("your_discriminator", 32),
        FieldSpec("desired_min_tx_interval", 32),
        FieldSpec("required_min_rx_interval", 32),
        FieldSpec("required_min_echo_rx_interval", 32),
    )

    def state_name(self) -> str:
        return STATE_NAMES.get(self.state, f"state {self.state}")


@dataclass
class BFDStateVariables:
    """The ``bfd.*`` state variables of RFC 5880 §6.8.1.

    Attribute names keep the RFC's camel-case so the static context can map
    the noun phrases in §6.8.6 (e.g. "bfd.RemoteDiscr") straight onto them.
    """

    SessionState: int = STATE_DOWN
    RemoteSessionState: int = STATE_DOWN
    LocalDiscr: int = 0
    RemoteDiscr: int = 0
    LocalDiag: int = DIAG_NONE
    DesiredMinTxInterval: int = 1_000_000
    RequiredMinRxInterval: int = 1_000_000
    RemoteMinRxInterval: int = 1
    DemandMode: int = 0
    RemoteDemandMode: int = 0
    DetectMult: int = 3
    AuthType: int = 0

    def snapshot(self) -> dict[str, int]:
        """The current variable values (used by tests to diff transitions)."""
        return dict(self.__dict__)


def make_control_packet(state: BFDStateVariables, poll: bool = False,
                        final: bool = False) -> BFDControlHeader:
    """Build a control packet from the session's state variables.

    RFC 5880 §6.8.7 specifies the mandatory-section contents in terms of the
    state variables; this is the reference transmit path.
    """
    return BFDControlHeader(
        diag=state.LocalDiag,
        state=state.SessionState,
        poll=int(poll),
        final=int(final),
        demand=state.DemandMode,
        detect_mult=state.DetectMult,
        my_discriminator=state.LocalDiscr,
        your_discriminator=state.RemoteDiscr,
        desired_min_tx_interval=state.DesiredMinTxInterval,
        required_min_rx_interval=state.RequiredMinRxInterval,
    )
