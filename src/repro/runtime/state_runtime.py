"""Runtime for generated state-management code (BFD §6.8.6, NTP Table 11).

The BFD context executes generated reception code against real
:class:`~repro.framework.bfd.BFDStateVariables` and a received control
packet; the NTP context drives the Table 11 timeout dispatch against peer
variables.  Both let generated code replace the hand-written reference
transition functions, transition-for-transition.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from ..framework.bfd import STATE_NAMES, BFDControlHeader, BFDStateVariables
from ..framework.ntp import PeerVariables
from .harness import GeneratedImplementation


class StateValue(int):
    """An integer state value that also compares equal to its RFC name.

    Generated code mixes representations ("``== 'admindown'``" from prose,
    numeric assignments from value resolution); this type makes both work.
    """

    def __new__(cls, value: int, name: str = ""):
        instance = super().__new__(cls, value)
        instance._name = name.lower()
        return instance

    def __eq__(self, other):
        if isinstance(other, str):
            return self._name == other.lower()
        return int(self) == int(other)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return int.__hash__(self)


@dataclass
class BFDExecutionContext:
    """``ctx`` for generated BFD reception code."""

    state: BFDStateVariables
    packet: BFDControlHeader
    session_exists: bool = True
    discarded_reason: str | None = None
    transmission_ceased: bool = False
    session_selected: bool = False

    _STATEVAR_ATTRS = {
        "bfd.sessionstate": "SessionState",
        "bfd.remotestate": "RemoteSessionState",
        "bfd.remotesessionstate": "RemoteSessionState",
        "bfd.localdiscr": "LocalDiscr",
        "bfd.remotediscr": "RemoteDiscr",
        "bfd.localdiag": "LocalDiag",
        "bfd.remotedemandmode": "RemoteDemandMode",
        "bfd.demandmode": "DemandMode",
        "bfd.remoteminrxinterval": "RemoteMinRxInterval",
        "bfd.detectmult": "DetectMult",
        "bfd.authtype": "AuthType",
    }

    _STATE_VARS = {"bfd.sessionstate", "bfd.remotestate", "bfd.remotesessionstate"}

    def packet_field(self, name: str):
        value = getattr(self.packet, name, 0)
        if name == "state":
            return StateValue(value, STATE_NAMES.get(value, ""))
        return value

    def state_get(self, name: str):
        attr = self._STATEVAR_ATTRS.get(name.lower())
        if attr is None:
            return 0
        value = getattr(self.state, attr)
        if name.lower() in self._STATE_VARS:
            return StateValue(value, STATE_NAMES.get(value, ""))
        return value

    def state_set(self, name: str, value) -> None:
        attr = self._STATEVAR_ATTRS.get(name.lower())
        if attr is not None:
            setattr(self.state, attr, int(value))

    def select_session(self) -> None:
        self.session_selected = True

    def session_found(self) -> bool:
        return self.session_exists

    def discard(self, reason: str = "") -> None:
        self.discarded_reason = reason or "discarded"

    def cease_transmission(self) -> None:
        self.transmission_ceased = True

    def send(self, message: str, destination: str = "") -> None:
        self.transmission_ceased = False


class GeneratedBFD(GeneratedImplementation):
    """Run generated reception code as a BFD session's receive path."""

    protocol = "BFD"
    RECEPTION_BUILDER = "bfd_reception_of_bfd_control_packets_receiver"

    def __init__(self, functions: dict[str, object],
                 function_name: str = RECEPTION_BUILDER,
                 clock=None, params=None):
        super().__init__(functions, clock=clock, params=params)
        self.function = functions[function_name]

    def receive_control(self, state: BFDStateVariables, packet: BFDControlHeader,
                        session_exists: bool = True) -> BFDExecutionContext:
        context = BFDExecutionContext(
            state=state, packet=packet, session_exists=session_exists
        )
        self.function(context)
        return context


@dataclass
class NTPExecutionContext:
    """``ctx`` for the generated NTP timeout dispatch (Table 11).

    With ``execute=False`` the context only *records* the dispatch decision
    (``procedures_called``) without running procedures against the peer —
    the decision-only mode :class:`GeneratedNTP` uses as a netsim timeout
    predicate, where the peer driver itself performs the procedure.
    """

    peer: PeerVariables
    procedures_called: list[str] = dataclass_field(default_factory=list)
    execute: bool = True

    def variable(self, name: str) -> int:
        mapping = {
            "peer_timer": self.peer.timer,
            "timer_threshold_variable": self.peer.threshold,
            "timer_threshold": self.peer.threshold,
            "peer_timer_threshold": self.peer.threshold,
        }
        return mapping.get(name, 0)

    def mode_in(self, modes: tuple[str, ...]) -> bool:
        # RFC 1059 clarifies the "client mode and symmetric mode"
        # conjunction is an OR over association modes.
        checks = {
            "client_mode": self.peer.in_client_mode(),
            "symmetric_mode": self.peer.in_symmetric_mode(),
        }
        return any(checks.get(mode, False) for mode in modes)

    def call_procedure(self, name: str) -> None:
        self.procedures_called.append(name)
        if self.execute and name == "timeout_procedure":
            self.peer.timeout_procedure()


class GeneratedNTP(GeneratedImplementation):
    """Adapter: the generated Table 11 dispatch as an NTP peer's timeout
    policy.

    ``timeout_predicate`` has the :class:`~repro.netsim.ntp_peer.NTPPeer`
    predicate contract — the generated code *decides* (decision-only
    context), the peer driver performs the timeout procedure and the
    NTP-in-UDP encapsulation, so the procedure never double-fires.
    """

    protocol = "NTP"
    DISPATCH_BUILDER = "ntp_peer_variables_and_timeout_receiver"

    def timeout_predicate(self, peer: PeerVariables) -> bool:
        function = self.builder(self.DISPATCH_BUILDER)
        if function is None:
            return False
        context = NTPExecutionContext(peer=peer, execute=False)
        function(context)
        return "timeout_procedure" in context.procedures_called

    def run(self, peer: PeerVariables) -> NTPExecutionContext:
        """The dispatch with procedures executed (the historical surface)."""
        function = self.builder(self.DISPATCH_BUILDER)
        if function is None:
            raise KeyError(
                f"compiled unit has no {self.DISPATCH_BUILDER!r} builder"
            )
        context = NTPExecutionContext(peer=peer)
        function(context)
        return context
