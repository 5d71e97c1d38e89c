"""Predicate handler functions: logical forms → operations (§5.2).

The paper: "we defined 25 predicate handler functions to convert LFs to code
snippets" and "sage generates code for a logical form using a post-order
traversal".  Each handler covers one predicate (or one @Action function) and
may recurse into sub-forms.  Failures split two ways:

* :class:`NonActionable` — no handler / unknown term: the sentence carries
  no executable content and is tagged ``@AdvComment`` (iterative discovery,
  §5.2);
* :class:`~repro.codegen.context.AmbiguousReference` — a term with several
  plausible targets: the sentence needs a human rewrite (§2.2: code
  generation "may also uncover ambiguity").
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from ..ccg.semantics import Call, Const, Sem
from ..lf.predicates import CLAUSE, ConstantClasses
from .context import (
    AmbiguousReference,
    ContextResolver,
    SentenceContext,
    Target,
    UnknownReference,
)
from .ops import (
    CallProcedure,
    CeaseTransmission,
    ComputeChecksum,
    Condition,
    Conditional,
    CopyData,
    Discard,
    Encapsulate,
    Op,
    PadData,
    QuoteDatagram,
    SelectSession,
    Send,
    SetField,
    SetStateVar,
    SwapFields,
    Value,
)


class NonActionable(Exception):
    """The sentence does not describe executable behaviour."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


@dataclass
class HandlerResult:
    """Ops plus routing metadata accumulated during traversal."""

    ops: list[Op] = dataclass_field(default_factory=list)
    goal_message: str = ""  # from @Goal: route ops to this message's builder


class HandlerRegistry:
    """Dispatch table from predicate (and @Action function) to handler."""

    def __init__(self, resolver: ContextResolver | None = None) -> None:
        self.resolver = resolver or ContextResolver()
        self._classes = ConstantClasses()
        # Unbound functions, called with ``self``: bound methods would
        # make every registry a reference cycle, which a cold batch's
        # freeze pins once its engine is dropped (DESIGN.md §10.5).
        cls = type(self)
        self._predicate_handlers = {
            "Is": cls._handle_is,
            "May": cls._handle_may,
            "If": cls._handle_if,
            "And": cls._handle_and,
            "Action": cls._handle_action,
            "AdvBefore": cls._handle_adv_before,
            "Goal": cls._handle_goal,
            "Reach": cls._handle_condition_only,
            "CalledIn": cls._handle_called_in,
            "EncapsulatedIn": cls._handle_encapsulated_in,
            "Not": cls._handle_condition_only,
            "ActiveOn": cls._handle_nonactionable,
            "Where": cls._handle_nonactionable,
        }
        self._action_handlers = {
            "reverse": cls._action_reverse,
            "recompute": cls._action_compute,
            "compute": cls._action_compute,
            "return": cls._action_return,
            "zero": cls._action_zero,
            "pad": cls._action_pad,
            "discard": cls._action_discard,
            "send": cls._action_send,
            "select": cls._action_select,
            "cease": cls._action_cease,
        }

    def handler_count(self) -> int:
        """The §6.1 accounting: number of registered handler functions."""
        return len(self._predicate_handlers) + len(self._action_handlers)

    # -- entry point ----------------------------------------------------------
    def generate(self, form: Sem, context: SentenceContext) -> HandlerResult:
        if not isinstance(form, Call):
            # A bare NP fragment (field description): "<field> is <expr>".
            if isinstance(form, Const):
                return self._field_fragment(form, context)
            raise NonActionable("logical form is not a predicate application")
        if (
            form.pred in ("Of", "And", "From", "In", "With")
            and context.field
            and self._classes.class_of(form) != CLAUSE
        ):
            return self._field_fragment(form, context)
        handler = self._predicate_handlers.get(form.pred)
        if handler is None:
            raise NonActionable(f"no handler for predicate @{form.pred}")
        return handler(self, form, context)

    # -- fragments ---------------------------------------------------------------
    def _field_fragment(self, form: Sem, context: SentenceContext) -> HandlerResult:
        """A subject-less field description: treat as field := expression."""
        if self.resolver.static.known(context.field):
            target = self.resolver.static.lookup(context.field)
        else:
            target = Target(kind="field", protocol=context.protocol.lower(),
                            name=context.field)
        ops = self._assign(target, form, context, optional=False)
        return HandlerResult(ops=ops)

    # -- statement handlers ---------------------------------------------------
    def _handle_is(self, call: Call, context: SentenceContext,
                   optional: bool = False) -> HandlerResult:
        target = self._resolve_target(call.args[0], context)
        ops = self._assign(target, call.args[1], context, optional=optional)
        return HandlerResult(ops=ops)

    def _handle_may(self, call: Call, context: SentenceContext) -> HandlerResult:
        inner = call.args[0]
        if isinstance(inner, Call) and inner.pred == "Is":
            # The naive reading of "may be zero": emit the assignment.  The
            # §6.5 under-specification surfaces when unit tests run this on
            # the receiver side.
            return self._handle_is(inner, context, optional=True)
        if isinstance(inner, Call):
            return self.generate(inner, context)
        raise NonActionable("modal clause with no executable body")

    def _handle_if(self, call: Call, context: SentenceContext) -> HandlerResult:
        body = self.generate(call.args[1], context)
        ops = body.ops
        # Conjunctive conditions ("If A, B, and C, ...") nest inside-out.
        for condition_form in reversed(self._condition_list(call.args[0], context)):
            ops = [Conditional(condition=condition_form, body=ops)]
        return HandlerResult(ops=ops, goal_message=body.goal_message)

    def _condition_list(self, form: Sem, context: SentenceContext) -> list[Condition]:
        if isinstance(form, Call) and form.pred == "And":
            conditions: list[Condition] = []
            for arg in form.args:
                conditions.extend(self._condition_list(arg, context))
            return conditions
        return [self._condition(form, context)]

    def _handle_and(self, call: Call, context: SentenceContext) -> HandlerResult:
        result = HandlerResult()
        for arg in call.args:
            if not isinstance(arg, Call):
                raise NonActionable("coordinated non-clause at statement level")
            sub = self.generate(arg, context)
            result.ops.extend(sub.ops)
            result.goal_message = result.goal_message or sub.goal_message
        return result

    def _handle_adv_before(self, call: Call, context: SentenceContext) -> HandlerResult:
        """Advice: main-clause ops must precede the advised function."""
        advice, main = call.args[0], call.args[1]
        advised_function = self._advised_function(advice, context)
        result = self.generate(main, context)
        for op in result.ops:
            op.advice_before = advised_function
        return result

    def _advised_function(self, advice: Sem, context: SentenceContext) -> str:
        if isinstance(advice, Call) and advice.pred == "Action":
            name = advice.args[0]
            if isinstance(name, Const) and name.value in ("compute", "recompute"):
                return "compute_checksum"
            if isinstance(name, Const):
                return name.value
        raise NonActionable("advice does not name a known function")

    def _handle_goal(self, call: Call, context: SentenceContext) -> HandlerResult:
        goal, body = call.args[0], call.args[1]
        message = ""
        if isinstance(goal, Call) and goal.pred == "Action":
            if len(goal.args) >= 2 and isinstance(goal.args[1], Const):
                message = goal.args[1].value
        result = self.generate(body, context)
        result.goal_message = message
        return result

    def _handle_called_in(self, call: Call, context: SentenceContext) -> HandlerResult:
        procedure, modes_form = call.args[0], call.args[1]
        if not isinstance(procedure, Const):
            raise NonActionable("procedure reference is not a constant")
        modes = tuple(
            const.value for const in _iter_const_leaves(modes_form)
        )
        body = [CallProcedure(name=procedure.value)]
        # RFC 1059 clarifies elsewhere that the mode conjunction is an OR
        # (Table 11 discussion).
        op = Conditional(condition=Condition(kind="mode_in", modes=modes), body=body)
        return HandlerResult(ops=[op])

    def _handle_encapsulated_in(self, call: Call, context: SentenceContext) -> HandlerResult:
        outer = call.args[1]
        outer_name = outer.value if isinstance(outer, Const) else "udp"
        if "udp" in outer_name:
            outer_name = "udp"
        return HandlerResult(ops=[Encapsulate(outer=outer_name)])

    def _handle_condition_only(self, call: Call, context: SentenceContext) -> HandlerResult:
        raise NonActionable(f"@{call.pred} outside a conditional")

    def _handle_nonactionable(self, call: Call, context: SentenceContext) -> HandlerResult:
        raise NonActionable(f"@{call.pred} has no executable interpretation")

    # -- action handlers --------------------------------------------------------
    def _handle_action(self, call: Call, context: SentenceContext) -> HandlerResult:
        name_arg = call.args[0]
        if not isinstance(name_arg, Const):
            raise NonActionable("action name is not a constant")
        handler = self._action_handlers.get(name_arg.value)
        if handler is None:
            raise NonActionable(f"no handler for action {name_arg.value!r}")
        return handler(self, call, context)

    def _action_reverse(self, call: Call, context: SentenceContext) -> HandlerResult:
        operand = call.args[1] if len(call.args) > 1 else None
        if isinstance(operand, Call) and operand.pred == "And" and len(operand.args) == 2:
            target_a = self._resolve_target(operand.args[0], context)
            target_b = self._resolve_target(operand.args[1], context)
            if target_a.kind == target_b.kind == "field":
                return HandlerResult(ops=[SwapFields(
                    target_a.protocol, target_a.name,
                    target_b.protocol, target_b.name,
                )])
        if operand is not None:
            target = self._resolve_target(operand, context)
            if target.kind == "field":
                raise NonActionable("cannot reverse a single field")
        raise NonActionable("reverse with unrecognized operands")

    def _action_compute(self, call: Call, context: SentenceContext) -> HandlerResult:
        operand = call.args[1] if len(call.args) > 1 else None
        if operand is None:
            raise NonActionable("compute with no operand")
        target = self._resolve_target(operand, context)
        if target.kind != "field":
            raise NonActionable(f"cannot compute {target}")
        return HandlerResult(ops=[ComputeChecksum(
            protocol=target.protocol, name=target.name,
            function="internet_checksum",
        )])

    def _action_return(self, call: Call, context: SentenceContext) -> HandlerResult:
        operand = call.args[1] if len(call.args) > 1 else None
        # "The data received in the echo message must be returned in the
        # echo reply message" → copy the request payload.
        if isinstance(operand, Call) and operand.pred in ("From", "In"):
            head = operand.args[0]
            if isinstance(head, Const) and head.value in ("data", "echo_message_data"):
                return HandlerResult(ops=[CopyData()])
        # "returns the <field> of the request" → echo a header field.
        if isinstance(operand, Call) and operand.pred == "Of":
            target = self._resolve_target(operand.args[0], context)
            if target.kind == "field":
                value = Value.request_field(target.protocol, target.name)
                return HandlerResult(ops=[SetField(target.protocol, target.name, value)])
        if isinstance(operand, Const) and operand.value == "data":
            return HandlerResult(ops=[CopyData()])
        raise NonActionable("return with unrecognized operand")

    def _action_zero(self, call: Call, context: SentenceContext) -> HandlerResult:
        operand = call.args[1] if len(call.args) > 1 else None
        if operand is None:
            raise NonActionable("zero with no operand")
        target = self._resolve_target(operand, context)
        if target.kind != "field":
            raise NonActionable(f"cannot zero {target}")
        return HandlerResult(ops=[SetField(target.protocol, target.name, Value.constant(0))])

    def _action_pad(self, call: Call, context: SentenceContext) -> HandlerResult:
        return HandlerResult(ops=[PadData()])

    def _action_discard(self, call: Call, context: SentenceContext) -> HandlerResult:
        operand = call.args[1] if len(call.args) > 1 else None
        reason = operand.value if isinstance(operand, Const) else ""
        return HandlerResult(ops=[Discard(reason=reason)])

    def _action_send(self, call: Call, context: SentenceContext) -> HandlerResult:
        operand = call.args[1] if len(call.args) > 1 else None
        destination = call.args[2] if len(call.args) > 2 else None
        if not isinstance(operand, Const):
            raise NonActionable("send with a non-constant message")
        message = operand.value
        dest_name = ""
        if destination is not None:
            dest_target = self._resolve_target(destination, context)
            dest_name = dest_target.name
        if context.protocol.upper() in ("IGMP", "NTP") or dest_name:
            return HandlerResult(ops=[Send(message=message, destination=dest_name)])
        raise NonActionable("send described behaviour, not construction")

    def _action_select(self, call: Call, context: SentenceContext) -> HandlerResult:
        return HandlerResult(ops=[SelectSession()])

    def _action_cease(self, call: Call, context: SentenceContext) -> HandlerResult:
        return HandlerResult(ops=[CeaseTransmission()])

    # -- shared pieces ---------------------------------------------------------
    def _assign(self, target: Target, value_form: Sem,
                context: SentenceContext, optional: bool) -> list[Op]:
        # "internet header plus first 64 bits of original datagram's data":
        # the quoted-datagram idiom (checked before target-kind gating, the
        # target here is the payload-carrying pseudo-field).
        if isinstance(value_form, Call) and value_form.pred == "And":
            names = {c.value for c in _iter_const_leaves(value_form)}
            if "internet_header" in names and any("64" in n for n in names):
                return [QuoteDatagram()]
        if target.kind == "statevar":
            return [SetStateVar(name=target.name, value=self._value(value_form, context))]
        if target.kind == "object" and target.name == "data":
            # "the data [is set to] the data of the request": the echo copy.
            if isinstance(value_form, Call) and value_form.pred == "Of":
                leaves = [c.value for c in _iter_const_leaves(value_form)]
                if "data" in leaves:
                    return [CopyData()]
            raise NonActionable("unrecognized data assignment")
        if target.kind == "object" and target.name in ("reply", "current_message"):
            raise NonActionable("assignment to a whole message")
        if target.kind != "field":
            raise NonActionable(f"cannot assign to {target}")
        # Checksum-range expression on the RHS (sentence H).
        if isinstance(value_form, Call) and value_form.pred == "StartsWith":
            anchor_name = self._anchor_field(value_form.args[1])
            return [ComputeChecksum(
                protocol=target.protocol, name=target.name,
                function="internet_checksum", range_start=anchor_name,
            )]
        value = self._value(value_form, context)
        return [SetField(target.protocol, target.name, value, optional=optional)]

    def _value(self, form: Sem, context: SentenceContext) -> Value:
        if isinstance(form, Const):
            numeric = self.resolver.resolve_value(form.value)
            if numeric is not None:
                return Value.constant(numeric)
            if form.value in _PACKET_FIELD_TERMS:
                return Value.packet_field(_PACKET_FIELD_TERMS[form.value])
            if form.value in _STATE_NAME_VALUES:
                return Value.constant(_STATE_NAME_VALUES[form.value])
            target = self.resolver.resolve(form.value, context)
            return self._value_from_target(target, form.value)
        if isinstance(form, Call) and form.pred == "Of":
            head, owner = form.args[0], form.args[-1]
            # "the value of X" wraps X without changing it.
            if isinstance(head, Const) and head.value in ("value", "values"):
                return self._value(form.args[-1], context)
            if isinstance(head, Const):
                head_target = self._try_resolve(head.value, context)
                if head_target is not None and head_target.kind == "field":
                    owner_name = owner.value if isinstance(owner, Const) else ""
                    if owner_name in ("request", "echo_message", "request_message",
                                      "original_datagram", "timestamp_message"):
                        return Value.request_field(head_target.protocol, head_target.name)
                if head_target is not None and head_target.kind == "param":
                    return Value.param(head_target.name)
            # "the value of My Discriminator" (BFD packet field).
            names = [c.value for c in _iter_const_leaves(form)]
            for name in names:
                if name.startswith("my_discriminator"):
                    return Value.packet_field("my_discriminator")
        if isinstance(form, Call) and form.pred == "Where":
            head = form.args[0]
            if isinstance(head, Const):
                target = self.resolver.resolve(head.value, context)
                if target.kind == "param":
                    return Value.param(target.name)
        if isinstance(form, Call) and form.pred in ("From", "In"):
            # "the source network and address from the original datagram's
            # data": an error message is addressed back to the offender's
            # source address.
            owner = form.args[-1]
            owner_name = owner.value if isinstance(owner, Const) else ""
            heads = " ".join(c.value for c in _iter_const_leaves(form.args[0]))
            if "original" in owner_name and (
                "address" in heads or "source_network" in heads
            ):
                return Value.request_field("ip", "src")
        raise NonActionable(f"cannot evaluate value expression {form}")

    @staticmethod
    def _value_from_target(target: Target, term: str) -> Value:
        if target.kind == "param":
            return Value.param(target.name)
        if target.kind == "field":
            return Value.request_field(target.protocol, target.name)
        if target.kind == "object" and target.name == "current_message":
            raise NonActionable("self-reference has no value")
        if target.kind == "function" and target.name == "clock":
            return Value.clock()
        raise NonActionable(f"term {term!r} is not a value")

    def _resolve_target(self, form: Sem, context: SentenceContext) -> Target:
        if isinstance(form, Const):
            if "." in form.value and not form.value.replace(".", "").isdigit():
                return Target(kind="statevar", name=form.value)
            return self.resolver.resolve(form.value, context)
        if isinstance(form, Call) and form.pred == "Of":
            # "<field> of <message>": the field is the assignment target.
            head = form.args[0]
            if isinstance(head, Const):
                return self._resolve_target(head, context)
        if isinstance(form, Call) and form.pred in ("In", "From", "With"):
            return self._resolve_target(form.args[0], context)
        raise NonActionable(f"cannot resolve assignment target {form}")

    def _try_resolve(self, term: str, context: SentenceContext) -> Target | None:
        try:
            return self.resolver.resolve(term, context)
        except AmbiguousReference:
            raise
        except UnknownReference:
            return None

    @staticmethod
    def _anchor_field(anchor: Sem) -> str:
        if isinstance(anchor, Const):
            name = anchor.value
            return name.removeprefix("icmp_").removesuffix("_field") or "type"
        return "type"

    # -- conditions ------------------------------------------------------------
    def _condition(self, form: Sem, context: SentenceContext) -> Condition:
        if not isinstance(form, Call):
            raise NonActionable("condition is not a clause")
        if form.pred == "Is":
            lhs = form.args[0]
            # Received-packet field tests: "the received state is Down".
            if isinstance(lhs, Const) and lhs.value in _PACKET_FIELD_TERMS:
                rhs = form.args[1]
                rhs_value = rhs.value if isinstance(rhs, Const) else ""
                if rhs_value == "nonzero":
                    return Condition(kind="packet_field_nonzero",
                                     name=_PACKET_FIELD_TERMS[lhs.value])
                numeric = self.resolver.resolve_value(rhs_value)
                if numeric is not None:
                    return Condition(kind="packet_field_is",
                                     name=_PACKET_FIELD_TERMS[lhs.value],
                                     value=numeric)
                return Condition(kind="packet_field_is",
                                 name=_PACKET_FIELD_TERMS[lhs.value],
                                 other=rhs_value)
            target = self._resolve_target(form.args[0], context)
            rhs = form.args[1]
            if isinstance(rhs, Const):
                if rhs.value == "odd":
                    return Condition(kind="field_odd", protocol=target.protocol,
                                     name=target.name)
                if rhs.value == "nonzero":
                    if target.kind == "statevar":
                        return Condition(kind="statevar_equals", name=target.name,
                                         value=0, negated=True)
                    return Condition(kind="field_equals", protocol=target.protocol,
                                     name=target.name, value=0, negated=True)
                numeric = self.resolver.resolve_value(rhs.value)
                if numeric is not None:
                    if target.kind == "statevar":
                        return Condition(kind="statevar_equals", name=target.name,
                                         value=numeric)
                    return Condition(kind="field_equals", protocol=target.protocol,
                                     name=target.name, value=numeric)
                if target.kind == "statevar":
                    return Condition(kind="statevar_equals", name=target.name,
                                     other=rhs.value)
            raise NonActionable("unrecognized equality condition")
        if form.pred == "Reach":
            lhs, rhs = form.args[0], form.args[1]
            lhs_name = lhs.value if isinstance(lhs, Const) else ""
            rhs_names = [c.value for c in _iter_const_leaves(rhs)]
            rhs_name = rhs_names[-1] if rhs_names else ""
            return Condition(kind="field_ge", name=lhs_name, other=rhs_name)
        if form.pred == "Action":
            # "no session is found" parses as find(@Not(session)); only the
            # session-lookup reading is a testable condition.
            action = form.args[0]
            if isinstance(action, Const) and action.value == "find":
                leaves = [c.value for c in _iter_const_leaves(form)]
                negated_operand = any(
                    isinstance(arg, Call) and arg.pred == "Not" for arg in form.args[1:]
                )
                if negated_operand and "session" in leaves:
                    return Condition(kind="not_found")
            raise NonActionable("action used as a condition")
        if form.pred == "Not":
            inner = form.args[0]
            if isinstance(inner, Call) and inner.pred == "Action":
                action = inner.args[0]
                if isinstance(action, Const) and action.value == "find":
                    return Condition(kind="not_found")
            inner_condition = self._condition(inner, context)
            return Condition(**{**inner_condition.__dict__,
                                "negated": not inner_condition.negated})
        if form.pred == "And":
            # Conjunctive conditions are handled by nesting at the caller;
            # here we only support the BFD two-term pattern via the first.
            raise NonActionable("conjunctive condition not supported here")
        raise NonActionable(f"@{form.pred} is not a condition")


def _iter_const_leaves(form: Sem):
    if isinstance(form, Const):
        yield form
    elif isinstance(form, Call):
        for arg in form.args:
            yield from _iter_const_leaves(arg)


# RFC 5880 session-state names → State field values.
_STATE_NAME_VALUES = {"admindown": 0, "down": 1, "init": 2, "up": 3}


# BFD terms denoting fields of the packet under reception (§6.8.6).
_PACKET_FIELD_TERMS = {
    "my_discriminator": "my_discriminator",
    "my_discriminator_field": "my_discriminator",
    "your_discriminator": "your_discriminator",
    "your_discriminator_field": "your_discriminator",
    "received_state": "state",
    "state_field": "state",
    "demand_bit": "demand",
    "detect_mult": "detect_mult",
    "detect_mult_field": "detect_mult",
    "multipoint_bit": "multipoint",
    "version_number": "version",
    "length_field": "length",
    "required_min_rx_interval": "required_min_rx_interval",
}
