"""The IR layer's failures.

Kept apart from :mod:`repro.codegen.ir` so that code which only handles
them (the wire layer's decode, :func:`repro.api.contracts.decoding`)
imports no IR.
"""

from __future__ import annotations


class IRError(Exception):
    """Base class for IR-layer failures."""


class IRValidationError(IRError):
    """A function contains an op, value, or condition no backend knows."""


class FingerprintMismatch(IRError):
    """A deserialized function/program's recorded content SHA-1 does not
    match the rebuilt IR — the artifact was corrupted or hand-edited."""

    def __init__(self, where: str, recorded: str, computed: str):
        self.where = where
        self.recorded = recorded
        self.computed = computed
        super().__init__(
            f"{where}: recorded fingerprint {recorded} does not match the "
            f"deserialized IR ({computed})"
        )


class FunctionNameCollision(IRError):
    """Two messages slug to the same builder name (they would silently
    merge into one function; the spec author must rename one)."""

    def __init__(self, name: str, existing_message: str, new_message: str):
        self.name = name
        self.existing_message = existing_message
        self.new_message = new_message
        super().__init__(
            f"function name {name!r} generated for both message "
            f"{existing_message!r} and message {new_message!r}; "
            "rename one message (slugs collide)"
        )
