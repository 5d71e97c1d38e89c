"""Structured error types for the service layer.

Every failure a caller can provoke through the public API maps to one
:class:`ApiError` subclass with a stable machine-readable ``code``; the
:meth:`ApiError.to_dict` rendering is the error half of the wire contract
(the CLI prints it under ``--json``, a transport layer returns it as the
response body).  Two transport mappings ride on the code:

* ``http_status`` — the HTTP status the server layer
  (:mod:`repro.server`) answers with: caller mistakes are 400, unknown
  names are 404, an exceeded deadline is 504, store corruption is 500;
* ``exit_code`` — the ``python -m repro`` process exit status, aligned
  across every subcommand: 2 for malformed requests (argparse's own
  convention), 3 for not-found failures, 4 for undecodable payloads,
  5 for deadlines, 6 for a corrupted persistent store.
"""

from __future__ import annotations


class ApiError(Exception):
    """Base class: a structured, serializable service-layer failure."""

    code = "api-error"
    http_status = 400
    exit_code = 2

    def to_dict(self) -> dict:
        return {"error": self.code, "message": str(self)}


class RequestError(ApiError):
    """A malformed request (unknown mode, missing field, bad payload)."""

    code = "bad-request"


class ProtocolNotFound(ApiError):
    """The request names a protocol no registry entry covers."""

    code = "protocol-not-found"
    http_status = 404
    exit_code = 3

    def __init__(self, name: str, known: list[str] | None = None):
        self.name = name
        self.known = list(known or [])
        message = f"unknown protocol {name!r}"
        if self.known:
            message += f": registered protocols are {', '.join(self.known)}"
        super().__init__(message)

    def to_dict(self) -> dict:
        record = super().to_dict()
        record["protocol"] = self.name
        record["known"] = self.known
        return record


class BackendNotFound(ApiError):
    """The request names a codegen backend outside the backend table."""

    code = "backend-not-found"
    http_status = 404
    exit_code = 3

    def __init__(self, name: str, known: list[str] | None = None):
        self.name = name
        self.known = list(known or [])
        message = f"unknown backend {name!r}"
        if self.known:
            message += f": backends are {', '.join(self.known)}"
        super().__init__(message)

    def to_dict(self) -> dict:
        record = super().to_dict()
        record["backend"] = self.name
        record["known"] = self.known
        return record


class ContractError(ApiError):
    """A payload that cannot be (de)serialized under the contract."""

    code = "contract-error"
    exit_code = 4


class SchemaVersionError(ContractError):
    """A payload written under a schema this build does not read."""

    code = "schema-version"

    def __init__(self, found, supported: int):
        self.found = found
        self.supported = supported
        super().__init__(
            f"unsupported schema version {found!r} "
            f"(this build reads schema {supported})"
        )


class SentenceNotFound(ApiError):
    """A resolve call addressed a sentence the corpus does not contain."""

    code = "sentence-not-found"
    http_status = 404
    exit_code = 3


class EnvelopeDecodeError(ContractError):
    """A wire envelope whose framing itself is malformed: a length prefix
    pointing past the payload, a varint that never terminates, a count
    larger than the bytes that could possibly back it.  Kept distinct from
    plain :class:`ContractError` so transports can tell "you sent garbage
    bytes" (this, HTTP 400) from "this build cannot express that object"."""

    code = "bad-envelope"


class DeadlineExceeded(ApiError):
    """The per-request deadline elapsed before the pipeline finished."""

    code = "deadline-exceeded"
    http_status = 504
    exit_code = 5

    def __init__(self, deadline_s: float, endpoint: str = ""):
        self.deadline_s = deadline_s
        self.endpoint = endpoint
        suffix = f" on {endpoint}" if endpoint else ""
        super().__init__(
            f"request exceeded its {deadline_s:g}s deadline{suffix}"
        )

    def to_dict(self) -> dict:
        record = super().to_dict()
        record["deadline_s"] = self.deadline_s
        if self.endpoint:
            record["endpoint"] = self.endpoint
        return record


class CacheCorruption(ApiError):
    """The persistent cache store holds entries that fail verification."""

    code = "cache-corrupt"
    http_status = 500
    exit_code = 6

    def __init__(self, root: str, corrupt: int, checked: int):
        self.root = root
        self.corrupt = corrupt
        self.checked = checked
        super().__init__(
            f"cache store {root}: {corrupt} of {checked} entries failed "
            "verification (quarantined; rerun to recompute)"
        )

    def to_dict(self) -> dict:
        record = super().to_dict()
        record["root"] = self.root
        record["corrupt"] = self.corrupt
        record["checked"] = self.checked
        return record
