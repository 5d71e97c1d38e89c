"""``repro.api`` — the versioned public service layer (schema v1).

Three surfaces over the SAGE pipeline:

* **contracts** — JSON-round-trippable request/response dataclasses
  (:class:`ProcessRequest`, :class:`ProcessResponse`, :class:`SweepRequest`,
  :class:`SweepResponse`, :class:`SentenceReport`,
  :class:`GeneratedArtifact`) plus schema-versioned :func:`to_json` /
  :func:`from_json` for every pipeline result (``SageRun``,
  ``WinnowTrace``, the codegen ``Program``, ``SentenceResult``,
  ``Resolution``);
* **sessions** — the interactive :class:`DisambiguationSession`: iterate
  flagged sentences, inspect surviving LFs with per-check provenance,
  apply :class:`~repro.disambiguation.resolution.Resolution` records that a
  :class:`~repro.disambiguation.resolution.DecisionJournal` persists and
  the registry replays on later runs;
* **service** — :class:`SageService`, the front door: ``process`` /
  ``sweep`` / ``artifact`` / ``session`` endpoints with structured
  :class:`ApiError` failures, driven from Python or the ``python -m
  repro`` CLI.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "..disambiguation.resolution": ("DecisionJournal", "Resolution"),
    ".binenc": ("SCHEMA_1B", "from_bytes", "to_bytes"),
    ".contracts": ("SCHEMA_VERSION", "GeneratedArtifact", "ProcessRequest",
                   "ProcessResponse", "SentenceReport", "SweepRequest",
                   "SweepResponse", "from_json", "to_json"),
    ".errors": ("ApiError", "BackendNotFound", "ContractError",
                "ProtocolNotFound", "RequestError", "SchemaVersionError",
                "SentenceNotFound"),
    ".service": ("SageService",),
    ".session": ("DisambiguationSession",),
})
