"""Operator resolutions and the decision journal (Figure 4's feedback loop).

The paper's defining claim is *semi*-automation: when winnowing leaves a
sentence ambiguous (or parsing fails outright), SAGE escalates to a human
whose decision is recorded and replayed.  ``rewrites.json`` froze that loop
into a static table of sentence rewrites; this module generalizes it into
first-class provenance:

* :class:`Resolution` — one recorded human decision about one sentence.
  Three kinds cover the paper's interventions:

  - ``rewrite`` — replace the sentence with revised text before parsing
    (Table 6's ambiguous / unparsed / imprecise rewrites);
  - ``annotate`` — mark the sentence non-actionable (the @AdvComment
    annotation for descriptive prose);
  - ``select_lf`` — keep the sentence as written but force one surviving
    logical form, named by its stable structural signature (the "check
    choice" the paper's operators make when the checks cannot).

* :class:`DecisionJournal` — an append-only, JSON-persisted record of
  resolutions.  A :class:`~repro.rfc.registry.ProtocolRegistry` with a
  journal attached replays it on every later run: rewrite/annotate
  resolutions overlay the bundled ``rewrites.json`` table, select_lf
  resolutions feed the engine's selection map.  The journal therefore
  *subsumes* ``rewrites.json`` — a registry constructed with
  ``bundled_rewrites=False`` plus a journal holding the same decisions
  reproduces the bundled revised-mode output byte-for-byte (locked by
  ``tests/test_session.py``).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

from ..api.schema import STR, Field, Record
from ..rfc.corpus import Rewrite, sentence_key

JOURNAL_SCHEMA_VERSION = 1

KIND_REWRITE = "rewrite"
KIND_ANNOTATE = "annotate"
KIND_SELECT_LF = "select_lf"

RESOLUTION_KINDS = (KIND_REWRITE, KIND_ANNOTATE, KIND_SELECT_LF)

#: Rewrite categories an operator may record (mirrors ``rewrites.json``).
REWRITE_CATEGORIES = ("ambiguous", "unparsed", "imprecise")


class ResolutionError(ValueError):
    """A structurally invalid resolution (unknown kind, missing payload)."""


@dataclass(frozen=True)
class Resolution:
    """One recorded human decision about one specification sentence."""

    kind: str
    original: str
    protocol: str = ""
    revised: str = ""  # rewrite: the replacement sentence(s)
    category: str = ""  # rewrite: ambiguous | unparsed | imprecise
    lf_signature: str = ""  # select_lf: the chosen survivor's signature
    note: str = ""
    status_before: str = ""  # provenance: the status that escalated it

    def __post_init__(self) -> None:
        if self.kind not in RESOLUTION_KINDS:
            raise ResolutionError(
                f"unknown resolution kind {self.kind!r}: expected one of "
                f"{', '.join(RESOLUTION_KINDS)}"
            )
        if not self.original.strip():
            raise ResolutionError("a resolution needs the original sentence")
        if self.kind == KIND_REWRITE:
            if not self.revised.strip():
                raise ResolutionError("a rewrite resolution needs revised text")
            if self.category and self.category not in REWRITE_CATEGORIES:
                raise ResolutionError(
                    f"unknown rewrite category {self.category!r}: expected one "
                    f"of {', '.join(REWRITE_CATEGORIES)}"
                )
        if self.kind == KIND_SELECT_LF and not self.lf_signature:
            raise ResolutionError(
                "a select_lf resolution needs the chosen LF signature"
            )

    # -- constructors ---------------------------------------------------------
    @staticmethod
    def rewrite(original: str, revised: str, category: str = "ambiguous",
                **kwargs) -> "Resolution":
        return Resolution(kind=KIND_REWRITE, original=original,
                          revised=revised, category=category, **kwargs)

    @staticmethod
    def annotate(original: str, note: str = "", **kwargs) -> "Resolution":
        return Resolution(kind=KIND_ANNOTATE, original=original, note=note,
                          **kwargs)

    @staticmethod
    def select_lf(original: str, lf_signature: str, **kwargs) -> "Resolution":
        return Resolution(kind=KIND_SELECT_LF, original=original,
                          lf_signature=lf_signature, **kwargs)

    # -- views ----------------------------------------------------------------
    @property
    def key(self) -> str:
        """Whitespace-insensitive identity of the resolved sentence."""
        return sentence_key(self.original)

    @property
    def scope_key(self):
        """The replay-index key: protocol-scoped when the resolution
        records one, else the bare sentence key.

        Identical sentences appear in more than one RFC (the
        checksum-zeroing sentence is in both ICMP and IGMP); a decision an
        operator made inside one protocol's session must not silently
        rewrite the other corpus.  Scoped entries only match their own
        protocol; only deliberately protocol-less resolutions (like the
        lifted legacy ``rewrites.json`` table) apply everywhere.
        """
        if self.protocol:
            return (self.protocol.upper(), self.key)
        return self.key

    def as_rewrite(self) -> Rewrite | None:
        """This resolution as a pipeline :class:`Rewrite` entry, or None.

        ``rewrite`` maps to its category; ``annotate`` maps to the
        non-actionable category (same replay machinery as the bundled
        table); ``select_lf`` is not a rewrite at all — it feeds the
        engine's selection map instead.
        """
        if self.kind == KIND_REWRITE:
            return Rewrite(original=self.original, revised=self.revised,
                           category=self.category or "ambiguous",
                           note=self.note)
        if self.kind == KIND_ANNOTATE:
            return Rewrite(original=self.original, revised=self.revised,
                           category="non-actionable", note=self.note)
        return None


#: The ``resolution`` wire table: a journal entry, and the envelope kind
#: :mod:`repro.api.contracts` reads in on first use.
RESOLUTION = Record("resolution", Resolution, [
    Field("kind", STR),
    Field("original", STR),
    *(Field(name, STR, "", omit=True)
      for name in ("protocol", "revised", "category", "lf_signature", "note",
                   "status_before")),
], closed=True, error=ResolutionError)


class DecisionJournal:
    """An append-only, persistable record of operator resolutions.

    The journal is the governance artifact: every human decision the
    pipeline replays is explicit, ordered, and serializable.  When several
    resolutions target the same sentence, the latest wins (an operator can
    revise an earlier decision by appending a new one).

    With a ``path`` bound (at construction or via :meth:`save`), every
    :meth:`record` persists immediately — the journal on disk is always
    current.
    """

    def __init__(self, resolutions: list[Resolution] | None = None,
                 path: str | pathlib.Path | None = None) -> None:
        self.resolutions: list[Resolution] = list(resolutions or [])
        self.path = pathlib.Path(path) if path is not None else None

    def __len__(self) -> int:
        return len(self.resolutions)

    def __iter__(self):
        return iter(self.resolutions)

    # -- recording ------------------------------------------------------------
    def record(self, resolution: Resolution) -> Resolution:
        """Append one resolution (and persist, when a path is bound)."""
        if not isinstance(resolution, Resolution):
            raise ResolutionError(
                f"expected a Resolution, got {type(resolution).__name__}"
            )
        self.resolutions.append(resolution)
        if self.path is not None:
            self.save()
        return resolution

    # -- replay views ---------------------------------------------------------
    def by_key(self) -> dict:
        """Latest resolution per :attr:`Resolution.scope_key` (append
        order, latest wins).  Keys are ``(PROTOCOL, sentence_key)`` tuples
        for protocol-scoped resolutions, bare sentence keys otherwise."""
        index: dict = {}
        for resolution in self.resolutions:
            index[resolution.scope_key] = resolution
        return index

    def rewrites(self) -> dict:
        """The rewrite/annotate overlay for ``ProtocolRegistry.rewrites``
        (scope-keyed; see :meth:`by_key`)."""
        overlay: dict = {}
        for key, resolution in self.by_key().items():
            rewrite = resolution.as_rewrite()
            if rewrite is not None:
                overlay[key] = rewrite
        return overlay

    def selections(self) -> dict:
        """The force-select map (scope key → LF signature) the engine
        consults when winnowing leaves several survivors."""
        return {
            key: resolution.lf_signature
            for key, resolution in self.by_key().items()
            if resolution.kind == KIND_SELECT_LF
        }

    # -- persistence ----------------------------------------------------------
    # Entries are written and read through the ``resolution`` wire table.
    def to_json(self, indent: int | None = 2) -> str:
        payload = {
            "schema": JOURNAL_SCHEMA_VERSION,
            "resolutions": [RESOLUTION.enc(r, None) for r in self.resolutions],
        }
        return json.dumps(payload, indent=indent) + "\n"

    @classmethod
    def from_json(cls, text: str,
                  path: str | pathlib.Path | None = None) -> "DecisionJournal":
        """The journal ``text`` holds; a payload or entry of the wrong
        shape raises :class:`ResolutionError`."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ResolutionError("a journal must be a JSON object, got "
                                  f"{type(payload).__name__}")
        schema = payload.get("schema")
        if schema != JOURNAL_SCHEMA_VERSION:
            raise ResolutionError(
                f"unsupported journal schema {schema!r} "
                f"(this build reads schema {JOURNAL_SCHEMA_VERSION})"
            )
        entries = payload.get("resolutions", [])
        if not isinstance(entries, list):
            raise ResolutionError("journal resolutions must be a list, got "
                                  f"{type(entries).__name__}")
        return cls([RESOLUTION.dec(entry, None) for entry in entries],
                   path=path)

    def save(self, path: str | pathlib.Path | None = None) -> pathlib.Path:
        """Write the journal as JSON; remembers ``path`` for later saves."""
        if path is not None:
            self.path = pathlib.Path(path)
        if self.path is None:
            raise ResolutionError("no journal path bound: pass save(path)")
        self.path.write_text(self.to_json(), encoding="utf-8")
        return self.path

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "DecisionJournal":
        """Read a journal from ``path`` (a missing file is an empty journal
        bound to that path — sessions start journals lazily)."""
        path = pathlib.Path(path)
        if not path.exists():
            return cls(path=path)
        return cls.from_json(path.read_text(encoding="utf-8"), path=path)


def resolution_for_rewrite(rewrite: Rewrite, protocol: str = "",
                           status_before: str = "") -> Resolution:
    """Lift a legacy :class:`Rewrite` entry into a :class:`Resolution` —
    the migration path from ``rewrites.json`` to the journal."""
    if rewrite.category == "non-actionable":
        return Resolution(kind=KIND_ANNOTATE, original=rewrite.original,
                          revised=rewrite.revised, note=rewrite.note,
                          protocol=protocol, status_before=status_before)
    return Resolution(kind=KIND_REWRITE, original=rewrite.original,
                      revised=rewrite.revised, category=rewrite.category,
                      note=rewrite.note, protocol=protocol,
                      status_before=status_before)
