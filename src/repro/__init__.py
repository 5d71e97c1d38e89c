"""SAGE: semi-automated protocol disambiguation and code generation.

A reproduction of the SIGCOMM 2021 paper, grown into a service.  Public
entry points:

* :mod:`repro.api` — the versioned service layer: :class:`~repro.api.
  SageService` (``process`` / ``sweep`` / ``artifact`` endpoints over
  JSON-round-trippable request/response contracts), the interactive
  :class:`~repro.api.DisambiguationSession` (iterate flagged sentences,
  journal :class:`~repro.api.Resolution` decisions the registry replays),
  and the ``python -m repro`` CLI (``process``, ``sweep``, ``resolve``,
  ``emit``);
* :class:`repro.core.SageEngine` — the pipeline (parse → disambiguate →
  codegen) as three composable stages;
* :mod:`repro.rfc` — bundled RFC corpora (ICMP, IGMP, NTP, BFD) behind the
  cached protocol registry;
* :mod:`repro.codegen` — the typed IR with C / Python / interpreter
  backends;
* :mod:`repro.runtime` — executes generated code (including serialized
  :class:`~repro.api.GeneratedArtifact` payloads);
* :mod:`repro.netsim` — the Mininet-like simulator with ping/traceroute;
* :mod:`repro.framework` — the static framework (codecs, checksums, pcap).
"""

from ._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".api": ("DisambiguationSession", "ProcessRequest", "ProcessResponse",
             "Resolution", "SageService"),
    ".core": ("SageEngine", "SageRun", "SentenceStatus"),
})

__version__ = "1.1.0"
__all__ += ["__version__"]

