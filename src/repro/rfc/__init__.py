"""RFC document processing: structure, diagrams, corpora, the registry."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".corpus": ("Corpus", "Rewrite", "SpecSentence", "bfd_corpus",
                "corpus_from_text", "extract_sentences", "find_rewrite",
                "icmp_corpus", "igmp_corpus", "load_rewrites", "ntp_corpus"),
    ".document": ("FieldDescription", "IntroSection", "MessageSection",
                  "RFCDocument", "ValueBinding"),
    ".header_diagram": ("DiagramParse", "extract_layout", "is_diagram_line"),
    ".preprocess": ("parse_rfc_text",),
    ".registry": ("ProtocolRegistry", "ProtocolSpec", "UnknownProtocolError",
                  "default_registry", "load_corpus", "register_protocol"),
})
