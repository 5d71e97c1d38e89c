"""Ambiguity audit: run SAGE as a *specification linter* over an RFC.

This is the workflow the paper proposes for spec authors (Figure 4), driven
through the interactive service surface: open a
:class:`~repro.api.DisambiguationSession` on a protocol; every sentence
that parses to zero or multiple logical forms, or whose terms cannot be
resolved unambiguously to protocol fields, surfaces as a
:class:`~repro.api.SentenceReport` with its per-check winnow provenance
and the competing interpretations — then a resolution is journaled and the
replayed run shows the flag disappear.

Run:  python examples/ambiguity_audit.py
"""

from repro.api import DisambiguationSession, SageService
from repro.disambiguation import summarize
from repro.rfc.registry import ProtocolRegistry


def main() -> None:
    # A journal-only registry (no bundled rewrites): the linter sees the
    # RFC text exactly as written.
    registry = ProtocolRegistry(bundled_rewrites=False)
    session = DisambiguationSession("ICMP", mode="revised", registry=registry)
    run = session.run

    print(f"audited {len(run.results)} sentences from RFC "
          f"{run.corpus.document.number}")
    print("statuses:", run.by_status())

    print("\n--- sentences needing revision ---")
    for report in session.flagged():
        print(f"\n[{report.status}] #{report.index} {report.message} / "
              f"{report.field or 'description'}")
        print(f"  {report.text}")
        if report.reason:
            print(f"  reason: {report.reason}")
        print(f"  LF count after each check: {report.check_counts}")
        for position, survivor in enumerate(report.survivors[:2]):
            print(f"  LF {position}: {survivor['signature'][:100]}")

    summary = summarize(run.traces())
    print("\n--- winnowing effectiveness (Figure 5a) ---")
    print(f"{summary.sentence_count} sentences had multiple logical forms")
    for stage, maximum, average, minimum in summary.rows():
        print(f"  after {stage:<18} max={maximum:<3} avg={average:5.2f} min={minimum}")

    # Resolve one flag the way an operator would, and replay.
    first = session.pending()[0]
    session.resolve(first.index, annotate=True,
                    note="descriptive prose; no protocol behaviour")
    print(f"\nresolved #{first.index} (annotate): "
          f"{len(session.pending())} sentences still pending; "
          f"{len(session.resolutions())} decisions journaled")

    # Lint every registered RFC in one batch service call.
    print("\n--- all registered protocols (one sweep endpoint call) ---")
    sweep = SageService(registry=registry).sweep()
    for name in sweep.protocols:
        response = sweep.responses[name]
        print(f"  {name:<5} {response.sentence_count:>3} sentences, "
              f"{response.flagged_count} flagged for revision")


if __name__ == "__main__":
    main()
