"""Tables 5 & 6: sentences the human must rewrite.

Table 6 categorizes the ICMP rewrites: sentences with more than one LF
after winnowing (the "To form ..." family), sentences with zero LFs
(sentence D), and imprecise sentences discovered by unit testing (the six
identifier/sequence variants).  Table 5 shows the two BFD state-management
sentences that needed rewriting (co-reference and rephrasing).
"""

from conftest import print_table

from repro.core import SentenceStatus
from repro.rfc import load_rewrites


def _table6(run_strict):
    ambiguous = [
        r for r in run_strict.results
        if r.status in (SentenceStatus.AMBIGUOUS_LF,
                        SentenceStatus.AMBIGUOUS_REF)
    ]
    unparsed = [r for r in run_strict.results
                if r.status == SentenceStatus.UNPARSED
                and r.spec.kind == "field"]
    imprecise = [
        rewrite for rewrite in load_rewrites()
        if rewrite.category == "imprecise" and "code = 0" in rewrite.original
    ]
    return ambiguous, unparsed, imprecise


def test_table6_rewrite_categories(benchmark, icmp_run_strict):
    ambiguous, unparsed, imprecise = benchmark(lambda: _table6(icmp_run_strict))
    rows = [
        ("More than 1 LF", len(ambiguous), 4,
         ambiguous[0].spec.text[:60] if ambiguous else ""),
        ("0 LF", len(unparsed), 1,
         unparsed[0].spec.text[:60] if unparsed else ""),
        ("Imprecise sentence", len(imprecise), 6,
         imprecise[0].original[:60] if imprecise else ""),
    ]
    print_table("Table 6: categorized rewritten ICMP text",
                ["Category", "measured", "paper", "example"], rows)

    # The paper's shape: a handful of parse-ambiguous sentences (the
    # "To form ..." family), exactly one unparseable field description
    # (sentence D), and exactly six unit-test-discovered imprecise ones.
    assert 3 <= len(ambiguous) <= 5
    assert all("to form" in r.spec.text.lower() or "received" in r.spec.text.lower()
               for r in ambiguous)
    assert len(unparsed) >= 1
    assert any("Address of the gateway" in r.spec.text for r in unparsed)
    assert len(imprecise) == 6


def test_table5_bfd_rewrites(benchmark, bfd_run):
    rewrites = benchmark(load_rewrites)
    bfd_rewrites = [r for r in rewrites if "Table 5" in r.note]
    rows = [(r.original[:70], r.revised[:70]) for r in bfd_rewrites]
    print_table("Table 5: BFD state-management rewrites",
                ["Original", "Rewritten"], rows)

    # The two Table 5 cases: the nested-code co-reference and the
    # rephrasing removal.
    assert any("no session is found" in r.original for r in bfd_rewrites)
    assert any("RemoteDemandMode is 1" in r.original for r in bfd_rewrites)
    # Both rewrites produce working code in the revised run.
    assert bfd_run.by_status().get("unparsed", 0) == 0


def test_rewrites_resolve_in_revised_mode(icmp_run_revised):
    status = icmp_run_revised.by_status()
    assert status.get("ambiguous-lf", 0) == 0
    assert status.get("ambiguous-ref", 0) == 0
    assert status.get("unparsed", 0) == 0
    for result in icmp_run_revised.rewritten():
        for sub in result.sub_results:
            assert sub.status in ("ok", "non-actionable"), (
                sub.spec.text, sub.status, sub.reason
            )
