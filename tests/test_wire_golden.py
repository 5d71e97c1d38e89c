"""Byte-identity lock on every wire and on-disk encoding.

Each case below is one fixed object rendered through ``to_json`` and
``to_bytes`` (``schema:1`` and ``schema:1b``), plus the persistent store's
parse and winnow entries for the ICMP corpus.  The SHA-1 of every
rendering is pinned in ``tests/golden/wire_digests.json``: a codec
refactor must reproduce every byte, and a deliberate format change has to
regenerate the file (and say so)::

    PYTHONPATH=src python tests/test_wire_golden.py --regenerate
"""

import hashlib
import json
import os
import pathlib
import sys

import pytest

from repro.api import (
    GeneratedArtifact,
    ProcessRequest,
    ProcessResponse,
    Resolution,
    SageService,
    SweepRequest,
    to_bytes,
    to_json,
)
from repro.api.contracts import SentenceReport
from repro.core import SageEngine
from repro.rfc.registry import ProtocolRegistry

GOLDEN = pathlib.Path(__file__).parent / "golden" / "wire_digests.json"
PROTOCOLS = ("ICMP", "IGMP", "NTP", "BFD")
MODES = ("strict", "revised")


def _sha1(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha1(data).hexdigest()


def _fixed_objects() -> dict:
    """name → contract object, one or more per envelope kind."""
    runs = {mode: SageEngine(mode=mode).process_corpora()
            for mode in MODES}
    objects = {f"sage_run/{name}/{mode}": runs[mode][name]
               for name in PROTOCOLS for mode in MODES}
    icmp = runs["revised"]["ICMP"]
    rewritten = icmp.rewritten()[0]
    traced = next(result for result in icmp.results
                  if result.trace is not None
                  and result.logical_form is not None)
    index = icmp.results.index(rewritten)
    objects.update({
        "sentence_result/rewritten": rewritten,
        "sentence_result/traced": traced,
        "winnow_trace": traced.trace,
        "code_unit": icmp.code_unit,
        "spec_sentence": traced.spec,
        "spec_sentence/rewritten": rewritten.spec,
        "rewrite": rewritten.rewrite,
        "resolution/rewrite": Resolution.rewrite(
            "The checksum is the 16-bit ones's complement.",
            "The checksum is the 16-bit one's complement.",
            category="imprecise", note="typo", protocol="ICMP",
            status_before="unparsed",
        ),
        "resolution/select_lf": Resolution.select_lf(
            "If code = 0, an identifier may be zero.", "Is(code,0)"
        ),
        "process_request/default": ProcessRequest("ICMP"),
        "process_request/full": ProcessRequest(
            protocol="ICMP", mode="strict", include_sentences=False,
            artifacts=("c",),
        ),
        "sweep_request/default": SweepRequest(),
        "sweep_request/full": SweepRequest(
            protocols=("ICMP", "BFD"), mode="strict", parallel=False,
            include_sentences=True, artifacts=("python",),
        ),
        "sentence_report": SentenceReport.from_result(rewritten, index),
        "generated_artifact": GeneratedArtifact.from_program(
            icmp.code_unit, backend="c"
        ),
        "process_response/icmp_c": ProcessResponse.from_run(
            icmp, "revised", include_sentences=True, artifacts=("c",)
        ),
        "sweep_response/default": SageService().sweep(SweepRequest()),
    })
    return objects


def _store_digests(root) -> dict:
    """SHA-1 over every ICMP parse and winnow entry file a cold revised
    run writes (relative path and full bytes, store framing included)."""
    registry = ProtocolRegistry(cache_dir=root)
    SageEngine(mode="revised", protocol_registry=registry).process_corpus("ICMP")
    base = pathlib.Path(registry.cache_store().base)
    digests = {}
    for namespace in ("parse", "winnow"):
        digest = hashlib.sha1()
        for path in sorted((base / namespace).rglob("*.bin")):
            digest.update(path.relative_to(base).as_posix().encode())
            digest.update(path.read_bytes())
        digests[f"store/{namespace}/ICMP"] = digest.hexdigest()
    return digests


def compute_digests(store_root) -> dict:
    digests = {}
    for name, obj in _fixed_objects().items():
        digests[f"{name}/json"] = _sha1(to_json(obj))
        digests[f"{name}/1b"] = _sha1(to_bytes(obj))
    digests.update(_store_digests(store_root))
    return dict(sorted(digests.items()))


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return compute_digests(tmp_path_factory.mktemp("golden-store"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_golden_case_is_computed(digests, golden):
    assert sorted(digests) == sorted(golden)


def test_bytes_match_golden(digests, golden):
    changed = sorted(case for case, digest in golden.items()
                     if digests.get(case) != digest)
    assert not changed, (
        f"encodings changed for {changed} (regenerate only for a "
        "deliberate format change)"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        result = compute_digests(os.path.join(root, "store"))
    GOLDEN.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {len(result)} digests to {GOLDEN}")
