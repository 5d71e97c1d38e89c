"""One-process probe for the cross-process warm-start gate.

``pipeline_smoke.py`` launches this script twice in *separate* Python
processes against the same ``--cache-dir``: once with an empty store
(the cold run populates it) and once against the store the cold run
left behind.  Each invocation builds a fresh
:class:`~repro.rfc.registry.ProtocolRegistry` — nothing in-process is
shared between the two runs, so any speedup the second run reports is
the persistent store's doing and nothing else's.

Prints one JSON object on stdout:

* ``sweep_s`` — wall-clock seconds for the 4-protocol sequential
  ``SageEngine.process_corpora`` sweep (corpus loading and engine
  construction are outside the timer: the gate measures the pipeline,
  not interpreter startup);
* ``parse`` — the parse cache's counters (``misses`` must be 0 on the
  warm run; ``disk_hits`` shows the store answering);
* ``winnow`` — the winnow-result cache's counters (same contract: zero
  misses on the warm run means not one §4.2 check re-ran);
* ``run`` — the run layer's counters: on the warm run every protocol is
  one disk hit here, so the parse and winnow layers see no lookups;
* ``trace_sha1`` — SHA-1 over every sentence's full winnow trace
  (per-stage counts plus ordered survivor signatures), in corpus order
  (winnow-output identity across runs);
* ``statuses`` — per-protocol ``SageRun.by_status()`` tallies;
* ``lf_sha1`` — SHA-1 over every sentence's status and winnowed
  logical-form signature, in corpus order (semantic-output identity
  across runs);
* ``icmp_c_sha1`` — SHA-1 of the generated ICMP C source (golden-code
  identity across runs).

Run:  PYTHONPATH=src python benchmarks/warm_start_probe.py --cache-dir DIR
"""

import argparse
import hashlib
import json
import sys
import time

from repro.ccg.semantics import signature
from repro.core import SageEngine
from repro.rfc.registry import ProtocolRegistry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cache-dir", required=True,
                        help="persistent cache store root (shared between "
                             "the cold and warm invocations)")
    args = parser.parse_args()

    registry = ProtocolRegistry(cache_dir=args.cache_dir)
    engine = SageEngine(mode="revised", protocol_registry=registry)
    # Load and parse corpora before the timer: both runs pay the same file
    # I/O and RFC text parse, and the gate is about the parse/winnow/
    # generate pipeline.
    for name in registry.protocols():
        _ = registry.load_corpus(name).sentences

    start = time.perf_counter()
    runs = engine.process_corpora()
    sweep_s = time.perf_counter() - start

    lf_digest = hashlib.sha1()
    trace_digest = hashlib.sha1()
    for name in registry.protocols():
        for result in runs[name].results:
            lf_digest.update(result.spec.text.encode())
            lf_digest.update(str(result.status).encode())
            if result.logical_form is not None:
                lf_digest.update(signature(result.logical_form).encode())
            lf_digest.update(b"\x00")
            if result.trace is not None:
                trace = result.trace
                trace_digest.update(trace.sentence.encode())
                for stage, count in trace.counts.items():
                    trace_digest.update(f"{stage}={count};".encode())
                for form in trace.survivors:
                    trace_digest.update(signature(form).encode())
                    trace_digest.update(b"\x01")
            trace_digest.update(b"\x00")

    icmp_c = runs["ICMP"].code_unit.render_c()

    print(json.dumps({
        "sweep_s": sweep_s,
        "parse": registry.parse_cache().stats(),
        "winnow": registry.winnow_cache().stats(),
        "run": registry.run_cache().stats(),
        "statuses": {name: runs[name].by_status()
                     for name in registry.protocols()},
        "lf_sha1": lf_digest.hexdigest(),
        "trace_sha1": trace_digest.hexdigest(),
        "icmp_c_sha1": hashlib.sha1(icmp_c.encode()).hexdigest(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
