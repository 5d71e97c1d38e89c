"""Differential scenario fuzzer and cross-backend interop matrix.

A seeded pipeline over the network simulator:

1. :class:`~repro.fuzz.generator.TraceGenerator` turns one integer seed
   into deterministic episodes — randomized packet traces, peer event
   schedules, multi-node topologies with seeded link faults;
2. :class:`~repro.fuzz.runner.DifferentialRunner` replays each episode
   against every executable backend (hand-written reference, exec-Python,
   IR interpreter) and demands exact trace equality, with per-protocol
   invariant oracles (:mod:`repro.fuzz.oracles`) guarding against
   agreed-upon wrongness and the C backend locked via emitted-source
   fingerprints;
3. divergent episodes shrink to replayable JSON case files
   (:mod:`repro.fuzz.shrink`);
4. the verdicts land in an :class:`~repro.fuzz.matrix.InteropMatrix`,
   gated in CI (``scripts/ci.sh fuzz-gate``) together with the seed-0
   trace digest pinned in ``tests/golden/fuzz_digest.json``.

Exposed via ``python -m repro fuzz`` and ``SageService.fuzz``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".generator": ("FAMILIES", "PROTOCOLS", "Episode", "TraceGenerator",
                   "synthesize"),
    ".matrix": ("InteropMatrix", "MatrixCell"),
    ".oracles": ("ORACLES", "check_trace", "register_oracle"),
    ".runner": ("DifferentialRunner", "Divergence", "FuzzReport",
                "Violation", "first_difference", "run_fuzz"),
    ".scenarios": ("EXECUTABLE_BACKENDS", "BFDNode", "ReferenceIGMP",
                   "deliver_bfd", "make_peer", "register_peer", "replay"),
    ".shrink": ("case_name", "load_case", "save_case", "shrink"),
})
