"""The differential runner: one episode, every backend, one verdict.

:class:`DifferentialRunner` replays each episode against every executable
backend — the hand-written reference and the generated code under the
exec-Python and interpreter backends — and compares the resulting traces
for exact equality (wire bytes and state trajectories both).  The C
backend cannot execute, so it is locked in via emitted-source
fingerprints: :meth:`DifferentialRunner.c_fingerprints` renders each
protocol's C twice and records the SHA-1, failing the lock if the
rendering is unstable.

Per-protocol invariant oracles (:mod:`repro.fuzz.oracles`) run once over
every distinct trace, and their verdict counts for every backend that
produced it; oracle violations and cross-backend divergences are both
fatal to the interop matrix.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field

from .generator import FAMILIES, PROTOCOLS, Episode, TraceGenerator
from .matrix import InteropMatrix
from .oracles import check_trace
from .scenarios import EXECUTABLE_BACKENDS, make_peer, replay


def first_difference(left, right, path: str = "") -> tuple[str, object, object] | None:
    """The first structural difference between two JSON-safe values.

    Returns ``(path, left_value, right_value)`` — e.g.
    ``("router_tx[3]", "4500...", "4500...")`` — or None when equal.
    Dicts recurse over the union of keys, lists over indices; everything
    else compares by equality.
    """
    if isinstance(left, dict) and isinstance(right, dict):
        for key in sorted(set(left) | set(right), key=str):
            inner = f"{path}.{key}" if path else str(key)
            if key not in left:
                return (inner, None, right[key])
            if key not in right:
                return (inner, left[key], None)
            found = first_difference(left[key], right[key], inner)
            if found is not None:
                return found
        return None
    if isinstance(left, list) and isinstance(right, list):
        for index, (a, b) in enumerate(zip(left, right)):
            found = first_difference(a, b, f"{path}[{index}]")
            if found is not None:
                return found
        if len(left) != len(right):
            return (f"{path}.length", len(left), len(right))
        return None
    if left != right:
        return (path or "<root>", left, right)
    return None


@dataclass
class Divergence:
    """Two backends disagreeing on one episode, pinned to the first
    differing trace path."""

    episode: Episode
    backend_a: str
    backend_b: str
    path: str
    left: object
    right: object

    def to_dict(self) -> dict:
        return {
            "episode": self.episode.to_dict(),
            "pair": f"{self.backend_a}|{self.backend_b}",
            "path": self.path,
            "left": self.left,
            "right": self.right,
        }

    def __repr__(self) -> str:
        return (f"Divergence({self.episode.key}, "
                f"{self.backend_a}|{self.backend_b} at {self.path!r})")


@dataclass
class Violation:
    """One oracle violation on one backend's trace."""

    episode: Episode
    backend: str
    message: str

    def to_dict(self) -> dict:
        return {"episode": self.episode.to_dict(), "backend": self.backend,
                "message": self.message}


@dataclass
class FuzzReport:
    """Everything one fuzz run produced, JSON-safe via :meth:`to_dict`."""

    seed: int
    backends: tuple[str, ...]
    episodes: int = 0
    divergences: list[Divergence] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    matrix: InteropMatrix | None = None
    c_fingerprints: dict = field(default_factory=dict)
    traces_sha1: str = ""

    @property
    def clean(self) -> bool:
        return (not self.divergences and not self.violations
                and (self.matrix is None or self.matrix.all_green)
                and all(entry["stable"]
                        for entry in self.c_fingerprints.values()))

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "backends": list(self.backends),
            "episodes": self.episodes,
            "divergences": [d.to_dict() for d in self.divergences],
            "violations": [v.to_dict() for v in self.violations],
            "matrix": self.matrix.to_dict() if self.matrix else {},
            "c_fingerprints": self.c_fingerprints,
            "traces_sha1": self.traces_sha1,
            "clean": self.clean,
        }


class DifferentialRunner:
    """Replays episodes against every backend and scores the matrix.

    ``units`` maps protocol name → IR program (a run's ``code_unit``);
    protocols without a unit can still run their reference backend but
    will fail peer construction for generated backends, so normally every
    fuzzed protocol has its unit present.
    """

    def __init__(self, units: dict[str, object],
                 backends: tuple[str, ...] = EXECUTABLE_BACKENDS) -> None:
        if len(backends) < 2:
            raise ValueError("differential testing needs at least two "
                             f"backends, got {list(backends)}")
        self.units = {name.upper(): unit for name, unit in units.items()}
        self.backends = tuple(backends)

    # -- single-episode surface ------------------------------------------------
    def trace(self, episode: Episode, backend: str) -> dict:
        peer = make_peer(episode.protocol, backend,
                         self.units.get(episode.protocol))
        return replay(episode, peer)

    def run_episode(self, episode: Episode,
                    matrix: InteropMatrix | None = None,
                    ) -> tuple[list[Divergence], list[Violation], dict]:
        """One episode against every backend; returns (divergences,
        violations, traces-by-backend) and scores ``matrix`` if given."""
        traces = {backend: self.trace(episode, backend)
                  for backend in self.backends}
        divergences = []
        agree = {}
        for backend_a, backend_b in itertools.combinations(self.backends, 2):
            left, right = traces[backend_a], traces[backend_b]
            # Backends agree on almost every episode; only a real split
            # pays for the recursive walk that names the differing path.
            found = None if left == right else first_difference(left, right)
            diverged = found is not None
            agree[backend_a, backend_b] = not diverged
            if diverged:
                divergences.append(Divergence(
                    episode=episode, backend_a=backend_a, backend_b=backend_b,
                    path=found[0], left=found[1], right=found[2],
                ))
            if matrix is not None:
                matrix.record(f"{backend_a}|{backend_b}", episode.protocol,
                              episode.family, diverged=diverged)
        # Oracles are pure functions of (episode, trace): each distinct
        # trace is checked once and its verdict reported for every backend
        # that produced it.
        verdicts: dict[str, list[str]] = {}
        for backend, trace in traces.items():
            twin = next((seen for seen in verdicts
                         if agree.get((seen, backend))), None)
            verdicts[backend] = (verdicts[twin] if twin is not None
                                 else check_trace(episode, trace))
        violations = [
            Violation(episode=episode, backend=backend, message=message)
            for backend, messages in verdicts.items()
            for message in messages
        ]
        return divergences, violations, traces

    def diverges(self, episode: Episode) -> bool:
        """Shrink predicate: does this episode still split the backends?"""
        divergences, _violations, _traces = self.run_episode(episode)
        return bool(divergences)

    # -- the C lock --------------------------------------------------------------
    def c_fingerprints(self) -> dict:
        """SHA-1 of each protocol's emitted C source, rendered twice.

        The C backend is text-only; its matrix column is render
        *stability* — the same IR must emit byte-identical C on every
        rendering, or downstream compilation is not reproducible.
        """
        fingerprints = {}
        for protocol, unit in sorted(self.units.items()):
            first = hashlib.sha1(unit.render_c().encode("utf-8")).hexdigest()
            second = hashlib.sha1(unit.render_c().encode("utf-8")).hexdigest()
            fingerprints[protocol] = {"sha1": first,
                                      "stable": first == second}
        return fingerprints

    # -- the fuzz loop ------------------------------------------------------------
    def run(self, episodes: list[Episode], seed: int = 0) -> FuzzReport:
        matrix = InteropMatrix.for_backends(self.backends)
        report = FuzzReport(seed=seed, backends=self.backends, matrix=matrix)
        digest = hashlib.sha1()
        for episode in episodes:
            divergences, violations, traces = self.run_episode(episode, matrix)
            report.divergences.extend(divergences)
            report.violations.extend(violations)
            report.episodes += 1
            digest.update(json.dumps([episode.to_dict(), traces],
                                     sort_keys=True).encode("utf-8"))
        report.c_fingerprints = self.c_fingerprints()
        report.traces_sha1 = digest.hexdigest()
        return report


def run_fuzz(units: dict[str, object], seed: int = 0, episodes: int = 50,
             protocols: tuple[str, ...] = (),
             families: tuple[str, ...] = (),
             backends: tuple[str, ...] = EXECUTABLE_BACKENDS) -> FuzzReport:
    """Generate and run one seeded fuzz campaign (the service entry point)."""
    generator = TraceGenerator(seed=seed, protocols=protocols,
                               families=families)
    runner = DifferentialRunner(units, backends=backends)
    return runner.run(generator.episodes(episodes), seed=seed)
