"""The interop matrix: pass/fail per backend-pair × protocol × family.

Every differential comparison lands in one cell; a cell is green when no
episode in it diverged.  The matrix is the artifact CI gates on — it is
serialized into the fuzz report, which ``scripts/ci.sh fuzz-gate`` writes
to ``FUZZ_matrix.json`` and the workflow uploads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


@dataclass
class MatrixCell:
    episodes: int = 0
    divergences: int = 0

    @property
    def green(self) -> bool:
        return self.divergences == 0

    def to_dict(self) -> dict:
        return {"episodes": self.episodes, "divergences": self.divergences,
                "pass": self.green}


@dataclass
class InteropMatrix:
    """Cells keyed by (backend pair, protocol, scenario family)."""

    pairs: tuple[str, ...] = ()
    cells: dict[tuple[str, str, str], MatrixCell] = field(default_factory=dict)

    @classmethod
    def for_backends(cls, backends: tuple[str, ...]) -> "InteropMatrix":
        pairs = tuple(f"{a}|{b}"
                      for a, b in itertools.combinations(backends, 2))
        return cls(pairs=pairs)

    def record(self, pair: str, protocol: str, family: str,
               diverged: bool) -> None:
        cell = self.cells.setdefault((pair, protocol, family), MatrixCell())
        cell.episodes += 1
        if diverged:
            cell.divergences += 1

    def cell(self, pair: str, protocol: str, family: str) -> MatrixCell:
        return self.cells.get((pair, protocol, family), MatrixCell())

    @property
    def all_green(self) -> bool:
        return all(cell.green for cell in self.cells.values())

    @property
    def divergent_cells(self) -> list[tuple[str, str, str]]:
        return sorted(key for key, cell in self.cells.items()
                      if not cell.green)

    def protocols(self) -> list[str]:
        return sorted({protocol for (_pair, protocol, _family) in self.cells})

    def to_dict(self) -> dict:
        nested: dict[str, dict] = {}
        for (pair, protocol, family), cell in sorted(self.cells.items()):
            nested.setdefault(pair, {}).setdefault(protocol, {})[family] = \
                cell.to_dict()
        return {"pairs": list(self.pairs), "cells": nested,
                "all_green": self.all_green}

    def rows(self) -> list[tuple[str, str, str, int, int, str]]:
        """Flat (pair, protocol, family, episodes, divergences, verdict)
        rows for table rendering."""
        return [
            (pair, protocol, family, cell.episodes, cell.divergences,
             "ok" if cell.green else "DIVERGED")
            for (pair, protocol, family), cell in sorted(self.cells.items())
        ]

