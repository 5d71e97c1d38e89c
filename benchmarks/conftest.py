"""Shared fixtures for the reproduction benchmarks.

Each benchmark regenerates one table or figure of the paper.  All pipeline
runs come from two session-scoped :class:`~repro.core.SageEngine` instances
(one per mode) sharing the cached protocol registry: corpora, dictionary,
lexicon, parser, and — through the registry's content-addressed parse cache
— every sentence parse are paid for once across the whole suite.  The four
revised-mode protocol runs are produced by one ``process_corpora`` sweep.
"""

import pytest

from repro.core import SageEngine
from repro.rfc.registry import default_registry


@pytest.fixture(scope="session")
def registry():
    return default_registry()


@pytest.fixture(scope="session")
def strict_engine(registry):
    return SageEngine(mode="strict", protocol_registry=registry)


@pytest.fixture(scope="session")
def revised_engine(registry):
    return SageEngine(mode="revised", protocol_registry=registry)


@pytest.fixture(scope="session")
def revised_runs(revised_engine):
    """All four protocols in one batch call (sequential keeps the parses in
    this process's cache for the fixtures that follow)."""
    return revised_engine.process_corpora()


@pytest.fixture(scope="session")
def icmp_run_strict(strict_engine):
    return strict_engine.process_corpus("ICMP")


@pytest.fixture(scope="session")
def icmp_run_revised(revised_runs):
    return revised_runs["ICMP"]


@pytest.fixture(scope="session")
def igmp_run(revised_runs):
    return revised_runs["IGMP"]


@pytest.fixture(scope="session")
def ntp_run(revised_runs):
    return revised_runs["NTP"]


@pytest.fixture(scope="session")
def bfd_run(revised_runs):
    return revised_runs["BFD"]


def print_table(title: str, headers: list[str], rows: list[tuple]) -> None:
    """Render a paper table to stdout (visible with pytest -s)."""
    print(f"\n=== {title} ===")
    print(" | ".join(str(h) for h in headers))
    for row in rows:
        print(" | ".join(str(cell) for cell in row))
