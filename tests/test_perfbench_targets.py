"""The benchmark of record (``perfbench/``) wraps named ``repro``
functions and methods for its traced per-layer runs; a rename or merge in
``src/`` must not silently drop one of its spans."""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from perfbench.tracer import _targets  # noqa: E402

from repro.cache import (  # noqa: E402
    PersistentCompiledCache,
    PersistentParseCache,
    PersistentWinnowCache,
)
from repro.rfc.registry import CompiledProgramCache  # noqa: E402


@pytest.mark.parametrize("owner, attribute",
                         [(owner, attribute)
                          for owner, attribute, _name, _value in _targets()])
def test_every_traced_target_resolves(owner, attribute):
    assert callable(getattr(owner, attribute, None)), (
        f"{getattr(owner, '__name__', owner)}.{attribute} is gone"
    )


def test_traced_cache_classes_stay_distinct():
    # The tracer wraps ``get`` per class: aliasing two of these would wrap
    # one method twice and file compiled-program lookups under the
    # persistent-cache span.
    classes = (PersistentParseCache, PersistentWinnowCache,
               PersistentCompiledCache, CompiledProgramCache)
    assert len(set(classes)) == len(classes)
