"""The benchmark of record (``perfbench/``) wraps named ``repro``
functions and methods for its traced per-layer runs and reads the profile
counters by name; a rename or merge in ``src/`` must not silently drop one
of its spans or counters."""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from perfbench.tracer import _profile_counts, _targets  # noqa: E402

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


#: Every profile counter ``perfbench/run.py:layer_metrics`` reads, by group.
#: It reads them with ``.get(name, 0)``, so a renamed counter would report
#: a silent zero rather than fail.
LAYER_METRIC_COUNTERS = {
    "parsing": ("agenda_pops", "span_memo_hits", "span_memo_misses",
                "budget_drops"),
    "disambiguation": ("forms_in", "forms_survived",
                       "type_memo_hits", "type_memo_misses",
                       "canon_memo_hits", "canon_memo_misses"),
}


def test_profile_counts_carry_every_counter_layer_metrics_reads():
    counts = _profile_counts()
    assert set(counts) == set(LAYER_METRIC_COUNTERS)
    for group, names in LAYER_METRIC_COUNTERS.items():
        missing = [name for name in names if name not in counts[group]]
        assert not missing, f"{group} profile lost {missing}"
        assert all(isinstance(value, int)
                   for value in counts[group].values()), group
