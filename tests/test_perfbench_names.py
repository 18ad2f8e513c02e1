"""The engine names the benchmark harness looks up must exist.

``perfbench/tracing.py`` wraps every ``(module, attribute)`` of
``SPAN_TARGETS`` with ``getattr``, and ``perfbench/run.py`` reads
``cache_info()`` of two ``fock`` index caches, so renaming one of them
breaks ``perfbench/run.py --trace 1`` though no other test would notice.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from flyqsim import fock

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def span_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.SPAN_TARGETS


@pytest.mark.parametrize("name, module, attribute", span_targets())
def test_every_span_target_exists(name, module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute)), name


@pytest.mark.parametrize("cache", [fock.rail_occupied_indices,
                                   fock.pair_occupied_indices])
def test_index_caches_report_their_statistics(cache):
    info = cache.cache_info()
    assert info.hits >= 0 and info.misses >= 0
