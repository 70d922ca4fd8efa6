"""Shared fixtures: keep the persistent result cache out of the tests.

The on-disk cache (:mod:`repro.cache`) defaults to ON under the user's
cache directory, which is right for real runs but wrong for tests — they
must be hermetic, deterministic, and unable to poison (or be poisoned
by) a developer's store.  Every test therefore runs with ``REPRO_CACHE``
off; cache-specific tests re-enable it against a ``tmp_path`` via their
own ``monkeypatch.setenv`` calls (which land after this fixture).

The environment variable (rather than an in-process flag) is the switch
because it crosses the ``spawn`` boundary to the resilient runner's
worker processes.

The ``ci`` hypothesis profile (``--hypothesis-profile=ci``) widens the
example budget of the differential suites
(``tests/test_dse_differential.py``,
``tests/dataflow/test_restricted_differential.py`` and
``tests/sim/test_baseline_differential.py``); without it each runs a
small derandomized slice.

``per_pe_loop`` reaches the FlexFlow simulator's per-PE loop, the oracle
of its tile engine: inside ``with per_pe_loop():`` no layer's last-push
tables fit ``TileEngine.MAX_TABLE_BYTES``.
"""

from unittest import mock

import pytest
from hypothesis import settings

from repro.cache import reset_cache_handles

settings.register_profile("ci", max_examples=300, deadline=None)


@pytest.fixture(autouse=True)
def _no_persistent_cache(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "off")
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    reset_cache_handles()
    yield
    reset_cache_handles()


@pytest.fixture(scope="session")
def per_pe_loop():
    """A context-manager factory: FlexFlow layers run inside it take the
    per-PE loop.  Session-scoped, so hypothesis tests may use it too."""
    from repro.sim.tile_engine import TileEngine

    return lambda: mock.patch.object(TileEngine, "MAX_TABLE_BYTES", 0)
