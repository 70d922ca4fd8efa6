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
"""

import pytest
from hypothesis import settings

from repro.cache import reset_cache_handles

settings.register_profile("ci", max_examples=300, deadline=None)


@pytest.fixture(autouse=True)
def _no_persistent_cache(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "off")
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_CACHE_MAX_ENTRIES", raising=False)
    reset_cache_handles()
    yield
    reset_cache_handles()
