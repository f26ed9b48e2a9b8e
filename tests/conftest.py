"""Shared test settings.

Hypothesis runs derandomized (examples derived from each test's source, not
from a fresh random seed), without an example database and without
per-example deadlines, so the suite gives the same verdict on every run and
on slow machines.  Every test starts with an empty eigenvalue memo, so no
verdict depends on which tests solved which matrices before it.
"""

import pytest
from hypothesis import settings

from openchaos import spectral

settings.register_profile("openchaos", derandomize=True, database=None, deadline=None, print_blob=True)
settings.load_profile("openchaos")


@pytest.fixture(autouse=True)
def _empty_eigenvalue_memo():
    spectral._memo.clear()
