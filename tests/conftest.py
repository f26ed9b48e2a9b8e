"""Shared test settings.

Hypothesis runs derandomized (examples derived from each test's source, not
from a fresh random seed), without an example database and without
per-example deadlines, so the suite gives the same verdict on every run and
on slow machines.
"""

from hypothesis import settings

settings.register_profile("openchaos", derandomize=True, database=None, deadline=None, print_blob=True)
settings.load_profile("openchaos")
