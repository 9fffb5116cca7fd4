"""Test-suite settings: every property test draws the same examples on every
run, keeps no example database, and has no per-example deadline."""

from hypothesis import settings

settings.register_profile("fixed", derandomize=True, database=None, deadline=None)
settings.load_profile("fixed")
