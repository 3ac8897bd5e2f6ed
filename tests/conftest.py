"""Hypothesis runs the same examples on every run: each property test's
examples come from a seed derived from the test itself, and no example
database replays earlier failures, so no test passes or fails by luck."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
