"""Hypothesis runs derandomized and without a per-example deadline, so
property tests replay the same examples on every run and do not fail on a
slow or loaded host."""

from hypothesis import settings

settings.register_profile("conflictsim", derandomize=True, deadline=None)
settings.load_profile("conflictsim")
