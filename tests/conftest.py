"""Hypothesis draws the same examples on every run, so two runs of the
suite, or runs on two commits, test the same inputs."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
