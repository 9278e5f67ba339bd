"""One Hypothesis profile for the whole suite: derandomized, so every run
draws the same examples, and with no deadline, since the numerical tests'
timing follows the host.  Each test keeps its own ``max_examples``."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
