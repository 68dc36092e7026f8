"""Hypothesis profiles.  ``HYPOTHESIS_PROFILE=ci`` draws the same examples
on every run (``derandomize``), with the example counts each test sets, so
a property test passes or fails the same way on every push."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
