"""Hypothesis profiles for the test suite.

`HYPOTHESIS_PROFILE=ci` makes every property test draw the same examples on
every run and print a failing example's reproduction blob, so a failure on
another machine's BLAS or numpy reproduces locally with the same setting.
Without it, hypothesis's default profile applies.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
