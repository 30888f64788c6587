"""Tier-1 settings shared by every test file.

The hypothesis tests draw their examples from a seed fixed per test and
keep no example database, so two runs of the suite check the same inputs
and a failure that one run finds shows in the next.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
