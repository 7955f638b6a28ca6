"""Fixtures shared by every test package."""

from hypothesis import settings

#: ``--hypothesis-profile=fuzz``: a longer run of the properties that do
#: not fix their own ``max_examples`` (the CI lexer differential fuzz
#: and the lane-model parity fuzz).
settings.register_profile("fuzz", max_examples=2000, deadline=None)
