"""Fixtures shared by every test package."""

import sys
from contextlib import contextmanager

import pytest
from hypothesis import settings

from repro.tuning import evaluator as evaluator_module

#: ``--hypothesis-profile=fuzz``: a longer run of the properties that do
#: not fix their own ``max_examples`` (the CI lexer differential fuzz).
settings.register_profile("fuzz", max_examples=2000, deadline=None)


@pytest.fixture
def scalar_pricing(monkeypatch):
    """A context manager that prices every batch with scalar ``simulate()``.

    Inside the block ``MIN_FAMILY`` exceeds every batch size, so the
    engine never takes the vectorized family-pricing path — the
    reference the parity tests compare that path against.
    """

    @contextmanager
    def scope():
        with monkeypatch.context() as patch:
            patch.setattr(evaluator_module, "MIN_FAMILY", sys.maxsize)
            yield

    return scope
