"""Fixtures shared by every test package."""

from contextlib import contextmanager

import pytest
from hypothesis import settings

from repro.obs import get_metrics

#: ``--hypothesis-profile=fuzz``: a longer run of the properties that do
#: not fix their own ``max_examples`` (the CI lexer differential fuzz,
#: the lane-model parity fuzz and the IR analysis differential fuzz).
settings.register_profile("fuzz", max_examples=2000, deadline=None)


@contextmanager
def counting_simulate_calls():
    """Count :func:`repro.gpu.simulator.simulate` calls in a block.

    Yields a callable that returns the growth of the always-on
    ``simulate.calls`` counter since its previous call (or since the
    block opened).
    """
    seen = get_metrics().counter("simulate.calls").value

    def calls() -> int:
        nonlocal seen
        total = get_metrics().counter("simulate.calls").value
        taken, seen = total - seen, total
        return taken

    yield calls


@pytest.fixture
def simulate_calls():
    """:func:`counting_simulate_calls` around one test."""
    with counting_simulate_calls() as calls:
        yield calls
