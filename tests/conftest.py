"""Fixtures shared by every test package."""

from contextlib import contextmanager

import pytest
from hypothesis import settings

from repro.obs import configure_metrics, metrics_enabled

#: ``--hypothesis-profile=fuzz``: a longer run of the properties that do
#: not fix their own ``max_examples`` (the CI lexer differential fuzz,
#: the lane-model parity fuzz and the IR analysis differential fuzz).
settings.register_profile("fuzz", max_examples=2000, deadline=None)


@contextmanager
def counting_simulate_calls():
    """Count :func:`repro.gpu.simulator.simulate` calls in a block.

    Turns metrics on over a fresh registry and yields a callable that
    returns the ``simulate.calls`` counter's growth since its previous
    call (or since the block opened).  On exit the registry is reset
    and metrics go back to their previous setting.
    """
    was_enabled = metrics_enabled()
    registry = configure_metrics(True, reset=True)
    seen = 0

    def calls() -> int:
        nonlocal seen
        total = registry.counter("simulate.calls").value
        taken, seen = total - seen, total
        return taken

    try:
        yield calls
    finally:
        configure_metrics(was_enabled, reset=True)


@pytest.fixture
def simulate_calls():
    """:func:`counting_simulate_calls` around one test."""
    with counting_simulate_calls() as calls:
        yield calls
