"""Process-wide metrics registry: named counters that always count.

The pipeline's layers count what they do into one registry: the
simulator's calls and occupancy refusals, the lint prescreen's
rejections per rule, the analysis and tiling memo misses, the lane
model's passes and lanes, the tuner's per-stage candidate counts.  Each
count has one owner, the module that does the counted work.

The evaluation engine's own statistics stay in its
:class:`~repro.tuning.evaluator.EvalStats`: one process may hold several
engines (tests, a baseline's unvalidated engine), and a process-wide
counter cannot be scoped to one of them.  :func:`run_series` renders the
registry plus one run's ``EvalStats`` as the ``eval.*`` series, and that
one mapping is what ``--metrics`` prints, a ``--trace`` file carries
under ``otherData.metrics`` and a ``/metrics`` scrape exposes.

Counters are thread-safe (one lock each), so the ``--metrics-port``
server thread reads consistent values while the run updates them.

API::

    from repro.obs import counter, get_metrics

    counter("my.events").add()
    get_metrics().snapshot()   # {"my.events": 1, ...}
"""

from __future__ import annotations

import threading
from typing import Dict, Union

__all__ = [
    "Counter",
    "MetricsRegistry",
    "configure_metrics",
    "counter",
    "get_metrics",
    "run_series",
]

Number = Union[int, float]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value: Number = 0
        self._lock = threading.Lock()

    def add(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> Number:
        return self._value


class MetricsRegistry:
    """Named counters, created on first use, snapshot-able as plain JSON."""

    def __init__(self):
        self._metrics: Dict[str, Counter] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.setdefault(name, Counter(name))
        return metric

    def snapshot(self) -> Dict[str, Number]:
        """Every counter's value, sorted by name (JSON-ready)."""
        with self._lock:
            metrics = dict(self._metrics)
        return {name: metrics[name].value for name in sorted(metrics)}

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()

    def __len__(self) -> int:
        return len(self._metrics)


# ---------------------------------------------------------------------------
# process-wide registry
# ---------------------------------------------------------------------------

_REGISTRY = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _REGISTRY


def configure_metrics(reset: bool = False) -> MetricsRegistry:
    """The process-wide registry, emptied first when ``reset``."""
    if reset:
        _REGISTRY.reset()
    return _REGISTRY


def counter(name: str) -> Counter:
    return _REGISTRY.counter(name)


def run_series(eval_stats=None) -> Dict[str, Number]:
    """One run's metrics: the registry's counters plus ``eval_stats``.

    ``eval_stats`` (an :class:`~repro.tuning.evaluator.EvalStats`, or
    None for a run without an engine) becomes the ``eval.<field>``
    series.  ``eval.wall_s`` is the engine's busy seconds, left out
    when the engine measured nothing.  Sorted by name.
    """
    series = _REGISTRY.snapshot()
    if eval_stats is not None:
        for name, value in eval_stats.as_dict().items():
            if name != "wall_s" or value:
                series[f"eval.{name}"] = value
    return dict(sorted(series.items()))
