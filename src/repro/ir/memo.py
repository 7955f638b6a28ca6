"""Memo tables that live exactly as long as the object they describe.

Analyses, plan geometry and pricing structures are pure functions of
immutable IR objects (a :class:`~repro.ir.stencil.ProgramIR` or a
:class:`~repro.ir.stencil.StencilInstance`), and the tuners ask for them
thousands of times per job.  An :class:`OwnerMemo` caches them per
*owner*: each owner object gets its own table, found by ``id(owner)``
and dropped by a :func:`weakref.finalize` the moment the owner is
freed.  The memo never holds the owner itself, so two rules hold:

* a cache entry lives as long as its owner object — when a tuning job
  drops its IR, reference counting frees the cached results with it;
* a cached value (or key) must not reference its owner, or the owner
  could never be freed.

An id cannot be recycled while its table exists: the finalizer runs
when the owner dies, before its memory can be reused.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Dict, Hashable, Optional

from ..obs import counter as _counter
from ..obs import span as _span

__all__ = ["OwnerMemo"]

_MISSING = object()


class OwnerMemo:
    """Per-owner memo tables, each freed together with its owner.

    Given a prefix, a miss adds one to the ``<miss_prefix><tag>``
    counter and computes inside a
    ``<span_prefix><tag>`` span.
    """

    def __init__(self, miss_prefix: Optional[str] = None,
                 span_prefix: Optional[str] = None):
        self._tables: Dict[int, dict] = {}
        self._miss_prefix = miss_prefix
        self._span_prefix = span_prefix

    def get(self, owner: Any, key: Hashable, tag: str,
            compute: Callable[[], Any]) -> Any:
        """The value cached for ``(owner, key)``, computed on a miss.

        ``key`` must determine the value together with the owner;
        ``tag`` names the analysis in the miss counter and span.
        """
        table = self._tables.get(id(owner))
        if table is None:
            table = self._table(owner)
        value = table.get(key, _MISSING)
        if value is not _MISSING:
            return value
        if self._miss_prefix is not None:
            _counter(self._miss_prefix + tag).add()
        if self._span_prefix is None:
            value = compute()
        else:
            with _span(self._span_prefix + tag):
                value = compute()
        table[key] = value
        return value

    def _table(self, owner: Any) -> dict:
        key = id(owner)
        table = self._tables[key] = {}
        finalizer = weakref.finalize(owner, self._tables.pop, key, None)
        finalizer.atexit = False
        return table

    def clear(self) -> None:
        """Drop every cached value; owners keep their (empty) tables."""
        for table in list(self._tables.values()):
            table.clear()

    def __len__(self) -> int:
        return sum(len(table) for table in list(self._tables.values()))
