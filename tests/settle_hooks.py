"""Fault hooks on the evaluation engine's request seam.

``PlanEvaluator._settle(res, family, levels)`` settles one priced
family at a time and writes each lane's memo key and disposition into
the columns of the batch's ``Resolution`` (``keys`` and
``disposition``), lane by lane in input order.  A hook wraps the seam
on one engine and swaps one of those columns for a :class:`Trap`, which
raises on the first write that matches, before the lane's verdict is
recorded or memoized: the lanes settled before it are counted and
logged, and the run ends on that lane.
"""


class Trap(list):
    """A ``Resolution`` column that raises ``error`` when a value for
    which ``fires(family, value)`` holds is written into it while
    ``family`` is being settled."""

    def __init__(self, column, fires, error):
        super().__init__(column)
        self.fires = fires
        self.error = error
        self.family = None

    def __setitem__(self, index, value):
        if self.fires(self.family, value):
            raise self.error
        super().__setitem__(index, value)


def trap_settle(engine, column, fires, message="model bug"):
    """Make ``engine`` raise ``RuntimeError(message)`` when its seam
    writes a value into ``column`` for which ``fires(family, value)``
    holds."""
    settle = engine._settle

    def trapped(res, family, *args):
        trap = getattr(res, column)
        if not isinstance(trap, Trap):
            trap = Trap(trap, fires, RuntimeError(message))
            setattr(res, column, trap)
        trap.family = family
        return settle(res, family, *args)

    engine._settle = trapped


def requests_in_settle_order(engine):
    """Record every request ``engine`` settles as ``(resolution,
    lane)``, family by family and in input order within a family."""
    settle = engine._settle
    requests = []

    def recording(res, family, *args):
        settle(res, family, *args)
        requests.extend(
            (res, i) for i in family.members
            if res.disposition[i] is not None
        )

    engine._settle = recording
    return requests
