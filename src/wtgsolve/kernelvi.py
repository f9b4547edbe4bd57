"""Terminating value iteration for two-clock kernel games.

A kernel is a strongly connected component of zero-weight locations and
transitions, every transition resetting a clock.  Its value functions are
the fixed point of the one-step operator that values a plain location,
applied with all weights 0 (the semi-unfolding scheme of Busatto-Gaston,
Monmege and Reynier, FoSSaCS 2017).  The caller supplies that operator as
``step``: :func:`.unfold._kernel_values` costs each exit against the value
behind it, and each inner transition against the current table, along flow
lines as for any other location.  Kernel locations live on the axes or at
the origin, so every iterate is a one-variable piecewise-linear function,
drawn from a finite family -- which is what makes the iteration terminate.

Iterating in the circular clock difference Delta instead (y on the y-axis,
1 - x on the x-axis) takes exactly as many steps: every iterate here is
that one read through a fixed bijection, the identity on the y-axis and
x = 1 - Delta on the x-axis.  Nor does it change the count to check, in
place of the entrance, a copy of it that takes every move into it: the copy
has the entrance's moves and exits, so its iterate equals the entrance's at
every step.
"""
from __future__ import annotations

from collections import namedtuple

from .core import Location, StructuralError, Transition

K_CAP = 10000  # the most steps an iteration may take


class KernelGame:
    """Zero-weight game.  ``step`` maps a table of values per location to
    the next one, and ``top`` is the table that is +inf everywhere."""

    def __init__(self, locations: dict[str, Location],
                 transitions: list[Transition], top: dict, step):
        for name, loc in locations.items():
            if loc.is_goal or loc.weight != 0:
                raise StructuralError(
                    f"kernel location {name} is a goal or weighted")
        for t in transitions:
            if t.weight != 0:
                raise StructuralError(f"kernel transition {t.tid} weighted")
            if not t.resets:
                raise StructuralError(f"kernel transition {t.tid} resets "
                                      f"nothing")
        self.locations, self.transitions = locations, transitions
        self.top, self.step = top, step


ViResult = namedtuple("ViResult", "functions steps")


def iterate(g: KernelGame) -> ViResult:
    """Apply ``g.step`` from +inf until the table stops changing.  Values
    only decrease; an increase, or more than :data:`K_CAP` steps, raises
    :class:`StructuralError`."""
    table = g.top
    for steps in range(1, K_CAP + 1):
        nxt = g.step(table)
        for n in g.locations:
            if not nxt[n] <= table[n]:
                raise StructuralError(f"Opt increased at {n} (step {steps})")
        if nxt == table:
            return ViResult(nxt, steps)
        table = nxt
    raise StructuralError(f"kernel value iteration exceeded {K_CAP} steps")
