"""Terminating value iteration for two-clock kernel games.

All locations and transitions weigh 0 here; only the exit costs matter.
Kernel locations live on 1-D region boundaries, so after the circular
clock difference change of variable every iterate is a one-variable
piecewise-linear function, drawn from a finite family — which is what makes
the iteration terminate.  The exit costs come in that coordinate too: the
caller costs each way out of the kernel as a one-variable function of Delta
(:mod:`.unfold` does it along flow lines, as for any other location).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .core import (
    MIN,
    DomainError,
    Location,
    StructuralError,
    Transition,
    Valuation,
    frac,
)
from .plf import (
    PLF1,
    equals,
    pointwise_extremum,
    running_extremum,
)

ZERO = Fraction(0)

# 1-D region closure shapes of kernel locations
ON_Y = "y"    # {(0, y) : y in [0,1]}
ON_X = "x"    # {(x, 0) : x in [0,1]}
POINT = "pt"  # {(0, 0)}


def delta(v: Valuation) -> Fraction:
    """Circular clock difference on the boundary of the unit square."""
    x, y = frac(v[0]), frac(v[1])
    if x == 0:
        return y
    if y == 0:
        return 1 - x
    raise DomainError(f"valuation {v} not on a 1-D boundary region")


@dataclass
class KernelGame:
    """Zero-weight game on 1-D regions.  ``exits`` holds, per location, the
    cost of each way out of the game as a function of Delta."""

    locations: dict[str, Location]
    transitions: list[Transition]
    shapes: dict[str, str]        # location -> ON_Y | ON_X | POINT
    exits: dict[str, list[PLF1]]
    entrance: str

    def __post_init__(self):
        for name, loc in self.locations.items():
            if loc.is_goal or loc.weight != 0:
                raise StructuralError(
                    f"kernel location {name} is a goal or weighted")
            if self.shapes.get(name) not in (ON_Y, ON_X, POINT):
                raise StructuralError(f"no region shape for {name}")
        for t in self.transitions:
            if t.weight != 0:
                raise StructuralError(f"kernel transition {t.tid} weighted")
            if not t.resets:
                raise StructuralError(f"kernel transition {t.tid} resets "
                                      f"nothing")

    def outgoing(self, name: str) -> list[Transition]:
        return [t for t in self.transitions if t.src == name]


@dataclass
class ViResult:
    functions: dict[str, PLF1]
    steps: int
    entrance: str


def _eq_guards(guards) -> dict[tuple[int, int], bool]:
    pins = {}
    for g in guards:
        if g.op == "==":
            if g.bound not in (0, 1):
                raise StructuralError(f"guard bound {g.bound} out of [0,1]")
            pins[(g.clock, g.bound)] = True
        elif g.op in ("<", ">"):
            raise StructuralError("kernel games must be relaxed")
    return pins


def step_transition(t: Transition, opt_target: PLF1, shape: str,
                    owner: str) -> PLF1:
    """Opt of a non-goal transition from the target's current Opt."""
    direction = "inf" if owner == MIN else "sup"
    pins = _eq_guards(t.guards)
    if opt_target.is_infinite:
        return PLF1.infinite()
    if len(t.resets) == 2:
        return PLF1.constant(opt_target(ZERO)) if shape != POINT \
            else PLF1.point(opt_target(ZERO))
    preserving = {ON_Y: ((0, 0), (1, 1)), ON_X: ((1, 0), (0, 1))}
    if shape == POINT:
        val = opt_target.min_value() if direction == "inf" \
            else opt_target.max_value()
        return PLF1.point(val)
    if any(p in pins for p in preserving[shape]):
        if opt_target.is_point:
            raise StructuralError(
                f"transition {t.tid}: point-domain target under a "
                f"Delta-preserving guard")
        return opt_target
    if opt_target.is_point:
        # only Delta' = 0 is available on the other side
        return PLF1.constant(opt_target.points[0][1])
    side = "suffix" if shape == ON_Y else "prefix"
    return running_extremum(opt_target, side, direction)


def _add_entrance_copy(g: KernelGame) -> tuple[KernelGame, str]:
    """Redirect every transition entering the entrance to a fresh copy, so
    the entrance itself has no incoming edges."""
    i = g.entrance
    if not any(t.tgt == i for t in g.transitions):
        return g, i
    copy = f"{i}~in"
    locations = dict(g.locations)
    locations[copy] = replace(g.locations[i], name=copy)
    shapes = dict(g.shapes)
    shapes[copy] = g.shapes[i]
    exits = dict(g.exits)
    exits[copy] = g.exits[i]
    transitions = []
    for t in g.transitions:
        if t.tgt == i:
            t = replace(t, tgt=copy)
        transitions.append(t)
    for t in g.outgoing(i):
        transitions.append(replace(t, tid=f"{t.tid}~in", src=copy))
    g2 = KernelGame(locations, transitions, shapes, exits, i)
    return g2, copy


def iterate(g: KernelGame, k_cap: int = 10000) -> ViResult:
    """Value-iterate to the fixed point; the entrance is finished one step
    after everything else since nothing feeds back into it."""
    g, _copy = _add_entrance_copy(g)
    table = {n: PLF1.infinite() for n in g.locations}
    steps = 0
    while True:
        if steps > k_cap:
            raise StructuralError(
                f"kernel value iteration exceeded {k_cap} steps")
        steps += 1
        nxt = {}
        for n, loc in g.locations.items():
            direction = "inf" if loc.owner == MIN else "sup"
            opts = list(g.exits[n])
            for t in g.outgoing(n):
                opts.append(step_transition(
                    t, table[t.tgt], g.shapes[n], loc.owner))
            if not opts:
                nxt[n] = PLF1.infinite()
                continue
            nxt[n] = pointwise_extremum(opts, direction)
            if not _le(nxt[n], table[n]):
                raise StructuralError(f"Opt increased at {n} (step {steps})")
        stable = all(equals(nxt[n], table[n]) for n in g.locations
                     if n != g.entrance)
        table = nxt
        if stable:
            break
    return ViResult(table, steps, g.entrance)


def _le(f: PLF1, g: PLF1) -> bool:
    """Pointwise f <= g (g may be +inf)."""
    if g.is_infinite:
        return True
    if f.is_infinite:
        return False
    xs = {x for x, _ in f.points} | {x for x, _ in g.points}
    return all(f(x) <= g(x) for x in xs)


def value_at(res: ViResult, loc: str, v: Valuation) -> Fraction:
    f = res.functions[loc]
    if f.is_point:
        d = delta(v)
        if d != f.points[0][0]:
            raise DomainError(f"{v} outside the domain of {loc}")
        return f.points[0][1]
    return f(delta(v))
