"""Terminating value iteration for two-clock kernel games.

All locations and transitions weigh 0 here; only the exit costs matter.
Non-goal locations live on 1-D region boundaries, so after the circular
clock difference change of variable every iterate is a one-variable
piecewise-linear function, drawn from a finite family — which is what makes
the iteration terminate.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .core import (
    MIN,
    DomainError,
    Location,
    StructuralError,
    Transition,
    Valuation,
    frac,
)
from .geometry import clip_halfplane, polygon_area2, triangulate
from .plf import (
    PLF1,
    PLF2,
    Segment,
    canonicalize,
    equals,
    fiber_extremum,
    pointwise_extremum,
    restrict2,
    running_extremum,
)

ZERO, ONE = Fraction(0), Fraction(1)
UNIT_SQUARE = ((ZERO, ZERO), (ONE, ZERO), (ONE, ONE), (ZERO, ONE))

# 1-D region closure shapes of non-goal kernel locations
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


def compose_affine(w: PLF2, mat, off, domain) -> PLF2:
    """The PLF2 p -> w(mat @ p + off) over a convex polygon ``domain``."""
    if w.is_infinite:
        return PLF2.infinite(domain)
    (axx, axy), (ayx, ayy) = mat
    bx, by = off
    cells = []
    for tri, (ca, cb, cc) in w.cells:
        poly = domain
        for i in range(3):
            p, q = tri[i], tri[(i + 1) % 3]
            # inside (CCW): la*X + lb*Y <= lc with X, Y the image coordinates
            la, lb = q[1] - p[1], p[0] - q[0]
            lc = la * p[0] + lb * p[1]
            poly = clip_halfplane(
                poly,
                la * axx + lb * ayx,
                la * axy + lb * ayy,
                lc - la * bx - lb * by)
            if not poly:
                break
        if len(poly) < 3 or polygon_area2(poly) <= 0:
            continue
        coef = (ca * axx + cb * ayx, ca * axy + cb * ayy,
                ca * bx + cb * by + cc)
        for t in triangulate(poly):
            cells.append((t, coef))
    if not cells:
        raise DomainError("affine image escapes the output function domain")
    return PLF2(tuple(cells))


class OutputValue:
    """Exit-cost function on a goal region, stored as a PLF2 over the unit
    square (1-D outputs are extended constantly along the unused axis)."""

    def __init__(self, plf2: PLF2):
        self.plf2 = plf2

    @classmethod
    def constant(cls, value) -> "OutputValue":
        return cls(PLF2.affine(UNIT_SQUARE, (0, 0, frac(value))))

    @classmethod
    def on_y(cls, f: PLF1) -> "OutputValue":
        """Extend a PLF1 in the y coordinate: w(x, y) = f(y)."""
        return cls(cls._extend(f, axis=1))

    @classmethod
    def on_x(cls, f: PLF1) -> "OutputValue":
        return cls(cls._extend(f, axis=0))

    @staticmethod
    def _extend(f: PLF1, axis: int) -> PLF2:
        if f.is_infinite:
            return PLF2.infinite(UNIT_SQUARE)
        if f.is_point:
            return PLF2.affine(UNIT_SQUARE, (0, 0, f.points[0][1]))
        if (f.lo, f.hi) != (ZERO, ONE):
            raise DomainError("1-D output must cover [0, 1]")
        cells = []
        for u1, u2, slope, intercept in f.segments():
            coef = ((slope, 0, intercept) if axis == 0
                    else (0, slope, intercept))
            strip = (((u1, ZERO), (u2, ZERO), (u2, ONE), (u1, ONE))
                     if axis == 0 else
                     ((ZERO, u1), (ONE, u1), (ONE, u2), (ZERO, u2)))
            for t in triangulate(strip):
                cells.append((t, coef))
        return PLF2(tuple(cells))

    def eval(self, v: Valuation) -> Fraction:
        return self.plf2((frac(v[0]), frac(v[1])))

    def __call__(self, v: Valuation) -> Fraction:
        return self.eval(v)


@dataclass
class KernelGame:
    """Zero-weight game on 1-D regions with piecewise-linear exit costs."""

    locations: dict[str, Location]
    transitions: list[Transition]
    shapes: dict[str, str]       # non-goal location -> ON_Y | ON_X | POINT
    w_out: dict[str, OutputValue]
    entrance: str

    def __post_init__(self):
        for name, loc in self.locations.items():
            if loc.is_goal:
                if name not in self.w_out:
                    raise StructuralError(f"goal {name} has no output")
            else:
                if loc.weight != 0:
                    raise StructuralError(f"kernel location {name} weighted")
                if self.shapes.get(name) not in (ON_Y, ON_X, POINT):
                    raise StructuralError(f"no region shape for {name}")
        for t in self.transitions:
            if t.weight != 0:
                raise StructuralError(f"kernel transition {t.tid} weighted")
            tgt = self.locations[t.tgt]
            if not tgt.is_goal and not t.resets:
                raise StructuralError(
                    f"non-goal transition {t.tid} resets nothing")

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


def _fire_map(shape: str):
    """Affine map (Delta, delta) -> firing valuation, plus the delay bound
    delta <= bound_a * Delta + bound_c."""
    if shape == ON_Y:
        # nu = (0, Delta), fire at (delta, Delta + delta), delta <= 1 - Delta
        return ((ZERO, ONE), (ONE, ONE)), (ZERO, ZERO), (-ONE, ONE)
    if shape == ON_X:
        # nu = (1 - Delta, 0), fire at (1 - Delta + delta, delta), delta <= Delta
        return ((-ONE, ONE), (ZERO, ONE)), (ONE, ZERO), (ONE, ZERO)
    # nu = (0, 0), fire at (delta, delta), delta <= 1
    return ((ZERO, ONE), (ZERO, ONE)), (ZERO, ZERO), (ZERO, ONE)


def _pinned_delay(shape: str, pins) -> Optional[tuple[Fraction, Fraction]]:
    """delta = a * Delta + c forced by an equality guard, if any.

    Pins that would restrict the Delta domain instead of fixing the delay
    indicate a trimming bug and raise.
    """
    full = {
        ON_Y: {(0, 0): (ZERO, ZERO), (1, 1): (-ONE, ONE)},
        ON_X: {(1, 0): (ZERO, ZERO), (0, 1): (ONE, ZERO)},
        POINT: {(0, 0): (ZERO, ZERO), (1, 0): (ZERO, ZERO),
                (0, 1): (ZERO, ONE), (1, 1): (ZERO, ONE)},
    }[shape]
    found = None
    for pin in pins:
        if pin not in full:
            raise StructuralError(
                f"guard {pin} restricts the domain of a {shape} region")
        if found is not None and full[pin] != found:
            raise StructuralError("contradictory equality guards")
        found = full[pin]
    return found


def project_output(t: Transition, w: OutputValue, shape: str,
                   owner: str) -> PLF1:
    """Opt of a goal transition: best exit cost as a function of Delta."""
    direction = "inf" if owner == MIN else "sup"
    mat, off, (ba, bc) = _fire_map(shape)
    pins = _pinned_delay(shape, _eq_guards(t.guards))

    (axx, axy), (ayx, ayy) = mat
    rows = [(axx, axy, off[0]), (ayx, ayy, off[1])]
    for c in t.resets:
        rows[c] = (ZERO, ZERO, ZERO)
    if shape == POINT:
        # one-dimensional search over the delay
        seg = Segment((rows[0][1] * ZERO + rows[0][2], rows[1][2]),
                      (rows[0][1] + rows[0][2], rows[1][1] + rows[1][2]))
        prof = restrict2(w.plf2, seg)
        if prof.is_infinite:
            return PLF1.infinite()
        # a point profile (both clocks reset) lands in one place for any delay
        if pins is not None and not prof.is_point:
            return PLF1.point(prof(pins[1]))
        val = prof.min_value() if direction == "inf" else prof.max_value()
        return PLF1.point(val)
    if pins is not None:
        a, c = pins
        # landed point as a function of Delta only
        def land(dv: Fraction):
            d = a * dv + c
            return (rows[0][0] * dv + rows[0][1] * d + rows[0][2],
                    rows[1][0] * dv + rows[1][1] * d + rows[1][2])
        prof = canonicalize(restrict2(w.plf2, Segment(land(ZERO), land(ONE))))
        # a point profile (both clocks reset) lands in one place for any Delta
        return PLF1.constant(prof.points[0][1]) if prof.is_point else prof
    # full 2-D problem over {0 <= Delta <= 1, 0 <= delta <= ba*Delta + bc}
    domain = ((ZERO, ZERO), (ONE, ZERO), (ONE, ba + bc), (ZERO, bc))
    domain = tuple(dict.fromkeys(domain))
    lmat = ((rows[0][0], rows[0][1]), (rows[1][0], rows[1][1]))
    loff = (rows[0][2], rows[1][2])
    composed = compose_affine(w.plf2, lmat, loff, domain)
    return canonicalize(fiber_extremum(composed, direction))


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
    transitions = []
    for t in g.transitions:
        if t.tgt == i:
            t = replace(t, tgt=copy)
        transitions.append(t)
    for t in g.outgoing(i):
        transitions.append(replace(t, tid=f"{t.tid}~in", src=copy))
    g2 = KernelGame(locations, transitions, shapes, dict(g.w_out), i)
    return g2, copy


def iterate(g: KernelGame, k_cap: int = 10000) -> ViResult:
    """Value-iterate to the fixed point; the entrance is finished one step
    after everything else since nothing feeds back into it."""
    g, _copy = _add_entrance_copy(g)
    non_goals = [n for n, l in g.locations.items() if not l.is_goal]
    projected = {}
    for t in g.transitions:
        if g.locations[t.tgt].is_goal:
            projected[t.tid] = project_output(
                t, g.w_out[t.tgt], g.shapes[t.src],
                g.locations[t.src].owner)
    table = {n: PLF1.infinite() for n in non_goals}
    steps = 0
    while True:
        if steps > k_cap:
            raise StructuralError(
                f"kernel value iteration exceeded {k_cap} steps")
        steps += 1
        nxt = {}
        for n in non_goals:
            owner = g.locations[n].owner
            direction = "inf" if owner == MIN else "sup"
            opts = []
            for t in g.outgoing(n):
                if t.tid in projected:
                    opts.append(projected[t.tid])
                else:
                    opts.append(step_transition(
                        t, table[t.tgt], g.shapes[n], owner))
            if not opts:
                nxt[n] = PLF1.infinite()
                continue
            opts = [_on_domain(f, g.shapes[n]) for f in opts]
            nxt[n] = pointwise_extremum(opts, direction)
            if not _le(nxt[n], table[n]):
                raise StructuralError(f"Opt increased at {n} (step {steps})")
        stable = all(equals(nxt[n], table[n]) for n in non_goals
                     if n != g.entrance)
        table = nxt
        if stable:
            break
    return ViResult({n: table[n] for n in non_goals}, steps, g.entrance)


def _on_domain(f: PLF1, shape: str) -> PLF1:
    if shape == POINT and not (f.is_point or f.is_infinite):
        return PLF1.point(f(ZERO))
    return f


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
