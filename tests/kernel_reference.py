"""The kernel solver as it was before it costed everything along flow lines,
kept to check :mod:`wtgsolve.kernelvi` and :mod:`wtgsolve.unfold` against.

Two layers of it live here.  The first is the general 2-D costing of
kernel exits.  An exit-cost function is a ``PLF2``: a continuous
piecewise-affine function over a convex polygon in [0,1]^2, stored as a
triangulation with one affine coefficient triple per cell (the exact polygon
helpers come first).  :func:`restrict2` and :func:`fiber_extremum` reduce
one to a PLF1 through :func:`envelope_pieces`, the pointwise extremum of
partial affine pieces.  :func:`project_output` takes the best exit cost over
the delays from a 1-D boundary region, as a function of the kernel's Delta
coordinate, and :func:`_to_output` turns the value behind an exit into such
a function.  :class:`ExitGame` is a kernel game whose exits lead to goal
locations with these costs; its :meth:`ExitGame.kernel_game` projects the
exits for ``kernelvi.iterate``.

The second is the one-step operator in Delta, the circular clock difference
on the boundary of the unit square: y on the y-axis, 1 - x on the x-axis.
:func:`step_transition` costs an inner transition with its own guard case
analysis, :func:`delta_game` makes the operator the ``step`` of a
``kernelvi.KernelGame``, and :func:`_kernel_values` solves a component of a
region game with it, its exits costed by :func:`_exit_cost` along flow lines
and read in Delta.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from wtgsolve import kernelvi
from wtgsolve.core import (INF, MIN, DomainError, Location, StructuralError,
                           Transition, Valuation, frac)
from wtgsolve.kernelvi import KernelGame
from wtgsolve.plf import (PLF1, canonicalize, eval1, pointwise_extremum,
                          running_extremum)
from wtgsolve.regions import Region, RegionGame
from wtgsolve.unfold import NodeValue, _one_step, _param_axis

from plf_reference import reversed_domain

Point = tuple[Fraction, Fraction]
Coef = tuple[Fraction, Fraction, Fraction]
Polygon = tuple[Point, ...]

ZERO = Fraction(0)
ONE = Fraction(1)

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


def equals(f: PLF1, g: PLF1) -> bool:
    """Exact function equality (canonical forms compared)."""
    if f.is_infinite or g.is_infinite:
        return f.is_infinite and g.is_infinite
    return canonicalize(f).points == canonicalize(g).points


def min_value(f: PLF1):
    return INF if f.is_infinite else min(y for _, y in f.points)


def max_value(f: PLF1):
    return INF if f.is_infinite else max(y for _, y in f.points)


def segments(f: PLF1):
    """Yield (x1, x2, slope, intercept) for each linear piece of f."""
    for (x1, y1), (x2, y2) in zip(f.points, f.points[1:]):
        a = (y2 - y1) / (x2 - x1)
        yield x1, x2, a, y1 - a * x1


def envelope_pieces(pieces, lo, hi, direction: str) -> PLF1:
    """Pointwise extremum of partial affine pieces covering [lo, hi].

    ``pieces`` is a list of ``(x1, x2, a, b)``: the affine function ``a*x+b``
    available on ``[x1, x2]``.  Every point of [lo, hi] must be covered, and
    the resulting extremum must be continuous (guaranteed for the geometric
    uses in this module); a violation raises :class:`DomainError`.
    """
    if direction not in ("inf", "sup"):
        raise ValueError(direction)
    lo, hi = Fraction(lo), Fraction(hi)
    if lo == hi:
        vals = [a * lo + b for x1, x2, a, b in pieces if x1 <= lo <= x2]
        if not vals:
            raise DomainError("envelope coverage gap at point domain")
        return PLF1.point(min(vals) if direction == "inf" else max(vals), lo)
    clipped = []
    for x1, x2, a, b in pieces:
        x1, x2 = max(x1, lo), min(x2, hi)
        if x1 <= x2:
            clipped.append((x1, x2, a, b))
    pieces = clipped
    xs = {lo, hi}
    for x1, x2, _, _ in pieces:
        xs.add(x1)
        xs.add(x2)
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            x1, x2, a1, b1 = pieces[i]
            u1, u2, a2, b2 = pieces[j]
            if a1 == a2:
                continue
            xc = (b2 - b1) / (a1 - a2)
            if max(x1, u1) <= xc <= min(x2, u2):
                xs.add(xc)
    grid = sorted(x for x in xs if lo <= x <= hi)
    better = min if direction == "inf" else max
    points = []
    prev_right = None
    for u, v in zip(grid, grid[1:]):
        if u == v:
            continue
        active = [(a, b) for x1, x2, a, b in pieces if x1 <= u and x2 >= v]
        if not active:
            raise DomainError(f"envelope coverage gap on [{u}, {v}]")
        mid = (u + v) / 2
        a, b = better(active, key=lambda ab: ab[0] * mid + ab[1])
        yu, yv = a * u + b, a * v + b
        if prev_right is not None and prev_right != yu:
            raise DomainError(
                f"discontinuous envelope at x={u}: {prev_right} vs {yu}"
            )
        if not points:
            points.append((u, yu))
        points.append((v, yv))
        prev_right = yv
    return canonicalize(PLF1(tuple(points)))


# -- exact 2-D geometry: convex polygons and clipping ----------------------


def affine_eval(coef: Coef, p: Point) -> Fraction:
    a, b, c = coef
    return a * p[0] + b * p[1] + c


def cross(o: Point, p: Point, q: Point) -> Fraction:
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def polygon_area2(poly: Polygon) -> Fraction:
    """Twice the signed area."""
    total = Fraction(0)
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return total


def dedupe_polygon(points) -> Polygon:
    out = []
    for p in points:
        if not out or p != out[-1]:
            out.append(p)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return tuple(out)


def make_ccw(poly: Polygon) -> Polygon:
    poly = dedupe_polygon(poly)
    if polygon_area2(poly) < 0:
        poly = tuple(reversed(poly))
    return poly


def clip_halfplane(poly: Polygon, a: Fraction, b: Fraction, c: Fraction) -> Polygon:
    """Intersect polygon with the half-plane ``a*x + b*y <= c`` (exact)."""
    if not poly:
        return ()
    out = []
    n = len(poly)
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        fp = a * p[0] + b * p[1] - c
        fq = a * q[0] + b * q[1] - c
        if fp <= 0:
            out.append(p)
        if (fp < 0 < fq) or (fq < 0 < fp):
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return dedupe_polygon(out)


def point_in_polygon(poly: Polygon, p: Point) -> bool:
    """Closed containment test for a convex CCW polygon (degenerate allowed)."""
    if not poly:
        return False
    if len(poly) == 1:
        return p == poly[0]
    if len(poly) == 2:
        a, b = poly
        if cross(a, b, p) != 0:
            return False
        lo_x, hi_x = min(a[0], b[0]), max(a[0], b[0])
        lo_y, hi_y = min(a[1], b[1]), max(a[1], b[1])
        return lo_x <= p[0] <= hi_x and lo_y <= p[1] <= hi_y
    n = len(poly)
    for i in range(n):
        if cross(poly[i], poly[(i + 1) % n], p) < 0:
            return False
    return True


def triangulate(poly: Polygon) -> list[Polygon]:
    """Fan triangulation of a convex polygon; zero-area slivers dropped."""
    tris = []
    for i in range(1, len(poly) - 1):
        tri = (poly[0], poly[i], poly[i + 1])
        if polygon_area2(tri) > 0:
            tris.append(tri)
    return tris


# -- two-variable functions --------------------------------------------------


@dataclass(frozen=True)
class Segment:
    """A parameterized segment u -> start + u * (end - start), u in [0,1]."""

    start: Point
    end: Point

    @property
    def degenerate(self) -> bool:
        return self.start == self.end


class PLF2:
    """Continuous piecewise-affine function over a convex polygon.

    ``cells`` is a tuple of ``(triangle, (a, b, c))`` with CCW triangles whose
    union is the domain.  ``PLF2.infinite(domain)`` is everywhere +inf.
    """

    __slots__ = ("cells", "is_infinite", "_domain")

    def __init__(self, cells=(), is_infinite: bool = False, domain: Polygon = ()):
        self.is_infinite = is_infinite
        self._domain = tuple(domain)
        if is_infinite:
            self.cells = ()
            return
        norm = []
        for tri, coef in cells:
            tri = make_ccw(tuple(tri))
            if len(tri) != 3 or polygon_area2(tri) <= 0:
                raise DomainError("PLF2 cells must be non-degenerate triangles")
            norm.append((tri, tuple(Fraction(v) for v in coef)))
        if not norm:
            raise DomainError("PLF2 needs at least one cell")
        self.cells = tuple(norm)

    @classmethod
    def infinite(cls, domain: Polygon = ()) -> "PLF2":
        return cls(is_infinite=True, domain=domain)

    @classmethod
    def affine(cls, polygon: Polygon, coef) -> "PLF2":
        polygon = make_ccw(polygon)
        if len(polygon) < 3:
            raise DomainError("affine PLF2 needs a 2-D polygon")
        return cls(tuple((tri, coef) for tri in triangulate(polygon)))

    def __eq__(self, other):
        if not isinstance(other, PLF2):
            return NotImplemented
        return (self.is_infinite == other.is_infinite
                and self.cells == other.cells
                and self._domain == other._domain)

    def __hash__(self):
        return hash((self.is_infinite, self.cells, self._domain))

    def __repr__(self):
        if self.is_infinite:
            return "PLF2(+inf)"
        return f"PLF2({len(self.cells)} cells)"

    def eval2(self, p: Point):
        if self.is_infinite:
            return INF
        p = (frac(p[0]), frac(p[1]))
        vals = [affine_eval(coef, p) for tri, coef in self.cells if point_in_polygon(tri, p)]
        if not vals:
            raise DomainError(f"PLF2 evaluated outside its domain: {p}")
        if any(v != vals[0] for v in vals):
            raise DomainError(f"PLF2 cells disagree at {p}: {vals}")
        return vals[0]

    def __call__(self, p: Point):
        return self.eval2(p)

    def shift(self, delta) -> "PLF2":
        if self.is_infinite:
            return self
        d = frac(delta)
        return PLF2(tuple((tri, (a, b, c + d)) for tri, (a, b, c) in self.cells))


def restrict2(plf: PLF2, segment: Segment) -> PLF1:
    """Restriction of a PLF2 to a segment, as a PLF1 in the parameter u."""
    if plf.is_infinite:
        return PLF1.infinite()
    if segment.degenerate:
        return PLF1.point(plf.eval2(segment.start))
    sx, sy = segment.start
    dx, dy = (segment.end[0] - sx, segment.end[1] - sy)
    pieces = []
    for tri, (a, b, c) in plf.cells:
        # clip u in [0,1] by the triangle's three half-planes
        lo, hi = ZERO, ONE
        ok = True
        for i in range(3):
            p, q = tri[i], tri[(i + 1) % 3]
            # inside: cross(p, q, point(u)) >= 0 for CCW triangle
            la = q[1] - p[1]
            lb = p[0] - q[0]
            lc = la * p[0] + lb * p[1]
            # inside (CCW): la*X + lb*Y <= lc along the parameterized point
            coef_u = la * dx + lb * dy
            rhs = lc - la * sx - lb * sy
            if coef_u == 0:
                if rhs < 0:
                    ok = False
                    break
            elif coef_u > 0:
                hi = min(hi, rhs / coef_u)
            else:
                lo = max(lo, rhs / coef_u)
        if not ok or lo > hi:
            continue
        slope = a * dx + b * dy
        intercept = a * sx + b * sy + c
        pieces.append((lo, hi, slope, intercept))
    if not pieces:
        raise DomainError("segment lies outside the PLF2 domain")
    return envelope_pieces(pieces, ZERO, ONE, "inf")


def fiber_extremum(plf: PLF2, direction: str) -> PLF1:
    """Eliminate the second coordinate: g(x) = ext over the fiber
    {y : (x, y) in dom} of f(x, y).  Fibers must be intervals (convex cells)."""
    if plf.is_infinite:
        return PLF1.infinite()
    pieces = []
    xmin = min(p[0] for tri, _ in plf.cells for p in tri)
    xmax = max(p[0] for tri, _ in plf.cells for p in tri)
    for tri, (a, b, c) in plf.cells:
        for i in range(3):
            p, q = tri[i], tri[(i + 1) % 3]
            if p[0] == q[0]:
                continue  # vertical edge: no x-extent
            if p[0] > q[0]:
                p, q = q, p
            # value of the cell's affine function along the edge, in x
            slope_y = (q[1] - p[1]) / (q[0] - p[0])
            # y(x) = p.y + slope_y * (x - p.x)
            slope = a + b * slope_y
            intercept = b * (p[1] - slope_y * p[0]) + c
            pieces.append((p[0], q[0], slope, intercept))
    if xmin == xmax:
        raise DomainError("fiber extremum of a degenerate domain")
    return envelope_pieces(pieces, xmin, xmax, direction)


# -- projecting an exit cost onto Delta -------------------------------------

UNIT_SQUARE = ((ZERO, ZERO), (ONE, ZERO), (ONE, ONE), (ZERO, ONE))


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
        for u1, u2, slope, intercept in segments(f):
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
            return PLF1.point(eval1(prof, pins[1]))
        val = min_value(prof) if direction == "inf" else max_value(prof)
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


def _to_output(child: NodeValue, t: Transition) -> OutputValue:
    if child.is_infinite:
        return OutputValue(PLF2.infinite(UNIT_SQUARE))
    f = PLF1(tuple((x, y + t.weight) for x, y in child.plf.points))
    return OutputValue.on_x(f) if _param_axis(child.region) == 0 \
        else OutputValue.on_y(f)


@dataclass
class ExitGame:
    """A zero-weight kernel game whose exits are transitions into goal
    locations, each goal with its exit cost as an :class:`OutputValue`."""

    locations: dict[str, Location]
    transitions: list[Transition]
    shapes: dict[str, str]       # non-goal location -> ON_Y | ON_X | POINT
    w_out: dict[str, OutputValue]
    entrance: str

    def kernel_game(self) -> KernelGame:
        """The same game for ``kernelvi.iterate``: the goals go, and each
        exit becomes its projected cost at its source."""
        members = {n: l for n, l in self.locations.items() if not l.is_goal}
        exits: dict[str, list[PLF1]] = {n: [] for n in members}
        inner = []
        for t in self.transitions:
            if t.tgt in members:
                inner.append(t)
            else:
                exits[t.src].append(project_output(
                    t, self.w_out[t.tgt], self.shapes[t.src],
                    self.locations[t.src].owner))
        return delta_game(members, inner, dict(self.shapes), exits)


# -- the one-step operator in Delta ------------------------------------------


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
        return PLF1.constant(eval1(opt_target, ZERO)) if shape != POINT \
            else PLF1.point(eval1(opt_target, ZERO))
    preserving = {ON_Y: ((0, 0), (1, 1)), ON_X: ((1, 0), (0, 1))}
    if shape == POINT:
        val = min_value(opt_target) if direction == "inf" \
            else max_value(opt_target)
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


def delta_game(locations: dict[str, Location], transitions: list[Transition],
               shapes: dict[str, str],
               exits: dict[str, list[PLF1]]) -> KernelGame:
    """The kernel game whose step takes, at each location, the extremum of
    its exit costs (functions of Delta) and of :func:`step_transition` over
    its inner transitions."""
    outgoing = {n: [t for t in transitions if t.src == n] for n in locations}

    def step(table: dict[str, PLF1]) -> dict[str, PLF1]:
        nxt = {}
        for n, loc in locations.items():
            opts = list(exits[n])
            for t in outgoing[n]:
                opts.append(step_transition(
                    t, table[t.tgt], shapes[n], loc.owner))
            nxt[n] = (pointwise_extremum(
                opts, "inf" if loc.owner == MIN else "sup")
                if opts else PLF1.infinite())
        return nxt

    top = {n: PLF1.infinite() for n in locations}
    return KernelGame(locations, transitions, top, step)


def value_at(res: kernelvi.ViResult, loc: str, v: Valuation) -> Fraction:
    f = res.functions[loc]
    if f.is_point:
        d = delta(v)
        if d != f.points[0][0]:
            raise DomainError(f"{v} outside the domain of {loc}")
        return f.points[0][1]
    return eval1(f, delta(v))


def _shape_of(r: Region) -> str:
    if r.dim == 0:
        return POINT
    if 0 in r.zeros:
        return ON_Y
    if 1 in r.zeros:
        return ON_X
    raise StructuralError("kernel location not pinned to a clock axis")


def _exit_cost(rg: RegionGame, t: Transition, child: NodeValue,
               shared: dict) -> Optional[PLF1]:
    """The cost of leaving a kernel by ``t`` as a function of the source's
    Delta, or None when no delay fits."""
    owner = rg.game.locations[t.src].owner
    cost = _one_step(rg, t, child, "inf" if owner == MIN else "sup", shared)
    # Delta is y on the y-axis and 1 - x on the x-axis
    if cost is not None and _shape_of(rg.reg[t.src]) == ON_X:
        return reversed_domain(cost)
    return cost


def _kernel_values(rg: RegionGame, comp: frozenset,
                   child_values: dict[str, NodeValue],
                   out_edges: list[Transition],
                   shared: dict) -> tuple[dict[str, NodeValue], int]:
    """Solve one zero-weight component given the values behind its output
    edges; returns the value of every member location and the number of
    steps."""
    game = rg.game
    shapes = {n: _shape_of(rg.reg[n]) for n in comp}
    exits: dict[str, list[PLF1]] = {n: [] for n in comp}
    for t in out_edges:
        cost = _exit_cost(rg, t, child_values[t.tid], shared)
        if cost is not None:
            exits[t.src].append(cost)
    out_tids = {t.tid for t in out_edges}
    transitions = [t for t in game.transitions if t.src in comp
                   and t.tgt in comp and t.tid not in out_tids]
    res = kernelvi.iterate(delta_game({n: game.locations[n] for n in comp},
                                      transitions, shapes, exits))
    values: dict[str, NodeValue] = {}
    for n in comp:
        r = rg.reg[n]
        f = res.functions[n]
        if shapes[n] == POINT and not f.is_infinite:
            f = PLF1.point(value_at(res, n, r.corners()[0]))
        elif shapes[n] == ON_X:  # node parameter is x, kernel's is 1 - x
            f = reversed_domain(f)
        values[n] = NodeValue(r, canonicalize(f))
    return values, res.steps
