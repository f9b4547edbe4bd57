"""Exact piecewise-linear functions of one variable.

``PLF1`` is a continuous piecewise-linear function over an interval of the
real line (usually [0,1]) or over the single point {0}, with exact rational
breakpoints.  ``+inf`` is a whole-function state, never a breakpoint value.
"""
from __future__ import annotations

from fractions import Fraction

from .core import INF, DomainError, frac

ZERO = Fraction(0)
ONE = Fraction(1)


class PLF1:
    """Continuous piecewise-linear function with exact rational breakpoints.

    ``points`` is a tuple of (x, y) pairs with strictly increasing x.  A
    single pair denotes a point-domain function.  ``PLF1.infinite()`` is the
    everywhere-+inf function.
    """

    __slots__ = ("points", "is_infinite")

    def __init__(self, points=(), is_infinite: bool = False):
        self.is_infinite = is_infinite
        if is_infinite:
            self.points = ()
            return
        pts = tuple((Fraction(x), Fraction(y)) for x, y in points)
        if not pts:
            raise DomainError("PLF1 needs at least one breakpoint")
        for (x1, _), (x2, _) in zip(pts, pts[1:]):
            if x2 <= x1:
                raise DomainError("PLF1 breakpoints must strictly increase")
        self.points = pts

    # -- constructors ------------------------------------------------------

    @classmethod
    def infinite(cls) -> "PLF1":
        return cls(is_infinite=True)

    @classmethod
    def constant(cls, value, lo=ZERO, hi=ONE) -> "PLF1":
        value = frac(value)
        return cls(((lo, value), (hi, value)))

    @classmethod
    def point(cls, value, x=ZERO) -> "PLF1":
        return cls(((x, frac(value)),))

    # -- basics ------------------------------------------------------------

    @property
    def is_point(self) -> bool:
        return not self.is_infinite and len(self.points) == 1

    @property
    def lo(self) -> Fraction:
        return self.points[0][0]

    @property
    def hi(self) -> Fraction:
        return self.points[-1][0]

    def __eq__(self, other):
        if not isinstance(other, PLF1):
            return NotImplemented
        return (self.is_infinite == other.is_infinite
                and self.points == other.points)

    def __hash__(self):
        return hash((self.is_infinite, self.points))

    def __le__(self, other: "PLF1") -> bool:
        """Pointwise order, +inf on top."""
        if self.is_infinite or other.is_infinite:
            return other.is_infinite
        xs = {x for x, _ in self.points} | {x for x, _ in other.points}
        return all(eval1(self, x) <= eval1(other, x) for x in xs)

    def __repr__(self):
        if self.is_infinite:
            return "PLF1(+inf)"
        return f"PLF1({list(self.points)})"

    def segments(self):
        """Yield (x1, x2, slope, intercept) for each linear piece."""
        for (x1, y1), (x2, y2) in zip(self.points, self.points[1:]):
            a = (y2 - y1) / (x2 - x1)
            yield x1, x2, a, y1 - a * x1

    def shift(self, delta) -> "PLF1":
        """Add a constant to the function (no-op on +inf)."""
        if self.is_infinite:
            return self
        d = frac(delta)
        return PLF1(tuple((x, y + d) for x, y in self.points))

    def reversed_domain(self) -> "PLF1":
        """g(x) = f(lo + hi - x): the function read right-to-left."""
        if self.is_infinite or self.is_point:
            return self
        lo, hi = self.lo, self.hi
        return PLF1(tuple((lo + hi - x, y) for x, y in reversed(self.points)))


def eval1(plf: PLF1, x) -> Fraction:
    """Evaluate a PLF1 at an exact rational point of its domain."""
    if plf.is_infinite:
        return INF
    x = frac(x)
    pts = plf.points
    if plf.is_point:
        if x != pts[0][0]:
            raise DomainError(f"point-domain PLF1 evaluated at {x}")
        return pts[0][1]
    if not pts[0][0] <= x <= pts[-1][0]:
        raise DomainError(f"PLF1 evaluated outside [{pts[0][0]}, {pts[-1][0]}]: {x}")
    lo, hi = 0, len(pts) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pts[mid][0] <= x:
            lo = mid
        else:
            hi = mid
    (x1, y1), (x2, y2) = pts[lo], pts[hi]
    if x == x1:
        return y1
    if x == x2:
        return y2
    return y1 + (y2 - y1) * (x - x1) / (x2 - x1)


def canonicalize(plf: PLF1) -> PLF1:
    """Merge collinear breakpoints; idempotent canonical form."""
    if plf.is_infinite or plf.is_point:
        return plf
    pts = list(plf.points)
    out = [pts[0]]
    for p in pts[1:]:
        out.append(p)
        while len(out) >= 3:
            (x1, y1), (x2, y2), (x3, y3) = out[-3], out[-2], out[-1]
            if (y2 - y1) * (x3 - x2) == (y3 - y2) * (x2 - x1):
                del out[-2]
            else:
                break
    return PLF1(tuple(out))


# -- envelopes over partial affine pieces -----------------------------------


def envelope_pieces(pieces, lo, hi, direction: str) -> PLF1:
    """Pointwise extremum of partial affine pieces covering [lo, hi].

    ``pieces`` is a list of ``(x1, x2, a, b)``: the affine function ``a*x+b``
    available on ``[x1, x2]``.  Every point of [lo, hi] must be covered, and
    the resulting extremum must be continuous (guaranteed for the geometric
    uses in this package); a violation raises :class:`DomainError`.
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


def pointwise_extremum(functions, direction: str) -> PLF1:
    """Exact pointwise inf/sup of PLF1s sharing one domain."""
    fs = list(functions)
    if not fs:
        raise DomainError("extremum of no functions")
    finite = [f for f in fs if not f.is_infinite]
    if direction == "sup" and len(finite) < len(fs):
        return PLF1.infinite()
    if not finite:
        return PLF1.infinite()
    fs = finite
    if any(f.is_point for f in fs):
        if not all(f.is_point and f.points[0][0] == fs[0].points[0][0] for f in fs):
            raise DomainError("mixed point/interval domains in extremum")
        vals = [f.points[0][1] for f in fs]
        x0 = fs[0].points[0][0]
        return PLF1.point(min(vals) if direction == "inf" else max(vals), x0)
    lo, hi = fs[0].lo, fs[0].hi
    if any(f.lo != lo or f.hi != hi for f in fs):
        raise DomainError("extremum of PLF1s with different domains")
    pieces = [seg for f in fs for seg in f.segments()]
    return envelope_pieces(pieces, lo, hi, direction)


def running_extremum(plf: PLF1, side: str, direction: str) -> PLF1:
    """Running extremum: ``suffix`` gives g(x) = ext(f on [x, hi]),
    ``prefix`` gives g(x) = ext(f on [lo, x]).

    Structural property (relied on for value-iteration termination): every
    non-constant piece of the result is a piece of the input, and every
    constant piece's value equals a local extremum of the input.
    """
    if side not in ("suffix", "prefix"):
        raise ValueError(side)
    if direction not in ("inf", "sup"):
        raise ValueError(direction)
    if plf.is_infinite or plf.is_point:
        return plf
    better = min if direction == "inf" else max

    if side == "prefix":
        # mirror the domain, take the suffix extremum, mirror back
        return running_extremum(
            plf.reversed_domain(), "suffix", direction
        ).reversed_domain()

    pts = plf.points
    rev_points: list[tuple[Fraction, Fraction]] = []  # built right-to-left
    best = pts[-1][1]

    def emit(x, y):
        if rev_points and rev_points[-1][0] == x:
            if rev_points[-1][1] != y:
                raise DomainError("running extremum discontinuity")
            return
        rev_points.append((x, y))

    emit(pts[-1][0], best)
    for (x1, y1), (x2, y2) in zip(reversed(pts[:-1]), reversed(pts[1:])):
        # e(x) = ext of f on [x, x2] within this piece
        toward = (y1 <= y2) if direction == "inf" else (y1 >= y2)
        if toward:
            # extremum attained at the left endpoint: e(x) = f(x)
            enters = (y1 < best < y2) if direction == "inf" else (y2 < best < y1)
            if enters:
                a = (y2 - y1) / (x2 - x1)
                xc = x1 + (best - y1) / a
                emit(xc, best)
                emit(x1, y1)
            elif better(y1, best) == best and y1 != best:
                emit(x1, best)
            else:
                emit(x2, better(y2, best))
                emit(x1, better(y1, best))
        else:
            # extremum attained at the right endpoint: e(x) = y2 constant
            val = better(y2, best)
            emit(x2, val)
            emit(x1, val)
        best = better(best, better(y1, y2))
    return canonicalize(PLF1(tuple(reversed(rev_points))))
