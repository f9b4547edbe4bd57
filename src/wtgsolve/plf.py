"""Exact piecewise-linear functions of one variable.

``PLF1`` is a continuous piecewise-linear function over an interval of the
real line (usually [0,1]) or over the single point {0}, with exact rational
breakpoints.  ``+inf`` is a whole-function state, never a breakpoint value.

The solver needs two operations, both in closed form: the pointwise min or
max of functions on one domain (:func:`pointwise_extremum`), and the min or
max of f over [x, hi] or [lo, x] (:func:`running_extremum`).
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

    __slots__ = ("points", "is_infinite", "_hash")

    def __init__(self, points=(), is_infinite: bool = False):
        self.is_infinite = is_infinite
        self._hash = None
        if is_infinite:
            self.points = ()
            return
        # Fraction() runs its type checks even on a Fraction: skip it then.
        pts = tuple((x if type(x) is Fraction else Fraction(x),
                     y if type(y) is Fraction else Fraction(y))
                    for x, y in points)
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
        # computed once: the solver keys its stored one-step costs by PLF1s
        if self._hash is None:
            self._hash = hash((self.is_infinite, self.points))
        return self._hash

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
    if type(x) is not Fraction:
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


def values_at(plf: PLF1, xs) -> list[Fraction]:
    """``plf`` at every point of ``xs``, an increasing sequence inside its
    domain, in one walk along both: the same values as :func:`eval1`."""
    pts = plf.points
    out = []
    j = 0
    for x in xs:
        while pts[j][0] < x:
            j += 1
        xj, yj = pts[j]
        if xj == x:
            out.append(yj)
        else:
            xi, yi = pts[j - 1]
            out.append(yi + (yj - yi) * (x - xi) / (xj - xi))
    return out


def pointwise_extremum(functions, direction: str) -> PLF1:
    """Exact pointwise inf/sup of PLF1s sharing one domain.  An input given
    more than once (the same object) counts once."""
    if direction not in ("inf", "sup"):
        raise ValueError(direction)
    better = min if direction == "inf" else max
    fs = list({id(f): f for f in functions}.values())
    if not fs:
        raise DomainError("extremum of no functions")
    finite = [f for f in fs if not f.is_infinite]
    if not finite or direction == "sup" and len(finite) < len(fs):
        return PLF1.infinite()
    fs = finite
    if len(fs) == 1:
        return canonicalize(fs[0])
    if any(f.is_point for f in fs):
        if not all(f.is_point and f.points[0][0] == fs[0].points[0][0] for f in fs):
            raise DomainError("mixed point/interval domains in extremum")
        return PLF1.point(better(f.points[0][1] for f in fs), fs[0].points[0][0])
    lo, hi = fs[0].lo, fs[0].hi
    if any(f.lo != lo or f.hi != hi for f in fs):
        raise DomainError("extremum of PLF1s with different domains")
    # Between consecutive breakpoints of all inputs every input is affine,
    # so the extremum bends only where two inputs cross.
    xs = [lo, *sorted({x for f in fs for x, _ in f.points[1:-1]}), hi]
    cols = list(zip(*(values_at(f, xs) for f in fs)))
    points = [(lo, better(cols[0]))]
    for u, v, a, b in zip(xs, xs[1:], cols, cols[1:]):
        ts = set()
        for i in range(len(fs)):
            for j in range(i + 1, len(fs)):
                if a[i] < a[j] and b[j] < b[i] or a[j] < a[i] and b[i] < b[j]:
                    d0 = a[i] - a[j]
                    ts.add(d0 / (d0 - b[i] + b[j]))
        for t in sorted(ts):
            points.append((u + t * (v - u),
                           better(p + t * (q - p) for p, q in zip(a, b))))
        points.append((v, better(b)))
    return canonicalize(PLF1(points))


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
    if side == "prefix":
        # mirror the domain, take the suffix extremum, mirror back
        return running_extremum(
            plf.reversed_domain(), "suffix", direction
        ).reversed_domain()
    better = min if direction == "inf" else max
    pts = plf.points
    level = pts[-1][1]  # the extremum of f right of the current piece
    rev_points = [pts[-1]]
    for (x1, y1), (x2, y2) in zip(reversed(pts[:-1]), reversed(pts[1:])):
        # on [x1, x2] the result is better(level, f): f until it crosses level
        if better(y1, level) == y1 != level != y2:
            xc = x1 + (level - y1) * (x2 - x1) / (y2 - y1)
            rev_points.append((xc, level))
        level = better(level, y1)
        rev_points.append((x1, level))
    return canonicalize(PLF1(tuple(reversed(rev_points))))
