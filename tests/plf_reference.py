"""The PLF1 operations in ``Fraction`` arithmetic, as :mod:`wtgsolve.plf`
computed them before it kept integer numerators over one denominator, kept
to check the integer operations against (``tests/test_plf.py``).

Each function reads a ``PLF1`` only through its ``points`` (pairs of
``Fraction``) and builds its result through the public constructor, so it
does not depend on how ``PLF1`` stores a function.
"""
from __future__ import annotations

from fractions import Fraction

from wtgsolve.core import INF, DomainError, frac
from wtgsolve.plf import PLF1

ZERO = Fraction(0)
ONE = Fraction(1)


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


def reversed_domain(f: PLF1) -> PLF1:
    """g(x) = f(lo + hi - x): the function read right-to-left."""
    if f.is_infinite or f.is_point:
        return f
    lo, hi = f.lo, f.hi
    return PLF1(tuple((lo + hi - x, y) for x, y in reversed(f.points)))


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
    domain, in one walk along both."""
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
    """``suffix`` gives g(x) = ext(f on [x, hi]), ``prefix`` gives
    g(x) = ext(f on [lo, x])."""
    if side not in ("suffix", "prefix"):
        raise ValueError(side)
    if direction not in ("inf", "sup"):
        raise ValueError(direction)
    if plf.is_infinite or plf.is_point:
        return plf
    if side == "prefix":
        return reversed_domain(running_extremum(
            reversed_domain(plf), "suffix", direction))
    better = min if direction == "inf" else max
    pts = plf.points
    level = pts[-1][1]
    rev_points = [pts[-1]]
    for (x1, y1), (x2, y2) in zip(reversed(pts[:-1]), reversed(pts[1:])):
        if better(y1, level) == y1 != level != y2:
            xc = x1 + (level - y1) * (x2 - x1) / (y2 - y1)
            rev_points.append((xc, level))
        level = better(level, y1)
        rev_points.append((x1, level))
    return canonicalize(PLF1(tuple(reversed(rev_points))))


def reparam(f: PLF1, u0: Fraction, u1: Fraction, slope=ZERO,
            intercept=ZERO) -> PLF1:
    """g(s) = f(u0 + s*(u1 - u0)) + slope*s + intercept over s in [0, 1],
    in one pass over the breakpoints of f, backwards when u1 < u0."""
    if f.is_infinite:
        return f
    if u0 == u1:
        y = eval1(f, u0) + intercept
        return PLF1(((ZERO, y), (ONE, y + slope)))
    pts = f.points
    for u in (u0, u1):
        if not pts[0][0] <= u <= pts[-1][0]:
            eval1(f, u)  # raises the DomainError that names u
    du = u1 - u0
    out = []
    s0 = y0 = None
    for x, y in (pts if du > 0 else reversed(pts)):
        s = (x - u0) / du
        if s > 0:
            if not out:  # f(u0), on the piece from the last breakpoint
                out.append((ZERO, (y0 if s0 == 0 else
                                   y0 - (y - y0) * s0 / (s - s0))
                            + intercept))
            if s >= 1:  # f(u1)
                y1 = y if s == 1 else y0 + (y - y0) * (1 - s0) / (s - s0)
                out.append((ONE, y1 + slope + intercept))
                break
            out.append((s, y + slope * s + intercept))
        s0, y0 = s, y
    return PLF1(tuple(out))


def le(f: PLF1, g: PLF1) -> bool:
    """Pointwise order, +inf on top, at the breakpoints of either side."""
    if f.is_infinite or g.is_infinite:
        return g.is_infinite
    xs = {x for x, _ in f.points} | {x for x, _ in g.points}
    return all(eval1(f, x) <= eval1(g, x) for x in xs)
