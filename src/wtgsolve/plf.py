"""Exact piecewise-linear functions of one variable.

``PLF1`` is a continuous piecewise-linear function over an interval of the
real line (usually [0,1]) or over the single point {0}, with exact rational
breakpoints, stored as integer numerators over one denominator.  ``+inf``
is a whole-function state, never a breakpoint value.  The operations run on
``int``s: each brings its inputs to a common denominator, compares by
cross-multiplying and reduces its result once.  ``Fraction`` is the type at
the boundary: ``PLF1.points``, :func:`eval1` and :func:`reparam`'s view.

The solver needs three operations, all in closed form: the pointwise min or
max of functions on one domain (:func:`pointwise_extremum`), the min or max
of f over [x, hi] or [lo, x] (:func:`running_extremum`), and f read along an
affine view plus an affine term (:func:`reparam`).
"""
from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import gcd, lcm

from .core import INF, DomainError, frac

ZERO = Fraction(0)


class PLF1:
    """Continuous piecewise-linear function with exact rational breakpoints.

    Breakpoint i is (xs[i]/den, ys[i]/den): ``int`` numerators, ``xs``
    strictly increasing, and ``den`` > 0 sharing no factor with all of
    them, so equal functions have equal fields.  A single breakpoint denotes
    a point-domain function; ``PLF1.infinite()`` is the everywhere-+inf one.
    """

    __slots__ = ("den", "xs", "ys", "is_infinite", "_hash", "_points")

    def __init__(self, points=(), is_infinite: bool = False):
        self.is_infinite = is_infinite
        self._hash = None
        if is_infinite:
            self.den, self.xs, self.ys, self._points = 1, (), (), ()
            return
        pts = tuple((Fraction(x), Fraction(y)) for x, y in points)
        if not pts:
            raise DomainError("PLF1 needs at least one breakpoint")
        for (x1, _), (x2, _) in zip(pts, pts[1:]):
            if x2 <= x1:
                raise DomainError("PLF1 breakpoints must strictly increase")
        # over the lcm of reduced denominators the numerators share no factor
        den = lcm(*(c.denominator for p in pts for c in p))
        self.den = den
        self.xs = tuple(x.numerator * (den // x.denominator) for x, _ in pts)
        self.ys = tuple(y.numerator * (den // y.denominator) for _, y in pts)
        self._points = pts

    @classmethod
    def _of(cls, den: int, xs, ys) -> "PLF1":
        """(xs[i]/den, ys[i]/den) reduced: xs increasing, den > 0."""
        g = gcd(den, *xs, *ys)
        if g > 1:
            den, xs, ys = den // g, [x // g for x in xs], [y // g for y in ys]
        f = object.__new__(cls)
        f.den, f.xs, f.ys = den, tuple(xs), tuple(ys)
        f.is_infinite, f._hash, f._points = False, None, None
        return f

    # -- constructors ------------------------------------------------------

    @classmethod
    def infinite(cls) -> "PLF1":
        return cls(is_infinite=True)

    @classmethod
    def constant(cls, value) -> "PLF1":
        """``value``, an ``int`` or a ``Fraction``, over [0, 1]."""
        n, d = value.as_integer_ratio()
        return cls._of(d, (0, d), (n, n))

    # -- basics ------------------------------------------------------------

    @property
    def points(self) -> tuple[tuple[Fraction, Fraction], ...]:
        if self._points is None:
            d = self.den
            self._points = tuple((Fraction(x, d), Fraction(y, d))
                                 for x, y in zip(self.xs, self.ys))
        return self._points

    @property
    def is_point(self) -> bool:
        return not self.is_infinite and len(self.xs) == 1

    @property
    def lo(self) -> Fraction:
        return Fraction(self.xs[0], self.den)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.xs[-1], self.den)

    def __eq__(self, other):
        if not isinstance(other, PLF1):
            return NotImplemented
        return (self.is_infinite == other.is_infinite and self.den == other.den
                and self.xs == other.xs and self.ys == other.ys)

    def __hash__(self):
        # computed once: the solver keys its stored one-step costs by PLF1s
        if self._hash is None:
            self._hash = hash((self.is_infinite, self.den, self.xs, self.ys))
        return self._hash

    def __le__(self, other: "PLF1") -> bool:
        """Pointwise order, +inf on top: other is the max of the two."""
        return pointwise_extremum((self, other), "sup") == canonicalize(other)

    def __repr__(self):
        if self.is_infinite:
            return "PLF1(+inf)"
        return f"PLF1({list(self.points)})"


def _sample(xs, ys, grid, q: int = 1) -> list[tuple[int, int]]:
    """The function with numerators ``xs``, ``ys`` over some d at each point
    X/(d*q) of ``grid``, an increasing sequence inside its domain, in one walk
    along both: each value as (N, W) for N/(d*W), W > 0."""
    out = []
    j = 0
    for x in grid:
        while xs[j] * q < x:
            j += 1
        b = xs[j] * q
        if b == x:
            out.append((ys[j], 1))
        else:
            a = xs[j - 1] * q
            out.append((ys[j - 1] * (b - x) + ys[j] * (x - a), b - a))
    return out


def _assemble(den: int, pts) -> PLF1:
    """The function through ``pts``, each (xn, xq, yn, yq) for the point
    (xn/(den*xq), yn/(den*yq)) in increasing x, with collinear breakpoints
    merged as they come."""
    q = lcm(*(p[1] for p in pts), *(p[3] for p in pts))
    xs, ys = [], []
    for xn, xq, yn, yq in pts:
        x, y = xn * (q // xq), yn * (q // yq)
        while (len(xs) >= 2 and (ys[-1] - ys[-2]) * (x - xs[-1])
               == (y - ys[-1]) * (xs[-1] - xs[-2])):
            del xs[-1], ys[-1]
        xs.append(x)
        ys.append(y)
    return PLF1._of(den * q, xs, ys)


def eval1(plf: PLF1, x) -> Fraction:
    """Evaluate a PLF1 at an exact rational point of its domain."""
    if plf.is_infinite:
        return INF
    x = frac(x)
    p, q, xs = x.numerator * plf.den, x.denominator, plf.xs
    if plf.is_point:
        if xs[0] * q != p:
            raise DomainError(f"point-domain PLF1 evaluated at {x}")
    elif not xs[0] * q <= p <= xs[-1] * q:
        raise DomainError(f"PLF1 evaluated outside [{plf.lo}, {plf.hi}]: {x}")
    return values_at(plf, (x,))[0]


def canonicalize(plf: PLF1) -> PLF1:
    """Merge collinear breakpoints; idempotent canonical form."""
    if plf.is_infinite or len(plf.xs) < 3:
        return plf
    return _assemble(plf.den, [(x, 1, y, 1) for x, y in zip(plf.xs, plf.ys)])


def values_at(plf: PLF1, xs) -> list[Fraction]:
    """``plf`` at every point of ``xs``, an increasing sequence of rationals
    inside its domain, in one walk along both: the same values as
    :func:`eval1`."""
    xs = [frac(x) for x in xs]
    q = lcm(*(x.denominator for x in xs))
    d = plf.den
    grid = [x.numerator * (q // x.denominator) * d for x in xs]
    return [Fraction(n, d * w) for n, w in _sample(plf.xs, plf.ys, grid, q)]


# orders fractions p/q, q > 0, by value
_BY_VALUE = cmp_to_key(lambda s, t: s[0] * t[1] - t[0] * s[1])


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
    d = lcm(*(f.den for f in fs))
    fs = [([x * (d // f.den) for x in f.xs], [y * (d // f.den) for y in f.ys])
          for f in fs]
    lo, hi = fs[0][0][0], fs[0][0][-1]
    if any(len(xs) == 1 for xs, _ in fs):
        if not all(xs == [lo] for xs, _ in fs):
            raise DomainError("mixed point/interval domains in extremum")
        return PLF1._of(d, (lo,), (better(ys[0] for _, ys in fs),))
    if any(xs[0] != lo or xs[-1] != hi for xs, _ in fs):
        raise DomainError("extremum of PLF1s with different domains")
    # Between consecutive breakpoints of all inputs every input is affine,
    # so the extremum bends only where two inputs cross.  The values at the
    # grid are brought to one denominator d*m.
    grid = [lo, *sorted({x for xs, _ in fs for x in xs[1:-1]}), hi]
    samples = [_sample(xs, ys, grid) for xs, ys in fs]
    m = lcm(*(w for s in samples for _, w in s))
    cols = list(zip(*([n * (m // w) for n, w in s] for s in samples)))
    pts = [(lo, 1, better(cols[0]), m)]
    for u, v, a, b in zip(grid, grid[1:], cols, cols[1:]):
        ts = set()  # crossings at u + (p/q)(v - u), 0 < p/q < 1, reduced
        for i in range(len(a)):
            for j in range(i + 1, len(a)):
                if a[i] < a[j] and b[j] < b[i] or a[j] < a[i] and b[i] < b[j]:
                    p, q = abs(a[i] - a[j]), abs(a[i] - a[j] - b[i] + b[j])
                    g = gcd(p, q)
                    ts.add((p // g, q // g))
        for p, q in sorted(ts, key=_BY_VALUE):
            pts.append((u * q + p * (v - u), q,
                        better(y * q + p * (z - y) for y, z in zip(a, b)),
                        m * q))
        pts.append((v, 1, better(b), m))
    return _assemble(d, pts)


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
    walk = list(zip(plf.xs, plf.ys))[::-1 if side == "suffix" else 1]
    xp, yp = walk[0]
    level = yp  # the extremum of f over what the walk has passed
    pts = [(xp, 1, yp, 1)]
    for xq, yq in walk[1:]:
        # on the piece to (xq, yq) the result is better(level, f): the level
        # until f crosses it, where x = xp + (level - yp)(xq - xp)/(yq - yp)
        if better(yq, level) == yq != level != yp:
            q = abs(yq - yp)
            pts.append((xp * q + abs(level - yp) * (xq - xp), q, level, 1))
        level = better(level, yq)
        pts.append((xq, 1, level, 1))
        xp, yp = xq, yq
    if side == "suffix":
        pts.reverse()
    return _assemble(plf.den, pts)


def reparam(f: PLF1, u0: Fraction, u1: Fraction, slope=ZERO,
            intercept=ZERO) -> PLF1:
    """g(s) = f(u0 + s*(u1 - u0)) + slope*s + intercept over s in [0, 1],
    in one pass over the breakpoints of f, backwards when u1 < u0.  The
    rational view parameters are brought to integers once per call."""
    if f.is_infinite:
        return f
    d, xs, ys = f.den, f.xs, f.ys
    (a0, b0), (a1, b1), (sp, sq), (ip, iq) = (
        v.as_integer_ratio() for v in (u0, u1, slope, intercept))
    for u, a, b in ((u0, a0, b0), (u1, a1, b1)):
        if not xs[0] * b <= a * d <= xs[-1] * b:
            eval1(f, u)  # raises the DomainError that names u
    if a0 * b1 == a1 * b0:
        (n, w), = _sample(xs, ys, (a0 * d,), b0)
        e = lcm(d * w, sq, iq)
        y = n * (e // (d * w)) + ip * (e // iq)
        return PLF1._of(e, (0, e), (y, y + sp * (e // sq)))
    b = lcm(b0, b1)
    v0 = a0 * (b // b0) * d
    # breakpoint x = X/d of f sits at s = P/r, P = (X*b - v0) * sign
    r = a1 * (b // b1) * d - v0
    walk = zip(xs, ys)
    if r < 0:
        r, v0, b, walk = -r, -v0, -b, zip(reversed(xs), reversed(ys))
    out = []  # (P, n, w): f is n/(d*w) at s = P/r
    p0 = y0 = None
    for x, y in walk:
        p = x * b - v0
        if p > 0:
            if not out:  # f(u0), on the piece from the last breakpoint
                out.append((0, y0, 1) if p0 == 0 else
                           (0, y0 * p - y * p0, p - p0))
            if p >= r:  # f(u1)
                out.append((r, y, 1) if p == r else
                           (r, y0 * (p - r) + y * (r - p0), p - p0))
                break
            out.append((p, y, 1))
        p0, y0 = p, y
    e = lcm(r * sq, iq, *(d * w for _, _, w in out))
    ks, ki = e // (r * sq) * sp, e // iq * ip
    return PLF1._of(e, [p * (e // r) for p, _, _ in out],
                    [n * (e // (d * w)) + p * ks + ki for p, n, w in out])
