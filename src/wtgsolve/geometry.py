"""Exact rational 2-D geometry helpers: convex polygons and clipping.

All coordinates are :class:`fractions.Fraction`; every operation is exact.
Polygons are convex and stored as tuples of counter-clockwise vertices.
Affine functions over the plane are coefficient triples ``(a, b, c)``
representing ``a*x + b*y + c``.
"""
from __future__ import annotations

from fractions import Fraction

Point = tuple[Fraction, Fraction]
Coef = tuple[Fraction, Fraction, Fraction]
Polygon = tuple[Point, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


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
