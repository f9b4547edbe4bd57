from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from wtgsolve.core import INF, DomainError
from wtgsolve.plf import (
    PLF1,
    canonicalize,
    eval1,
    pointwise_extremum,
    reparam,
    running_extremum,
    values_at,
)

from invariants import check_continuity
from kernel_reference import (PLF2, Segment, envelope_pieces, equals,
                              fiber_extremum, restrict2, segments)
import plf_reference


def plf(*pairs):
    return PLF1(pairs)


class TestEval:
    def test_interpolation(self):
        f = plf((0, 0), (F(1, 2), 1), (1, 0))
        assert eval1(f, F(1, 4)) == F(1, 2)
        assert eval1(f, F(1, 2)) == 1
        assert eval1(f, 1) == 0

    def test_point_domain(self):
        f = plf_reference.point(F(3, 2))
        assert eval1(f, 0) == F(3, 2)
        with pytest.raises(DomainError):
            eval1(f, F(1, 2))

    def test_outside_domain(self):
        with pytest.raises(DomainError):
            eval1(plf((0, 0), (1, 1)), 2)

    def test_infinite(self):
        assert eval1(PLF1.infinite(), F(1, 3)) == INF


class TestCanonical:
    def test_merges_collinear(self):
        f = plf((0, 0), (F(1, 2), F(1, 2)), (1, 1))
        assert canonicalize(f).points == ((F(0), F(0)), (F(1), F(1)))

    def test_idempotent(self):
        f = plf((0, 0), (F(1, 3), 1), (F(2, 3), 1), (1, 0))
        assert canonicalize(canonicalize(f)).points == canonicalize(f).points

    def test_equals(self):
        assert equals(plf((0, 0), (F(1, 2), F(1, 2)), (1, 1)), plf((0, 0), (1, 1)))
        assert not equals(plf((0, 0), (1, 1)), plf((0, 0), (1, 2)))

    def test_pointwise_order(self):
        vee = plf((0, 1), (F(1, 2), 0), (1, 1))
        assert vee <= plf((0, 1), (1, 1)) and vee <= PLF1.infinite()
        assert not vee <= plf((0, F(1, 2)), (1, F(1, 2)))
        assert not PLF1.infinite() <= vee
        # the breakpoints of either side are compared
        assert not plf((0, 0), (1, 0)) <= plf((0, 0), (F(1, 2), -1), (1, 0))


class TestPointwiseExtremum:
    def test_crossing_lines(self):
        f = plf((0, 0), (1, 1))
        g = plf((0, 1), (1, 0))
        lo = pointwise_extremum([f, g], "inf")
        hi = pointwise_extremum([f, g], "sup")
        assert lo.points == ((F(0), F(0)), (F(1, 2), F(1, 2)), (F(1), F(0)))
        assert hi.points == ((F(0), F(1)), (F(1, 2), F(1, 2)), (F(1), F(1)))

    def test_with_infinite(self):
        f = plf((0, 0), (1, 1))
        assert equals(pointwise_extremum([f, PLF1.infinite()], "inf"), f)
        assert pointwise_extremum([f, PLF1.infinite()], "sup").is_infinite


class TestRunningExtremum:
    def test_suffix_inf_vee(self):
        f = plf((0, 1), (F(1, 2), 0), (1, 1))
        g = running_extremum(f, "suffix", "inf")
        # right of the valley the suffix-inf climbs back up? no: it follows f
        # down to the valley then stays at the valley value going left.
        assert eval1(g, 0) == 0 and eval1(g, F(1, 2)) == 0 and eval1(g, 1) == 1

    def test_prefix_inf_vee(self):
        f = plf((0, 1), (F(1, 2), 0), (1, 1))
        g = running_extremum(f, "prefix", "inf")
        assert eval1(g, 0) == 1 and eval1(g, F(1, 2)) == 0 and eval1(g, 1) == 0

    def test_suffix_sup(self):
        f = plf((0, 0), (F(1, 2), 1), (1, 0))
        g = running_extremum(f, "suffix", "sup")
        assert eval1(g, 0) == 1 and eval1(g, F(3, 4)) == F(1, 2) and eval1(g, 1) == 0

    def test_structural_property(self):
        f = plf((0, 1), (F(1, 4), 0), (F(1, 2), 2), (1, 0))
        g = running_extremum(f, "suffix", "inf")
        check_running_extremum_structure(f, g, "inf")


def check_running_extremum_structure(f, g, direction):
    """Every non-constant piece of g is a piece of f; every constant piece
    value equals a local extremum (breakpoint value) of f."""
    fsegs = list(segments(f))
    fvals = {y for _, y in f.points}
    for x1, x2, a, b in segments(g):
        if a == 0:
            assert b in fvals, (x1, x2, b)
        else:
            assert any(
                fa == a and fb == b and fx1 <= x1 and fx2 >= x2
                for fx1, fx2, fa, fb in fsegs
            ), (x1, x2, a, b)


@st.composite
def random_plf1(draw):
    n = draw(st.integers(2, 6))
    xs = sorted(draw(st.sets(st.integers(1, 31), min_size=n - 2, max_size=n - 2)))
    xs = [F(0)] + [F(x, 32) for x in xs] + [F(1)]
    ys = [F(draw(st.integers(-8, 8)), draw(st.integers(1, 4))) for _ in xs]
    return PLF1(list(zip(xs, ys)))


def breakpoints_and_midpoints(*fs):
    """Every breakpoint of ``fs``, then the midpoint of each two consecutive
    ones.  Between two consecutive breakpoints a result is affine and the
    exact extremum is the min or max of affine functions, so the two agree
    on the whole interval when they agree at its ends and its midpoint."""
    xs = sorted({x for f in fs for x, _ in f.points})
    return xs + [(u + v) / 2 for u, v in zip(xs, xs[1:])]


@settings(max_examples=60, deadline=None)
@given(random_plf1(), st.sampled_from(["inf", "sup"]), st.sampled_from(["suffix", "prefix"]))
def test_running_extremum_properties(f, direction, side):
    # the structural law is stated over canonical pieces: adjacent collinear
    # input segments count as one piece
    f = canonicalize(f)
    g = running_extremum(f, side, direction)
    better = min if direction == "inf" else max
    for x in breakpoints_and_midpoints(f, g):
        beyond = [y for u, y in f.points if (u > x if side == "suffix" else u < x)]
        assert eval1(g, x) == better([eval1(f, x)] + beyond)
    check_running_extremum_structure(f, g, direction)
    assert equals(canonicalize(g), g)


@st.composite
def extremum_inputs(draw):
    """1-5 functions on [0, 1], or all on the point {0}, some of them +inf
    and some given twice."""
    on_point = draw(st.integers(0, 4)) == 0
    fs = []
    for _ in range(draw(st.integers(1, 5))):
        if fs and draw(st.integers(0, 5)) == 0:  # the same object again
            fs.append(fs[draw(st.integers(0, len(fs) - 1))])
        elif draw(st.integers(0, 5)) == 0:
            fs.append(PLF1.infinite())
        elif on_point:
            fs.append(plf_reference.point(F(draw(st.integers(-8, 8)),
                                            draw(st.integers(1, 4)))))
        else:
            fs.append(draw(random_plf1()))
    return fs


@settings(max_examples=150, deadline=None)
@given(extremum_inputs(), st.sampled_from(["inf", "sup"]))
def test_pointwise_extremum_is_exact(fs, direction):
    g = pointwise_extremum(fs, direction)
    if g.is_infinite:
        assert (all if direction == "inf" else any)(f.is_infinite for f in fs)
        return
    better = min if direction == "inf" else max
    finite = [f for f in fs if not f.is_infinite]
    for x in breakpoints_and_midpoints(g, *finite):
        assert eval1(g, x) == better(eval1(f, x) for f in fs)
    assert equals(canonicalize(g), g)


@settings(max_examples=100, deadline=None)
@given(random_plf1(), random_plf1(),
       st.lists(st.fractions(0, 1, max_denominator=64), max_size=4))
def test_values_at_is_eval1_on_a_merged_walk(f, g, extra):
    """``pointwise_extremum`` reads its inputs at their merged breakpoints
    with ``values_at``: the same values as ``eval1``, also between them."""
    xs = sorted({x for h in (f, g) for x, _ in h.points} | set(extra))
    assert values_at(f, xs) == [eval1(f, x) for x in xs]


# -- the integer operations against their Fraction reference ---------------

def rationals(lo, hi):
    """Rationals in [lo, hi] with denominators 1 to 12."""
    return st.integers(1, 12).flatmap(
        lambda q: st.integers(lo * q, hi * q).map(lambda p: F(p, q)))


DOMAINS = [(F(0), F(1)), (F(0), F(1, 2)), (F(1, 3), F(1)), (F(-1), F(2))]


@st.composite
def any_plf1(draw, domain=None, point=None):
    """+inf, a point-domain function at ``point`` (or at a drawn one), or
    1-5 pieces over ``domain`` (or a drawn one), with breakpoint and value
    denominators from 1 to 12, now and then all on one line."""
    kind = draw(st.integers(0, 7))
    if kind == 0:
        return PLF1.infinite()
    if kind == 1:
        x = point if point is not None else draw(rationals(0, 1))
        return plf_reference.point(draw(rationals(-6, 6)), x)
    lo, hi = domain or draw(st.sampled_from(DOMAINS))
    inner = draw(st.sets(rationals(-1, 2).filter(lambda x: lo < x < hi),
                         max_size=4))
    xs = [lo, *sorted(inner), hi]
    if kind == 2:
        c, m = draw(rationals(-3, 3)), draw(rationals(-3, 3))
        return PLF1([(x, c + m * x) for x in xs])
    return PLF1([(x, draw(rationals(-6, 6))) for x in xs])


@st.composite
def extremum_args(draw):
    """2-5 inputs, mostly on one domain or one point, some +inf, some
    given twice, now and then one on another domain."""
    domain = draw(st.sampled_from(DOMAINS))
    point = draw(st.sampled_from([F(0), F(1, 2)]))
    fs = []
    for _ in range(draw(st.integers(2, 5))):
        if fs and draw(st.integers(0, 6)) == 0:
            fs.append(fs[draw(st.integers(0, len(fs) - 1))])
        elif draw(st.integers(0, 9)) == 0:
            fs.append(draw(any_plf1()))
        else:
            fs.append(draw(any_plf1(domain, point)))
    return fs


def assert_same_outcome(new, reference, *args):
    """``new(*args)`` gives exactly the reference's function, with the same
    ``points``, or raises the same ``DomainError``."""
    try:
        want = reference(*args)
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            new(*args)
        assert str(got.value) == str(exc)
        return
    got = new(*args)
    if isinstance(want, PLF1):
        assert got.is_infinite == want.is_infinite
        assert got.points == want.points
        assert got == want and hash(got) == hash(want)
    else:
        assert got == want


def reduced(f):
    return f.den > 0 and gcd(f.den, *f.xs, *f.ys) == 1


@settings(max_examples=300, deadline=None)
@given(extremum_args(), st.sampled_from(["inf", "sup"]))
def test_pointwise_extremum_as_the_reference(fs, direction):
    assert_same_outcome(pointwise_extremum, plf_reference.pointwise_extremum,
                        fs, direction)


@settings(max_examples=200, deadline=None)
@given(any_plf1(), st.sampled_from(["suffix", "prefix"]),
       st.sampled_from(["inf", "sup"]))
def test_running_extremum_as_the_reference(f, side, direction):
    assert_same_outcome(running_extremum, plf_reference.running_extremum,
                        f, side, direction)
    assert_same_outcome(canonicalize, plf_reference.canonicalize, f)


@settings(max_examples=300, deadline=None)
@given(any_plf1(), st.sampled_from(["up", "down", "equal", "other"]),
       rationals(-1, 2), rationals(-1, 2), rationals(-4, 4),
       rationals(-4, 4))
def test_reparam_as_the_reference(f, view, u, v, slope, intercept):
    """The views the solver uses, (0, 1), (1, 0) and u0 == u1, and any
    other, some of them leaving the domain."""
    u0, u1 = {"up": (F(0), F(1)), "down": (F(1), F(0)), "equal": (u, u),
              "other": (u, v)}[view]
    assert_same_outcome(reparam, plf_reference.reparam,
                        f, u0, u1, slope, intercept)


@settings(max_examples=200, deadline=None)
@given(any_plf1(), any_plf1(), st.lists(rationals(-1, 2), max_size=4))
def test_eval_and_order_as_the_reference(f, g, xs):
    for x in xs:
        assert_same_outcome(eval1, plf_reference.eval1, f, x)
    if not f.is_infinite:
        inside = sorted({x for x in xs if f.lo <= x <= f.hi})
        assert values_at(f, inside) == plf_reference.values_at(f, inside)
    # the reference stops at the first point that decides, so across two
    # domains it may answer or raise; the order is defined on one domain
    if (f.is_infinite or g.is_infinite or (f.lo, f.hi) == (g.lo, g.hi)):
        assert_same_outcome(PLF1.__le__, plf_reference.le, f, g)
    else:
        with pytest.raises(DomainError):
            f <= g


class TestCanonicalForm:
    """Equal functions have equal fields, whatever they were built from."""

    def twins(self):
        f = plf((0, 1), (F(1, 3), 0), (1, 2))
        ramp = plf((0, 0), (1, 1))
        return [
            (plf((0, F(2, 4)), (1, 1)), plf((0, F(1, 2)), (1, 1))),
            (plf((0, 1), (1, 2)), plf((F(0), F(1)), (F(1), F(2)))),
            (plf((F(0), F(6, 3)), (F(3, 3), F(0))), plf((0, 2), (1, 0))),
            (canonicalize(f), f),
            (canonicalize(plf((0, 0), (F(1, 2), F(1, 2)), (1, 1))), ramp),
            (reparam(f, F(0), F(1)), f),
            (reparam(reparam(f, F(1), F(0)), F(1), F(0)), f),
            (pointwise_extremum([ramp, plf((0, 2), (1, 2))], "inf"), ramp),
            (running_extremum(ramp, "prefix", "sup"), ramp),
            (plf_reference.point(F(4, 6), F(0)),
             plf_reference.point(F(2, 3))),
            (PLF1.constant(3), plf((0, 3), (1, 3))),
        ]

    def test_twins_are_equal_with_equal_fields_and_hashes(self):
        for f, g in self.twins():
            assert f == g and hash(f) == hash(g), (f, g)
            assert (f.den, f.xs, f.ys) == (g.den, g.xs, g.ys), (f, g)
            assert all(type(c) is int for c in (f.den, *f.xs, *f.ys))
            assert reduced(f) and reduced(g)

    def test_equal_values_on_unequal_breakpoints_differ(self):
        # canonical fields do not merge collinear breakpoints by themselves,
        # but the pointwise order compares values
        ramp = plf((0, 0), (1, 1))
        split = plf((0, 0), (F(1, 2), F(1, 2)), (1, 1))
        assert split != ramp
        assert split <= ramp and ramp <= split and split <= split

    @settings(max_examples=100, deadline=None)
    @given(extremum_args(), st.sampled_from(["inf", "sup"]),
           st.sampled_from(["suffix", "prefix"]))
    def test_every_result_is_reduced(self, fs, direction, side):
        for f in fs:
            assert reduced(f) and reduced(canonicalize(f))
            assert reduced(running_extremum(f, side, direction))
        try:
            g = pointwise_extremum(fs, direction)
        except DomainError:
            return
        assert reduced(g)


class TestEnvelopePieces:
    def test_partial_cover(self):
        pieces = [(F(0), F(1, 2), F(0), F(1)), (F(1, 2), F(1), F(-2), F(2))]
        g = envelope_pieces(pieces, F(0), F(1), "inf")
        assert eval1(g, F(1, 4)) == 1 and eval1(g, 1) == 0

    def test_gap_raises(self):
        with pytest.raises(DomainError):
            envelope_pieces([(F(0), F(1, 2), F(0), F(1))], F(0), F(1), "inf")


def unit_triangle_plf2(coef):
    return PLF2.affine(((F(0), F(0)), (F(1), F(0)), (F(1), F(1))), coef)


class TestPLF2:
    def test_eval_affine(self):
        f = unit_triangle_plf2((1, 2, F(1, 2)))
        assert f.eval2((F(1, 2), F(1, 4))) == F(1, 2) + F(1, 2) + F(1, 2)

    def test_continuity_check(self):
        t1 = ((F(0), F(0)), (F(1), F(0)), (F(1), F(1)))
        t2 = ((F(0), F(0)), (F(1), F(1)), (F(0), F(1)))
        good = PLF2([(t1, (1, 0, 0)), (t2, (0, 1, 0))])
        # x and y agree on the shared diagonal x=y
        check_continuity(good)
        bad = PLF2([(t1, (1, 0, 0)), (t2, (0, 1, 1))])
        with pytest.raises(DomainError):
            check_continuity(bad)

    def test_restrict2(self):
        f = unit_triangle_plf2((1, 1, 0))  # x + y
        seg = Segment((F(0), F(0)), (F(1), F(1)))
        g = restrict2(f, seg)
        assert eval1(g, F(1, 2)) == 1  # (1/2, 1/2) -> 1

    def test_restrict2_degenerate(self):
        f = unit_triangle_plf2((1, 1, 0))
        g = restrict2(f, Segment((F(1, 2), F(1, 4)), (F(1, 2), F(1, 4))))
        assert g.is_point and eval1(g, 0) == F(3, 4)

    def test_fiber_extremum(self):
        # f(x, y) = y on lower triangle 0<=y<=x: inf over fiber = 0, sup = x
        f = unit_triangle_plf2((0, 1, 0))
        lo = fiber_extremum(f, "inf")
        hi = fiber_extremum(f, "sup")
        assert eval1(lo, F(1, 2)) == 0
        assert eval1(hi, F(1, 2)) == F(1, 2)
        assert eval1(hi, 1) == 1
