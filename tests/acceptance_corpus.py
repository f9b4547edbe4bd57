"""Committed corpora backing the acceptance suite.

Three collections live here: kernel games for the fixed-point iteration,
two-clock games for the transformation/value-preservation checks, and
hand-derived games whose exact values are worked out in the docstrings.
"""
from fractions import Fraction as F

from corpus import G, loc, make_game
from kernel_reference import ON_X, ON_Y, PLF2, POINT, ExitGame, OutputValue
from wtgsolve.core import MAX, MIN, Configuration, Location, Transition, WeightedTimedGame
from wtgsolve.plf import PLF1


# ---------------------------------------------------------------------------
# Kernel corpus: zero-weight games on 1-D boundary regions with
# piecewise-linear exit costs (<= 3 pieces, breakpoint denominators <= 8).
# ---------------------------------------------------------------------------

P_VEE = PLF1([(0, 1), (F(1, 2), 0), (1, 1)])
P_RAMP = PLF1([(0, F(1, 2)), (1, 1)])
P_TABLE = PLF1([(0, 0), (F(1, 4), 1), (F(3, 4), 1), (1, 0)])
P_DOWN = PLF1([(0, 1), (1, 0)])
P_TENT = PLF1([(0, F(3, 8)), (F(5, 8), 1), (1, F(1, 2))])

XY_SUM = OutputValue(PLF2.affine(
    ((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))), (1, 1, 0)))


def out_slope(ov: OutputValue) -> F:
    """Steepest directional slope of an exit-cost function."""
    if ov.plf2.is_infinite:
        return F(0)
    return max((abs(a) + abs(b) for _, (a, b, _) in ov.plf2.cells),
               default=F(0))


def T(tid, src, tgt, resets=()):
    return Transition(tid, src, tgt, resets=frozenset(resets))


def _single(owner, shape, out):
    locs = {"k": Location("k", owner), "g": Location("g", MIN, is_goal=True)}
    return ExitGame(locs, [T("out", "k", "g")], {"k": shape},
                      {"g": out}, "k")


def _pair(o1, o2, w1, w2):
    locs = {
        "k1": Location("k1", o1),
        "k2": Location("k2", o2),
        "g1": Location("g1", MIN, is_goal=True),
        "g2": Location("g2", MIN, is_goal=True),
    }
    trans = [
        T("a", "k1", "k2", resets={1}),
        T("b", "k2", "k1", resets={0}),
        T("e1", "k1", "g1"),
        T("e2", "k2", "g2"),
    ]
    return ExitGame(locs, trans, {"k1": ON_Y, "k2": ON_X},
                      {"g1": w1, "g2": w2}, "k1")


def _ring(o2, out):
    """Four kernel locations on an alternating boundary cycle, one goal."""
    locs = {
        "k1": Location("k1", MIN),
        "k2": Location("k2", o2),
        "k3": Location("k3", MIN),
        "k4": Location("k4", MIN),
        "g": Location("g", MIN, is_goal=True),
    }
    trans = [
        T("a", "k1", "k2", resets={1}),
        T("b", "k2", "k3", resets={0}),
        T("c", "k3", "k4", resets={1}),
        T("d", "k4", "k1", resets={0}),
        T("e1", "k1", "g"),
        T("e3", "k3", "g"),
    ]
    return ExitGame(locs, trans,
                      {"k1": ON_Y, "k2": ON_X, "k3": ON_Y, "k4": ON_X},
                      {"g": out}, "k1")


def kernel_corpus():
    oy, ox, c = OutputValue.on_y, OutputValue.on_x, OutputValue.constant
    return [
        ("single_xy", _single(MIN, ON_Y, XY_SUM)),
        ("single_vee", _single(MIN, ON_Y, oy(P_VEE))),
        ("single_max_const", _single(MAX, ON_Y, c(F(3, 4)))),
        ("single_onx_ramp", _single(MIN, ON_X, ox(P_RAMP))),
        ("single_max_xy", _single(MAX, ON_X, XY_SUM)),
        ("point_xy", _single(MIN, POINT, XY_SUM)),
        ("point_max_const", _single(MAX, POINT, c(F(1, 2)))),
        ("pair_mm_vee", _pair(MIN, MIN, oy(P_VEE), c(F(3, 4)))),
        ("pair_mm_xy", _pair(MIN, MIN, XY_SUM, ox(P_RAMP))),
        ("pair_mm_table", _pair(MIN, MIN, oy(P_TABLE), ox(P_DOWN))),
        ("pair_mx_vee", _pair(MIN, MAX, oy(P_VEE), c(F(3, 4)))),
        ("pair_mx_tent", _pair(MIN, MAX, XY_SUM, ox(P_TENT))),
        ("pair_mx_down", _pair(MIN, MAX, oy(P_DOWN), c(2))),
        ("pair_xm_ramp", _pair(MAX, MIN, oy(P_RAMP), c(1))),
        ("pair_xm_table", _pair(MAX, MIN, XY_SUM, ox(P_TABLE))),
        ("pair_xx_const", _pair(MAX, MAX, c(1), c(F(1, 2)))),
        ("pair_mm_tent", _pair(MIN, MIN, oy(P_TENT), ox(P_TENT))),
        ("pair_mx_table", _pair(MIN, MAX, oy(P_TABLE), ox(P_RAMP))),
        ("pair_xm_down", _pair(MAX, MIN, oy(P_DOWN), XY_SUM)),
        ("ring_min_vee", _ring(MIN, oy(P_VEE))),
        ("ring_max_xy", _ring(MAX, XY_SUM)),
    ]


def kernel_to_wtg(kg: ExitGame) -> WeightedTimedGame:
    return WeightedTimedGame(
        clocks=["x", "y"],
        locations=dict(kg.locations),
        transitions=list(kg.transitions),
        initial=Configuration(kg.entrance, (F(0), F(0))),
    )


def shape_points(shape, n):
    """Grid points of a boundary shape at resolution 1/n."""
    if shape == POINT:
        return [(F(0), F(0))]
    if shape == ON_Y:
        return [(F(0), F(i, n)) for i in range(n + 1)]
    return [(F(i, n), F(0)) for i in range(n + 1)]


# ---------------------------------------------------------------------------
# Transformation corpus: two-clock games solved end to end and compared
# across the value-preserving rewrites.
# ---------------------------------------------------------------------------

def min_wait():
    locs = [loc("a", MIN, weight=1), loc("G", goal=True)]
    trans = [Transition("t1", "a", "G", guards=(G(0, "==", 1),),
                        resets=frozenset({0}))]
    return make_game(locs, trans, "a", (0, 0))


def max_wait():
    locs = [loc("a", MAX, weight=1), loc("G", goal=True)]
    trans = [Transition("t1", "a", "G", guards=(G(0, "<=", 1),),
                        resets=frozenset({0}))]
    return make_game(locs, trans, "a", (0, 0))


def urgent_exit():
    locs = [loc("a", MIN, weight=1), loc("G", goal=True)]
    trans = [Transition("t1", "a", "G", guards=(G(0, "<=", 1),))]
    return make_game(locs, trans, "a", (0, 0))


def min_max_chain():
    locs = [loc("a", MIN, weight=2), loc("m", MAX, weight=1),
            loc("G", goal=True)]
    trans = [
        Transition("ta", "a", "m", guards=(G(0, "<=", 1),)),
        Transition("tb", "m", "G", guards=(G(0, "==", 1),)),
        Transition("tc", "m", "G", guards=(G(0, "<=", 1),), weight=1),
    ]
    return make_game(locs, trans, "a", (0, 0))


def zero_kernel():
    locs = [loc("a", MIN), loc("b", MIN), loc("G", goal=True)]
    trans = [
        Transition("t1", "a", "b", guards=(G(1, "==", 1),),
                   resets=frozenset({1})),
        Transition("t2", "b", "a", guards=(G(0, "==", 1),),
                   resets=frozenset({0})),
        Transition("t3", "a", "G", guards=(G(1, "==", 1),),
                   resets=frozenset({1}), weight=1),
    ]
    return make_game(locs, trans, "a", (0, F(1, 2)))


def unit_cycle():
    locs = [loc("a", MIN, weight=1), loc("b", MIN), loc("G", goal=True)]
    trans = [
        Transition("t1", "a", "b", guards=(G(0, "==", 1), G(1, "==", 1)),
                   resets=frozenset({0, 1})),
        Transition("t2", "b", "a", guards=(G(0, "==", 0),)),
        Transition("t3", "b", "G", guards=(G(0, "==", 0),), weight=1),
    ]
    return make_game(locs, trans, "a", (0, 0))


def positive_loop():
    locs = [loc("a", MIN), loc("G", goal=True)]
    trans = [
        Transition("t1", "a", "a", guards=(G(0, "==", 1),),
                   resets=frozenset({0, 1}), weight=1),
        Transition("t2", "a", "G", guards=(G(0, "==", 1),),
                   resets=frozenset({0}), weight=2),
    ]
    return make_game(locs, trans, "a", (0, 0))


def max_out_wait():
    locs = [loc("a", MAX), loc("G", goal=True)]
    trans = [Transition("t1", "a", "G", guards=(G(0, "==", 1),), weight=1)]
    return make_game(locs, trans, "a", (F(7, 8), F(5, 8)))


def zero_selfloop_weighted():
    locs = [loc("a", MIN, weight=2), loc("G", goal=True)]
    trans = [
        Transition("t1", "a", "a", guards=(G(0, "==", 0),),
                   resets=frozenset({1})),
        Transition("t2", "a", "G", guards=(G(0, "==", 0),), weight=1),
    ]
    return make_game(locs, trans, "a", (0, 0))


def interval_guard():
    locs = [loc("a", MIN, weight=1), loc("G", goal=True)]
    trans = [Transition("t1", "a", "G",
                        guards=(G(0, ">=", 1), G(0, "<=", 2)),
                        resets=frozenset({0}))]
    return make_game(locs, trans, "a", (0, 0))


def quarter_wait():
    locs = [loc("a", MIN, weight=1), loc("G", goal=True)]
    trans = [Transition("t1", "a", "G", guards=(G(1, "==", 1),),
                        resets=frozenset({1}))]
    return make_game(locs, trans, "a", (0, F(3, 4)))


def max_choice():
    locs = [loc("s", MAX, weight=2), loc("G", goal=True)]
    trans = [
        Transition("now", "s", "G", guards=(G(0, "==", 0),), weight=1),
        Transition("later", "s", "G", guards=(G(0, "==", 1),),
                   resets=frozenset({0})),
    ]
    return make_game(locs, trans, "s", (0, 0))


def transformation_corpus():
    # max_out_wait is deliberately absent: its rollover copies reach
    # valuations where the sole guard is forever unsatisfiable, so the raw
    # normalized game is not move-equivalent (the region stages repair this;
    # its end-to-end value is checked in test_unfold).
    return [
        ("min_wait", min_wait()),
        ("max_wait", max_wait()),
        ("urgent_exit", urgent_exit()),
        ("min_max_chain", min_max_chain()),
        ("zero_kernel", zero_kernel()),
        ("unit_cycle", unit_cycle()),
        ("positive_loop", positive_loop()),
        ("max_choice", max_choice()),
        ("zero_selfloop_weighted", zero_selfloop_weighted()),
        ("interval_guard", interval_guard()),
        ("quarter_wait", quarter_wait()),
    ]


# ---------------------------------------------------------------------------
# Exact corpus: games with values derived by hand (see the docstrings).
# ---------------------------------------------------------------------------

def exact_min_wait():
    """Value 1.  Min's only move fires at x = 1 after 1 time unit spent at
    a rate-1 location; no transition weight, so the cost is 1 * 1 = 1."""
    return min_wait()


def exact_quarter_wait():
    """Value 1/4.  From (0, 3/4) the guard y = 1 fires after delay d = 1/4;
    the start location has rate 1 and the exit is free, so 1 * 1/4 = 1/4."""
    return quarter_wait()


def exact_min_max_chain():
    """Value 2.  Min waits d in [0, 1] at rate 2 (cost 2d) and hands over at
    x = d; Max at rate 1 then chooses the better of: exit paid now for
    (1 - d') * 0 + ... formally max over d' in [0, 1 - d] of
    d' + [t_b available only at d + d' = 1: cost 0] and [t_c: cost +1].
    Max's optimum is to wait to x = 1 and take the paid exit t_c:
    (1 - d) + 1 = 2 - d.  Total cost 2d + (2 - d) = 2 + d, which Min
    minimizes at d = 0: value 2."""
    return min_max_chain()


def exact_zero_kernel():
    """Value 1.  Both locations have rate 0, the loop t1/t2 has weight 0, and
    the only transition into G is t3 with weight 1, so every play to the goal
    costs exactly 1, and Min can reach G (take t1's guard y = 1, cycle back,
    exit at t3): value 1."""
    return zero_kernel()


def exact_min_choice():
    """Value 1.  Min at rate 2 chooses between the immediate paid exit
    (weight 1, guard x = 0: cost 1) and the free exit at x = 1 (cost
    2 * 1 = 2).  Min takes the paid exit: value 1."""
    locs = [loc("s", MIN, weight=2), loc("G", goal=True)]
    trans = [
        Transition("now", "s", "G", guards=(G(0, "==", 0),), weight=1),
        Transition("later", "s", "G", guards=(G(0, "==", 1),),
                   resets=frozenset({0})),
    ]
    return make_game(locs, trans, "s", (0, 0))


def exact_max_choice():
    """Value 2.  Same exits as exact_min_choice but Max owns the location:
    Max prefers the free exit at x = 1 costing 2 * 1 = 2 over the immediate
    paid exit costing 1: value 2."""
    locs = [loc("s", MAX, weight=2), loc("G", goal=True)]
    trans = [
        Transition("now", "s", "G", guards=(G(0, "==", 0),), weight=1),
        Transition("later", "s", "G", guards=(G(0, "==", 1),),
                   resets=frozenset({0})),
    ]
    return make_game(locs, trans, "s", (0, 0))


def exact_corpus():
    return [
        ("exact_min_wait", exact_min_wait(), F(1)),
        ("exact_quarter_wait", exact_quarter_wait(), F(1, 4)),
        ("exact_min_max_chain", exact_min_max_chain(), F(2)),
        ("exact_zero_kernel", exact_zero_kernel(), F(1)),
        ("exact_min_choice", exact_min_choice(), F(1)),
        ("exact_max_choice", exact_max_choice(), F(2)),
    ]


# ---------------------------------------------------------------------------
# Normalization fixtures (location counts after the [0,1]-rescaling).
# ---------------------------------------------------------------------------

def norm_fixture_m1():
    """Both clocks pinned inside the unit cell: no location copies needed."""
    locs = [loc("a", MIN, weight=1), loc("G", goal=True)]
    trans = [Transition("t1", "a", "G",
                        guards=(G(0, "<", 1), G(1, "<", 1)))]
    return make_game(locs, trans, "a", (0, 0))


def norm_fixture_m2():
    """Constants up to 1 with an unpinned clock: one cell per unit square."""
    return min_wait()


def norm_fixture_m3():
    """Constants up to 2: three unit cells per clock."""
    return interval_guard()


def normalization_fixtures():
    return [
        ("m1", norm_fixture_m1()),
        ("m2", norm_fixture_m2()),
        ("m3", norm_fixture_m3()),
    ]


def mixed_cycle():
    """Cycle whose corner weights span {0, 1}: not almost non-Zeno."""
    locs = [loc("a", MIN, weight=1), loc("b", MIN), loc("G", goal=True)]
    trans = [
        Transition("t1", "a", "b", guards=(G(1, "==", 1),),
                   resets=frozenset({1})),
        Transition("t2", "b", "a", guards=(G(0, "==", 1),),
                   resets=frozenset({0})),
        Transition("t3", "b", "G", guards=(G(0, "==", 1),),
                   resets=frozenset({0}), weight=1),
    ]
    return make_game(locs, trans, "a", (0, F(1, 2)))


def zero_kernel_free_exit():
    """``zero_kernel`` with one more exit b -> G (``c0<=1``, resetting c0,
    weight 2): the kernel's exits land on a fixed point.  Value 1."""
    g = zero_kernel()
    g.transitions.append(Transition("t4", "b", "G", guards=(G(0, "<=", 1),),
                                    resets=frozenset({0}), weight=2))
    return g


def double_reset_kernel():
    """A Min location of rate 0 with an unguarded self-loop resetting both
    clocks, and an exit ``c0==1 && c1==1`` resetting both at weight 1.
    Value 1."""
    locs = [loc("q0", MIN), loc("G", goal=True)]
    trans = [
        Transition("s", "q0", "q0", resets=frozenset({0, 1})),
        Transition("e", "q0", "G", guards=(G(0, "==", 1), G(1, "==", 1)),
                   resets=frozenset({0, 1}), weight=1),
    ]
    return make_game(locs, trans, "q0", (0, 0))


def max_dead_end():
    """Max at q0 (rate 2) may reset both clocks into the goal, or move
    without a reset to q1 (Max, rate 0), whose one exit needs ``c0<=1``.
    Waiting past c0 = 1 and then moving strands the play at q1: value +inf."""
    locs = [loc("q0", MAX, weight=2), loc("q1", MAX), loc("G", goal=True)]
    trans = [
        Transition("t0", "q0", "q1"),
        Transition("t1", "q1", "G", guards=(G(0, "<=", 1),),
                   resets=frozenset({0})),
        Transition("t3", "q0", "G", resets=frozenset({0, 1})),
    ]
    return make_game(locs, trans, "q0", (0, 0))
