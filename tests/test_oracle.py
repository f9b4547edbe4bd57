from fractions import Fraction

import pytest

from corpus import G, loc, make_game, three_clock_demo
from wtgsolve.core import INF, MAX, MIN, InputError, Transition
from wtgsolve.oracle import GridOracle


def grid_tolerance(max_loc_weight: int, max_out_slope: Fraction,
                   horizon: int, n_grid: int) -> Fraction:
    """Error bound between grid and continuous play: one tick of rounding
    per step, each worth at most the steepest rate in the game."""
    s = (Fraction(max_loc_weight) + abs(Fraction(max_out_slope))) * (horizon + 1)
    return 2 * s / n_grid


def goal_only():
    return make_game([loc("G", goal=True)], [], "G", (0, 0))


def forced_delay():
    # One Min step: wait until x == 1 at rate 1, then exit.
    locs = [loc("a", MIN, weight=1), loc("G", goal=True)]
    trans = [Transition("t", "a", "G", guards=(G(0, "==", 1),))]
    return make_game(locs, trans, "a", (0, 0))


def min_max_chain():
    """Min picks a delay at rate 2, Max then picks the worse of two exits."""
    locs = [loc("a", MIN, weight=2), loc("m", MAX, weight=1),
            loc("G", goal=True)]
    trans = [
        Transition("ta", "a", "m", guards=(G(0, "<=", 1),)),
        Transition("tb", "m", "G", guards=(G(0, "==", 1),)),
        Transition("tc", "m", "G", guards=(G(0, "<=", 1),), weight=1),
    ]
    return make_game(locs, trans, "a", (0, 0))


class TestBoundedValues:
    def test_goal_is_zero_any_k(self):
        o = GridOracle(goal_only(), 4, 6)
        for k in range(7):
            assert o.value_at("G", (0, 0), k) == 0

    def test_forced_delay_unit_value(self):
        o = GridOracle(forced_delay(), 4, 3)
        assert o.value_at("a", (0, 0), 0) == INF
        assert o.value_at("a", (0, 0), 1) == 1
        assert o.value == 1

    def test_monotone_in_k(self):
        o = GridOracle(min_max_chain(), 4, 6)
        for name in o.game.locations:
            for k in range(6):
                for idx in o._grid_points():
                    v0 = o.value_at(name, [Fraction(i, 4) for i in idx], k)
                    v1 = o.value_at(name, [Fraction(i, 4) for i in idx], k + 1)
                    assert v1 <= v0

    def test_min_max_chain_value(self):
        # Min waits d (cost 2d); Max then waits to x = 1 and takes the paid
        # exit for (1 - d) + 1, beating the free timed exit. Min picks d = 0.
        o = GridOracle(min_max_chain(), 8, 4)
        assert o.value == 2

    def test_w_out_on_goal(self):
        g = forced_delay()
        w_out = {"G": lambda v: Fraction(1, 3) + v[1] / 2}
        o = GridOracle(g, 6, 2, w_out=w_out)
        # wait 1 (cost 1), land at (1, 1): 1 + 1/3 + 1/2
        assert o.value == Fraction(11, 6)

    def test_off_grid_initial_rejected(self):
        g = make_game([loc("G", goal=True)], [], "G", (Fraction(1, 3), 0))
        with pytest.raises(InputError):
            GridOracle(g, 4, 1)

    def test_bounded_value_helper(self):
        # the bounded grid value at the start, without layer storage
        assert GridOracle(forced_delay(), 4, 3, keep_layers=False).value == 1

    def test_tolerance_helper(self):
        assert grid_tolerance(2, Fraction(1, 2), 3, 16) == Fraction(5, 4)


class TestThreeClockDemo:
    def test_trace_at_n12(self):
        g = three_clock_demo()
        o = GridOracle(g, 12, 20, clock_cap=2, keep_layers=False)
        inf = [INF] * 5
        finite = [Fraction(n, d) for n, d in
                  [(2, 1), (2, 1), (4, 3), (4, 3), (7, 6), (7, 6)]]
        tail = [Fraction(13, 12)] * 9
        assert o.trace[:5] == inf
        assert o.trace[5:12] == finite + [Fraction(13, 12)]
        assert o.trace[12:] == tail

    def test_approaches_one_from_above(self):
        g = three_clock_demo()
        o = GridOracle(g, 12, 20, clock_cap=2, keep_layers=False)
        for v in o.trace:
            assert v >= Fraction(5, 6)
        assert all(b <= a for a, b in zip(o.trace, o.trace[1:]))

    def test_finer_grid_tightens(self):
        g = three_clock_demo()
        v = GridOracle(g, 24, 40, clock_cap=2, keep_layers=False).value
        assert Fraction(1) <= v <= Fraction(23, 20)


class TestPlay:
    def test_immediate_exit_weights(self):
        locs = [loc("a", MIN), loc("b", MAX), loc("G", goal=True)]
        trans = [Transition("t1", "a", "b", weight=2),
                 Transition("t2", "b", "G", weight=3)]
        g = make_game(locs, trans, "a", (0, 0))
        o = GridOracle(g, 4, 2)
        smin = {("a", (0, 0), 2): (0, "t1")}
        smax = {("b", (0, 0), 1): (0, "t2")}
        run, w = o.play(smin, smax)
        assert w == 5
        assert run[-1].location == "G"

    def test_greedy_matches_table(self):
        for g in (forced_delay(), min_max_chain()):
            o = GridOracle(g, 4, 4)
            run, w = o.play()
            assert run[-1].location == "G"
            assert w == o.value

    def test_greedy_matches_table_three_clocks(self):
        g = three_clock_demo()
        o = GridOracle(g, 4, 9, clock_cap=2)
        run, w = o.play()
        assert run[-1].location == "G"
        assert w == o.value

    def test_adversarial_max_never_beats_table(self):
        """Exhaust every Max grid behaviour against the greedy table Min:
        the resulting cost never exceeds the table value at the start."""
        g = min_max_chain()
        o = GridOracle(g, 4, 3)
        tmap = g.transition_map()

        def explore(conf, ticks, k, acc):
            results = []
            while True:
                locobj = g.locations[conf.location]
                if locobj.is_goal:
                    return [acc]
                if k == 0:
                    return [INF]
                if locobj.owner == MIN:
                    move = o.greedy_move(conf.location, ticks, k)
                    if move is None:
                        return [INF]
                    d, t, _ = move
                    conf, w = g.step(conf, Fraction(d, 4), t.tid)
                    ticks = tuple(0 if c in t.resets else i + d
                                  for c, i in enumerate(ticks))
                    acc += w
                    k -= 1
                    continue
                for d, t, _ in o.moves(conf.location, ticks, k):
                    nconf, w = g.step(conf, Fraction(d, 4), t.tid)
                    nticks = tuple(0 if c in t.resets else i + d
                                   for c, i in enumerate(ticks))
                    results.append(max(explore(nconf, nticks, k - 1, acc + w)))
                return results or [INF]

        outcomes = explore(g.initial, (0, 0), 3, Fraction(0))
        assert max(outcomes) <= o.value

    def test_cross_grid_agreement(self):
        g = min_max_chain()
        coarse = GridOracle(g, 8, 4, keep_layers=False).value
        fine = GridOracle(g, 16, 4, keep_layers=False).value
        eps = grid_tolerance(2, 0, 4, 8)
        assert abs(coarse - fine) <= eps

    def test_undefined_strategy_is_diagnosed(self):
        g = min_max_chain()
        o = GridOracle(g, 4, 3)
        from wtgsolve.core import InvalidStep
        with pytest.raises(InvalidStep):
            o.play(strategy_min={}, strategy_max={})
