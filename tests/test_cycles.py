from fractions import Fraction as F

import pytest

import anz_reference
from corpus import G, loc, make_game, three_clock_demo
from wtgsolve.core import MAX, MIN, StructuralError, Transition
from wtgsolve.cycles import (
    ANZ,
    VIOLATION,
    build_corner_point,
    check_almost_non_zeno,
    compute_bounds,
    extract_kernel,
    fix_weight_zero,
    mark_green,
)
from wtgsolve.oracle import GridOracle
from wtgsolve.regions import (
    Region,
    RegionGame,
    build_region_wtg,
    normalize_01,
    prune_unreachable,
    trim,
)


def corner_nodes(cp):
    """The (region-location, corner) nodes that corner edges join."""
    return {n for edges in cp.by_tid.values()
            for u, v, _w in edges for n in (u, v)}


def pipeline(game):
    rg = trim(build_region_wtg(normalize_01(game)))
    return prune_unreachable(rg, [rg.game.initial.location])


def unit_cycle():
    """Forced unit delay at a weight-1 location on every loop."""
    locs = [loc("a", MIN, weight=1), loc("b", MIN), loc("G", goal=True)]
    trans = [
        Transition("t1", "a", "b", guards=(G(0, "==", 1), G(1, "==", 1)),
                   resets=frozenset({0, 1})),
        Transition("t2", "b", "a", guards=(G(0, "==", 0),)),
        Transition("t3", "b", "G", guards=(G(0, "==", 0),), weight=1),
    ]
    return make_game(locs, trans, "a", (0, 0))


def mixed_cycle():
    """Corner weights span {0, 1}: entering late makes the loop cheap."""
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


def zero_kernel():
    """All-zero two-location cycle with a paid exit."""
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


def two_weighted_green():
    """Two weighted locations, each with an urgent zero-cost self-loop,
    entered by moves that are not green."""
    locs = [loc("s", MIN), loc("a", MIN, weight=2), loc("b", MAX, weight=3),
            loc("G", goal=True)]
    trans = [
        Transition("ts", "s", "a", guards=(G(1, "==", 0),)),
        Transition("t1", "a", "a", guards=(G(0, "==", 0),),
                   resets=frozenset({1})),
        Transition("t2", "a", "b", guards=(G(0, "==", 0),), weight=1),
        Transition("t3", "b", "b", guards=(G(0, "==", 0),),
                   resets=frozenset({1})),
        Transition("t4", "b", "G", guards=(G(0, "==", 0),), weight=1),
        Transition("t5", "b", "a", guards=(G(1, "==", 1),),
                   resets=frozenset({1})),
    ]
    return make_game(locs, trans, "s", (0, 0))


def zero_selfloop_weighted():
    """A weight-2 location whose only cycle is an urgent zero-cost loop."""
    locs = [loc("a", MIN, weight=2), loc("G", goal=True)]
    trans = [
        Transition("t1", "a", "a", guards=(G(0, "==", 0),),
                   resets=frozenset({1})),
        Transition("t2", "a", "G", guards=(G(0, "==", 0),), weight=1),
    ]
    return make_game(locs, trans, "a", (0, 0))


class TestCornerPoint:
    def test_point_region_has_one_corner(self):
        cp = build_corner_point(pipeline(unit_cycle()))
        a0 = next(n for n in cp.rg.game.locations
                  if n.split("#")[0] == "a" and cp.rg.reg[n].dim == 0)
        corners = [c for (n, c) in corner_nodes(cp) if n == a0]
        assert corners == [(0, 0)]

    def test_segment_region_has_two_corners(self):
        cp = build_corner_point(pipeline(zero_kernel()))
        seg = next(n for n in cp.rg.game.locations
                   if n.split("#")[0] == "a" and cp.rg.reg[n].dim == 1)
        corners = {c for (n, c) in corner_nodes(cp) if n == seg}
        assert corners == {(0, 0), (0, 1)}

    def test_a_corner_off_the_target_region_is_refused(self):
        # Both resets land on (0, 0), which no region with x = y = 1 holds.
        rg = pipeline(unit_cycle())
        t = next(t for t in rg.game.transitions if t.resets == {0, 1})
        rg.reg[t.tgt] = Region((frozenset(),), frozenset({0, 1}))
        for build in (build_corner_point, anz_reference.build_corner_point):
            with pytest.raises(StructuralError,
                               match="off the target region of "):
                build(rg)

    def test_forced_unit_delay_cycle_weight(self):
        cp = build_corner_point(pipeline(unit_cycle()))
        report = check_almost_non_zeno(cp)
        assert report.verdict == ANZ
        # the loop through the weight-1 location costs exactly 1
        weights = set()
        for _u, _v, w in cp.by_tid.get(next(
                t.tid for t in cp.rg.game.transitions
                if t.tid.split("#")[0] == "t1"), []):
            weights.add(w)
        assert weights == {1}

    def test_integer_nonnegative_weights(self):
        cp = build_corner_point(pipeline(three_clock_demo()))
        edges = [e for es in cp.by_tid.values() for e in es]
        assert len(edges) == cp.graph.number_of_edges() > 0
        for _u, _v, w in edges:
            assert isinstance(w, int) and w >= 0


class TestAnzCheck:
    def test_three_clock_demo_is_anz(self):
        cp = build_corner_point(pipeline(three_clock_demo()))
        report = check_almost_non_zeno(cp)
        assert report.verdict == ANZ
        assert report.kappa == 1

    def test_unguarded_reset_loop_violates(self):
        locs = [loc("a", MIN, weight=1), loc("G", goal=True)]
        trans = [Transition("t1", "a", "a", resets=frozenset({0, 1})),
                 Transition("t2", "a", "G", weight=1)]
        g = make_game(locs, trans, "a", (0, 0))
        cp = build_corner_point(pipeline(g))
        report = check_almost_non_zeno(cp)
        assert report.verdict == VIOLATION
        lo, hi = report.witness_weights
        assert lo == 0 and hi >= 1
        # the witness is a real cycle of the region game
        tmap = cp.rg.game.transition_map()
        ring = [tmap[tid] for tid in report.witness]
        for t, nxt in zip(ring, ring[1:] + ring[:1]):
            assert t.tgt == nxt.src

    def test_mixed_cycle_violates(self):
        cp = build_corner_point(pipeline(mixed_cycle()))
        report = check_almost_non_zeno(cp)
        assert report.verdict == VIOLATION
        assert report.witness_weights == (0, 1)

    def test_zero_selfloop_is_anz(self):
        cp = build_corner_point(pipeline(zero_selfloop_weighted()))
        assert check_almost_non_zeno(cp).verdict == ANZ


class TestGreenMarking:
    def test_zero_cycle_green_exit_not(self):
        rg = pipeline(zero_kernel())
        marking = mark_green(rg, build_corner_point(rg))
        green_bases = {n.split("@")[0].split("#")[0] for n in marking.locations}
        assert green_bases == {"a", "b"}
        assert all(not tid.split("#")[0] == "t3" for tid in marking.transitions)
        assert any(tid.split("#")[0] == "t1" for tid in marking.transitions)

    def test_paid_cycle_not_green(self):
        rg = pipeline(unit_cycle())
        marking = mark_green(rg, build_corner_point(rg))
        assert marking.locations == frozenset()
        assert marking.transitions == frozenset()

    def test_acyclic_empty_marking(self):
        rg = pipeline(forced := make_game(
            [loc("a", MIN, weight=1), loc("G", goal=True)],
            [Transition("t", "a", "G", guards=(G(0, "==", 1),),
                        resets=frozenset({0}))], "a", (0, 0)))
        marking = mark_green(rg, build_corner_point(rg))
        assert not marking.locations and not marking.transitions


class TestFixWeightZero:
    def test_identity_when_green_weights_zero(self):
        rg = pipeline(zero_kernel())
        marking = mark_green(rg, build_corner_point(rg))
        fixed, marking2 = fix_weight_zero(rg, marking)
        assert fixed is rg and marking2 is marking

    def test_split_weighted_green_location(self):
        rg = pipeline(zero_selfloop_weighted())
        marking = mark_green(rg, build_corner_point(rg))
        fixed, marking2 = fix_weight_zero(rg, marking)
        twins = [n for n in fixed.game.locations if n.endswith("~z0")]
        assert len(twins) == 1
        twin = twins[0]
        assert fixed.game.locations[twin].weight == 0
        assert twin in marking2.locations
        original = twin[:-len("~z0")]
        assert original not in marking2.locations
        hop = [t for t in fixed.game.transitions if t.src == twin
               and t.tgt == original]
        assert len(hop) == 1
        assert hop[0].guards[0].op == "==" and hop[0].guards[0].bound == 0
        # green loop now lives on the twin
        assert all(t.src == twin for t in fixed.game.transitions
                   if t.tid in marking2.transitions)

    def test_two_splits_redirect_in_one_pass(self):
        # Every move keeps its place, green ones leave the twin, every move
        # into a split location enters its twin, and the hops come last, by
        # location: the moves below are those of splitting one location at
        # a time, rescanning the moves after each split.
        rg = pipeline(two_weighted_green())
        marking = mark_green(rg, build_corner_point(rg))
        fixed, marking2 = fix_weight_zero(rg, marking)
        a, b = "a#0,0@[c0,c1]", "b#0,0@[c0,c1]"
        assert [(t.tid, t.src, t.tgt) for t in fixed.game.transitions] == [
            ("ts#0,0@s#0,0@[c0,c1]~0", "s#0,0@[c0,c1]", f"{a}~z0"),
            (f"t1#0,0@{a}~0", f"{a}~z0", f"{a}~z0"),
            (f"t2#0,0@{a}~0", a, f"{b}~z0"),
            (f"t3#0,0@{b}~0", f"{b}~z0", f"{b}~z0"),
            (f"t4#0,0@{b}~0", b, "G#0,0@[c0,c1]"),
            ("t5#1,1@b#1,1@[c0,c1]~0", "b#1,1@[c0,c1]", "a#1,0@[c0,c1]"),
            (f"__roll_b#0,0_0_1@{b}~2", b, "b#1,1@[c0,c1]"),
            (f"__z0_{a}", f"{a}~z0", a),
            (f"__z0_{b}", f"{b}~z0", b),
        ]
        assert marking2.locations == {f"{a}~z0", f"{b}~z0"}
        assert marking2.transitions == marking.transitions

    def test_split_preserves_oracle_value(self):
        rg = pipeline(zero_selfloop_weighted())
        marking = mark_green(rg, build_corner_point(rg))
        fixed, _ = fix_weight_zero(rg, marking)
        before = GridOracle(rg.game, 4, 8, keep_layers=False).value
        after = GridOracle(fixed.game, 4, 8, keep_layers=False).value
        assert before == after == 1


class TestKernel:
    def test_two_cycle_one_exit(self):
        rg = pipeline(zero_kernel())
        marking = mark_green(rg, build_corner_point(rg))
        kernel = extract_kernel(rg, marking)
        assert len(kernel.components) == 1
        bases = {n.split("@")[0].split("#")[0] for n in kernel.components[0]}
        assert bases == {"a", "b"}
        assert any(t.tid.split("#")[0] == "t3" for t in kernel.output_edges)
        members = frozenset().union(*kernel.components)
        assert all(t.src in members for t in kernel.output_edges)

    def test_empty_kernel(self):
        rg = pipeline(unit_cycle())
        marking = mark_green(rg, build_corner_point(rg))
        kernel = extract_kernel(rg, marking)
        assert kernel.components == [] and kernel.output_edges == []

    def test_disjoint_components(self):
        # two decoupled zero cycles reachable from a common start
        locs = [loc("s", MIN), loc("a", MIN), loc("b", MIN), loc("c", MIN),
                loc("d", MIN), loc("G", goal=True)]
        trans = [
            Transition("sa", "s", "a", guards=(G(0, "==", 0),)),
            Transition("sc", "s", "c", guards=(G(0, "==", 0),)),
            Transition("t1", "a", "b", guards=(G(1, "==", 1),),
                       resets=frozenset({1})),
            Transition("t2", "b", "a", guards=(G(0, "==", 1),),
                       resets=frozenset({0})),
            Transition("t3", "c", "d", guards=(G(1, "==", 1),),
                       resets=frozenset({1})),
            Transition("t4", "d", "c", guards=(G(0, "==", 1),),
                       resets=frozenset({0})),
            Transition("te", "a", "G", guards=(G(1, "==", 1),),
                       resets=frozenset({1}), weight=1),
            Transition("tf", "c", "G", guards=(G(1, "==", 1),),
                       resets=frozenset({1}), weight=1),
        ]
        g = make_game(locs, trans, "s", (0, F(1, 2)))
        rg = pipeline(g)
        marking = mark_green(rg, build_corner_point(rg))
        kernel = extract_kernel(rg, marking)
        assert len(kernel.components) == 2


class TestBounds:
    def test_formula(self):
        locs = [loc(f"l{i}", MIN, weight=3 if i == 0 else 0)
                for i in range(9)] + [loc("G", goal=True)]
        trans = [Transition(f"t{i}", f"l{i}", f"l{i+1}" if i < 8 else "G",
                            weight=2 if i == 0 else 0) for i in range(9)]
        g = make_game(locs, trans, "l0", (0, 0))
        kappa, w = compute_bounds(RegionGame(g, {}))
        assert (kappa, w) == (1, 60)

    def test_all_zero_weights(self):
        locs = [loc("a", MIN), loc("G", goal=True)]
        trans = [Transition("t", "a", "G")]
        g = make_game(locs, trans, "a", (0, 0))
        _, w = compute_bounds(RegionGame(g, {}))
        assert w == 2

    def test_w_dominates_oracle_value(self):
        for g in (unit_cycle(), zero_kernel(), zero_selfloop_weighted()):
            rg = pipeline(g)
            _, w = compute_bounds(rg)
            val = GridOracle(g, 4, 12, keep_layers=False).value
            assert val <= w
