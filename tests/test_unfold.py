import functools
import itertools
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import kernel_reference
import test_anz
import unfold_reference
from acceptance_corpus import (double_reset_kernel, exact_corpus,
                               max_dead_end, transformation_corpus,
                               zero_kernel_free_exit)
from corpus import G, loc, make_game, three_clock_demo
from kernel_reference import (ON_X, ON_Y, POINT, _exit_cost, _shape_of,
                              _to_output, equals, project_output)
from wtgsolve import kernelvi, regions, unfold
from wtgsolve.core import (MAX, MIN, Configuration, DomainError, GameError,
                           InputError, Transition)
from wtgsolve.gameio import game_from_dict, game_to_dict
from wtgsolve.oracle import GridOracle
from wtgsolve.plf import PLF1, eval1, reparam
from wtgsolve.regions import (Region, all_regions, build_region_wtg,
                              clock_bound, normalize_01, trim)
from wtgsolve.unfold import (
    MoreThanTwoClocks,
    NotAlmostNonZeno,
    check_finite_value,
    decide,
    prepare,
    solve,
    value_functions,
)

from unfold_reference import (GOAL, KERNEL, STOPPED, deeper_root_value,
                              jacobi_value_functions, rescan_finite_value,
                              semi_unfold, solve_node)
from plf_reference import point
from test_plf import random_plf1

INF = float("inf")

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
import families  # noqa: E402  (the benchmark's generators, used read-only)
import references  # noqa: E402  (read-only)


# -- fixtures ----------------------------------------------------------------

def min_wait():
    """Min must wait to x=1 at a weight-1 location: value 1."""
    locs = [loc("a", MIN, weight=1), loc("G", goal=True)]
    trans = [Transition("t1", "a", "G", guards=(G(0, "==", 1),),
                        resets=frozenset({0}), weight=0)]
    return make_game(locs, trans, "a", (0, 0))


def max_wait():
    """Max would rather wait: guard x<=1 at a weight-1 location, value 1."""
    locs = [loc("a", MAX, weight=1), loc("G", goal=True)]
    trans = [Transition("t1", "a", "G", guards=(G(0, "<=", 1),),
                        resets=frozenset({0}), weight=0)]
    return make_game(locs, trans, "a", (0, 0))


def urgent_exit():
    """Min exits immediately at zero delay: value 0 despite the weight."""
    locs = [loc("a", MIN, weight=1), loc("G", goal=True)]
    trans = [Transition("t1", "a", "G", resets=frozenset({0}))]
    return make_game(locs, trans, "a", (0, 0))


def no_goal_path():
    """The goal exists but no transition reaches it."""
    locs = [loc("a", MIN), loc("b", MIN), loc("G", goal=True)]
    trans = [
        Transition("t1", "a", "b", guards=(G(0, "==", 1),),
                   resets=frozenset({0})),
        Transition("t2", "b", "a", guards=(G(0, "==", 1),),
                   resets=frozenset({0})),
    ]
    return make_game(locs, trans, "a", (0, 0))


def max_trap():
    """Max steers into a goalless loop, so Min cannot force the goal:
    i -> m; Max at m picks x2 (looping back) over x1 (which exits)."""
    locs = [loc("i", MIN), loc("m", MAX), loc("x1", MIN), loc("x2", MIN),
            loc("G", goal=True)]
    trans = [
        Transition("t1", "i", "m", resets=frozenset({0})),
        Transition("t2", "m", "x1", resets=frozenset({0})),
        Transition("t3", "m", "x2", resets=frozenset({0})),
        Transition("t4", "x1", "G", resets=frozenset({0}), weight=1),
        Transition("t5", "x2", "m", resets=frozenset({0})),
    ]
    return make_game(locs, trans, "i", (0, 0))


def max_out_wait():
    """Max owns the start but its only move fires at x=1; waiting past the
    guard is not a move, so the value is finite."""
    locs = [loc("a", MAX), loc("G", goal=True)]
    trans = [Transition("t1", "a", "G", guards=(G(0, "==", 1),), weight=1)]
    return make_game(locs, trans, "a", (F(7, 8), F(5, 8)))


def max_selfloop():
    """Max controls a self-loop and never has to leave: value +inf."""
    locs = [loc("i", MIN), loc("m", MAX), loc("G", goal=True)]
    trans = [
        Transition("t1", "i", "m", resets=frozenset({0})),
        Transition("t2", "m", "m", resets=frozenset({0})),
        Transition("t3", "m", "G", resets=frozenset({0}), weight=5),
    ]
    return make_game(locs, trans, "i", (0, 0))


def positive_loop():
    """One weight-1 loop edge plus a paid exit, for threshold arithmetic."""
    locs = [loc("a", MIN), loc("G", goal=True)]
    trans = [
        Transition("t1", "a", "a", guards=(G(0, "==", 1),),
                   resets=frozenset({0, 1}), weight=1),
        Transition("t2", "a", "G", guards=(G(0, "==", 1),),
                   resets=frozenset({0}), weight=2),
    ]
    return make_game(locs, trans, "a", (0, 0))


def unit_cycle():
    locs = [loc("a", MIN, weight=1), loc("b", MIN), loc("G", goal=True)]
    trans = [
        Transition("t1", "a", "b", guards=(G(0, "==", 1), G(1, "==", 1)),
                   resets=frozenset({0, 1})),
        Transition("t2", "b", "a", guards=(G(0, "==", 0),)),
        Transition("t3", "b", "G", guards=(G(0, "==", 0),), weight=1),
    ]
    return make_game(locs, trans, "a", (0, 0))


def mixed_cycle():
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


def self_loop_shortcut():
    """Min at a (rate 0) may go on to b (rate 2, leave at y==1) only at once,
    or first pay 1 to loop, which resets x and lets y grow: from y = 1/4
    the loop brings the wait at b near 0, so the value is 1 (an infimum),
    one sweep more than the self-loop's first solve sees."""
    locs = [loc("a", MIN), loc("b", MIN, weight=2), loc("G", goal=True)]
    trans = [
        Transition("t1", "a", "a", guards=(G(1, "<", 1),),
                   resets=frozenset({0}), weight=1),
        Transition("t2", "a", "b", guards=(G(0, "==", 0),)),
        Transition("t3", "b", "G", guards=(G(1, "==", 1),),
                   resets=frozenset({1})),
    ]
    return make_game(locs, trans, "a", (0, F(1, 4)))


def oracle_value(game, n_grid=48, horizon=40):
    return GridOracle(game, n_grid=n_grid, horizon=horizon,
                      clock_cap=clock_bound(game), keep_layers=False).value


def walk(root):
    seen, stack, out = set(), [root], []
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        out.append(n)
        stack.extend(n.children.values())
    return out


def max_edge_uses(root, base_tid):
    """Most times a transition (by original id) is taken on any root-to-leaf
    path of the unfolding."""
    best = 0
    stack = [(root, 0)]
    while stack:
        n, c = stack.pop()
        best = max(best, c)
        for tid, child in n.children.items():
            bump = 1 if tid.split("#")[0] == base_tid else 0
            stack.append((child, c + bump))
    return best


# -- finite-value check ------------------------------------------------------

class TestCheckFiniteValue:
    def test_goal_unreachable_in_graph(self):
        assert check_finite_value(prepare(no_goal_path()).rg) is False

    def test_min_only_path(self):
        assert check_finite_value(prepare(min_wait()).rg) is True

    def test_max_traps_min_in_goalless_scc(self):
        # by hand: attractor = {G, x1}; m needs *all* successors inside,
        # x2 is outside, so m and then i stay out of the attractor
        assert check_finite_value(prepare(max_trap()).rg) is False

    def test_same_attractor_as_the_rescan(self):
        """From every region-location as the initial one, on the trimmed
        region game and, where the game is almost non-Zeno, on the
        prepared one."""
        games = ([(n, g) for n, g, _ in exact_corpus()]
                 + transformation_corpus()
                 + [(f"anz_{s}", test_anz.random_game(s)) for s in range(150)])
        verdicts = set()
        for name, game in games:
            rgs = [trim(build_region_wtg(normalize_01(game)))]
            try:
                rgs.append(prepare(game).rg)
            except NotAlmostNonZeno:
                pass
            for rg in rgs:
                for n in rg.game.locations:
                    initial = Configuration(n, rg.game.initial.valuation)
                    at_n = rg._replace(game=rg.game._replace(initial=initial))
                    expected = rescan_finite_value(at_n)
                    assert check_finite_value(at_n) is expected, (name, n)
                    verdicts.add(expected)
        assert verdicts == {False, True}


# -- semi-unfolding ----------------------------------------------------------

class TestSemiUnfold:
    def test_stop_threshold_is_four_visits_at_w2(self):
        prep = prepare(positive_loop())
        root = semi_unfold(prep.rg, prep.kernel, F(2), F(1))
        assert max_edge_uses(root, "t1") == 4  # 2/1 + 2

    def test_loop_capped_at_five_traversals_at_w3(self):
        prep = prepare(positive_loop())
        root = semi_unfold(prep.rg, prep.kernel, F(3), F(1))
        assert max_edge_uses(root, "t1") == 5  # 3/1 + 2

    def test_stopped_leaves_exactly_at_threshold(self):
        prep = prepare(positive_loop())
        root = semi_unfold(prep.rg, prep.kernel, F(2), F(1))
        kinds = {n.kind for n in walk(root)}
        assert STOPPED in kinds and GOAL in kinds

    def test_acyclic_game_has_no_stopped_leaf(self):
        prep = prepare(min_wait())
        root = semi_unfold(prep.rg, prep.kernel, prep.w_bound, prep.kappa)
        assert all(n.kind != STOPPED for n in walk(root))

    def test_kernel_entry_collapses_into_kernel_node(self):
        prep = prepare(zero_kernel())
        root = semi_unfold(prep.rg, prep.kernel, prep.w_bound, prep.kappa)
        kernels = [n for n in walk(root) if n.kind == KERNEL]
        assert kernels
        out_tids = {t.tid for t in prep.kernel.output_edges}
        for n in kernels:
            assert set(n.children) <= out_tids

    def test_root_value_matches_level_iteration(self):
        # the two code paths (explicit unfolding vs level-merged sweeps)
        # must agree on the root value
        for game in [min_wait(), max_wait(), zero_kernel(), unit_cycle()]:
            prep = prepare(game)
            root = semi_unfold(prep.rg, prep.kernel, prep.w_bound, prep.kappa)
            nv_tree = solve_node(root, prep.rg, prep.kernel)
            vf = value_functions(prep.rg, prep.kernel, prep.w_bound,
                                 prep.kappa)
            nu = prep.rg.game.initial.valuation
            got = vf[prep.rg.game.initial.location].eval(nu)
            assert nv_tree.eval(nu) == got


# -- node solving ------------------------------------------------------------

class TestSolveExamples:
    def test_min_exits_at_zero_delay(self):
        assert solve(urgent_exit()).value == 0

    def test_max_waits_to_guard_end(self):
        assert solve(max_wait()).value == 1

    def test_min_forced_unit_wait(self):
        v = decide(min_wait(), 1)
        assert v.value == 1 and v.decision == "at-most"
        assert decide(min_wait(), F(9, 10)).decision == "exceeds"

    def test_unreachable_goal_exceeds_everything(self):
        for c in [0, 1, 1000]:
            v = decide(no_goal_path(), c)
            assert v.value == INF and v.decision == "exceeds"

    def test_max_cannot_out_wait_a_guard(self):
        v = solve(max_out_wait())
        assert v.value == 1 == oracle_value(max_out_wait())

    def test_max_controlled_loop_is_infinite(self):
        assert solve(max_selfloop()).value == INF
        assert oracle_value(max_selfloop()) == INF

    def test_kernel_game_matches_oracle(self):
        v = solve(zero_kernel())
        assert v.value == 1 == oracle_value(zero_kernel())
        assert v.vi_steps > 0

    def test_unit_cycle_matches_oracle(self):
        assert solve(unit_cycle()).value == oracle_value(unit_cycle())

    def test_self_loop_pays_off(self):
        # the looping branch costs 1 + 2(1 - y') for any y' < 1, the direct
        # one 2 * 3/4; the grid oracle stays above the infimum
        assert solve(self_loop_shortcut()).value == 1
        assert 1 < oracle_value(self_loop_shortcut()) <= F(25, 24)

    def test_positive_loop_value(self):
        # waiting to x=1 is free (weight-0 location), exit costs 2; looping
        # first would add 1 per lap, so Min exits straight away
        assert solve(positive_loop()).value == 2

    @pytest.mark.parametrize("seed,value", [(1238220487, 1), (2975257005, 6)])
    def test_early_reset_goal_copy_lands_in_a_goal_twin(self, seed, value):
        # The early-reset copy of a goal transition reaches the goal with
        # the clocks that hit 1 stored at 0; without a goal twin whose
        # region has them at 0, the corner-point graph raised
        # StructuralError.  The values are the grid oracle's.
        game = game_from_dict(families.random_game(seed, 3, "plain"))
        assert solve(game).value == value


# -- pipeline errors and invariants ------------------------------------------

class TestPipeline:
    def test_three_clocks_rejected(self):
        with pytest.raises(MoreThanTwoClocks):
            solve(three_clock_demo())

    def test_a_reset_of_an_unknown_clock_is_an_input_error(self):
        # It used to reach build_region_wtg and raise KeyError there.
        bad = Transition("t2", "a", "G", resets=frozenset({5}))
        with pytest.raises(InputError, match="t2: resets an unknown clock"):
            make_game([loc("a"), loc("G", goal=True)], [bad], "a", (0, 0))
        game = min_wait()
        with pytest.raises(InputError, match="t2: resets an unknown clock"):
            game._replace(transitions=[*game.transitions, bad])

    @pytest.mark.parametrize("bound", [F(1, 2), F(1), -1, True, 1.0, "1"])
    def test_a_guard_bound_not_a_natural_number_is_an_input_error(self,
                                                                  bound):
        # A Fraction used to raise TypeError deep in the pipeline.
        bad = Transition("t", "a", "G", guards=(G(0, "<=", bound),))
        with pytest.raises(InputError, match="guard bound"):
            make_game([loc("a"), loc("G", goal=True)], [bad], "a", (0, 0))

    @pytest.mark.parametrize("weight", [F(1, 2), F(1), True, 1.5, "1"])
    @pytest.mark.parametrize("where", ["location", "transition"])
    def test_a_weight_not_a_natural_number_is_an_input_error(self, where,
                                                             weight):
        # The ANZ certificate (kappa = 1) and the bound W assume integer
        # weights.
        a = loc("a", weight=weight if where == "location" else 1)
        t = Transition("t", "a", "G", guards=(G(0, "==", 1),),
                       weight=weight if where == "transition" else 0)
        with pytest.raises(InputError, match=f"{where} .*natural number"):
            make_game([a, loc("G", goal=True)], [t], "a", (0, 0))

    def test_mixed_cycle_is_rejected_with_witness(self):
        with pytest.raises(NotAlmostNonZeno) as e:
            solve(mixed_cycle())
        assert e.value.report.witness

    def test_threshold_stability(self):
        for game in [min_wait(), zero_kernel(), unit_cycle(),
                     positive_loop()]:
            assert solve(game).value == deeper_root_value(game)

    def test_stopped_never_reaches_a_finite_root(self):
        # finite-valued games keep their value under a deeper unfolding,
        # so the cut branches were never on an optimal path
        for game in [unit_cycle(), positive_loop()]:
            prep = prepare(game)
            root = semi_unfold(prep.rg, prep.kernel, prep.w_bound, prep.kappa)
            assert any(n.kind == STOPPED for n in walk(root))
            nv = solve_node(root, prep.rg, prep.kernel)
            assert nv.eval(prep.rg.game.initial.valuation) < INF

    def test_value_functions_span_the_unit_interval(self):
        prep = prepare(zero_kernel())
        vf = value_functions(prep.rg, prep.kernel, prep.w_bound, prep.kappa)
        for name, nv in vf.items():
            assert nv.region == prep.rg.reg[name]
            if nv.region.dim == 1:
                assert nv.plf.lo == 0 and nv.plf.hi == 1

    def test_every_value_has_the_form_of_its_region(self):
        """Each value is +inf, or a point at the region's coordinate (0 at
        the origin, x of the initial valuation at a 2-D root), or a function
        over [0, 1] (a 1-D region or a goal)."""
        forms = set()
        for name, game in (_one_step_games("corpus")
                           + _one_step_games("fractional_start")):
            try:
                verdict = solve(game)
            except NotAlmostNonZeno:
                continue
            rg = verdict.prepared.rg
            for n, nv in verdict.values.items():
                f, r = nv.plf, nv.region
                assert r == rg.reg[n]
                if f.is_infinite:
                    continue
                if rg.game.locations[n].is_goal or r.dim == 1:
                    form = "goal" if rg.game.locations[n].is_goal else "1-D"
                    assert (f.lo, f.hi) == (0, 1) and not f.is_point, (name, n)
                elif r.dim == 0:
                    form = "origin"
                    assert f.is_point and f.lo == 0, (name, n)
                else:
                    form = "2-D root"
                    v = rg.game.initial.valuation
                    assert n == rg.game.initial.location, (name, n)
                    assert f.is_point and f.lo == v[0], (name, n)
                    assert nv.eval(v) == verdict.value
                forms.add(form)
        assert forms == {"goal", "1-D", "origin", "2-D root"}

    def test_verdict_str(self):
        v = decide(min_wait(), F(3, 2))
        assert "value = 1" in str(v)
        assert "decision(th=3/2) = at-most" in str(v)


# -- SCC order against the global Jacobi sweep -------------------------------

def _differential_games(group):
    """(name, game) pairs of one group of the differential test."""
    if group == "corpus":
        return ([(n, g) for n, g, _ in exact_corpus()]
                + transformation_corpus())
    if group == "test_unfold":
        return [(f.__name__, f()) for f in (
            min_wait, max_wait, urgent_exit, no_goal_path, max_trap,
            max_out_wait, max_selfloop, positive_loop, unit_cycle,
            mixed_cycle, zero_kernel, self_loop_shortcut)]
    if group == "test_anz":
        return [(f"anz_{s}", test_anz.random_game(s)) for s in range(120)]
    if group == "random":
        return [(f"{kind}_{s}", game_from_dict(families.random_game(s, 3, kind)))
                for kind in ("plain", "inf", "zeno") for s in range(25)]
    return ([(f"chain_{k}_{m}", game_from_dict(families.chain(k, m)))
             for k, m in [(2, 3), (4, 2), (6, 2)]]
            + [(f"ring_{k}_{m}", game_from_dict(families.ring(k, m)))
               for k, m in [(4, 1), (3, 2), (7, 1)]]
            + [(f"kernel_chain_{k}", game_from_dict(families.kernel_chain(k)))
               for k in (1, 2, 3, 4)])


def _values_or_error(fn, prep):
    try:
        return fn(prep.rg, prep.kernel, prep.w_bound, prep.kappa)
    except DomainError as exc:
        return type(exc)


class TestSccOrder:
    @pytest.mark.parametrize("group", ["corpus", "test_unfold", "test_anz",
                                       "random", "families"])
    def test_same_values_as_the_global_jacobi_sweep(self, group):
        compared = 0
        for name, game in _differential_games(group):
            try:
                prep = prepare(game)
            except NotAlmostNonZeno:
                continue
            got = _values_or_error(value_functions, prep)
            want = _values_or_error(jacobi_value_functions, prep)
            assert got == want, name
            compared += 1
        assert compared >= 10

    def test_an_acyclic_location_is_solved_once(self, monkeypatch):
        prep = prepare(game_from_dict(families.chain(4, 2)))
        assert not prep.kernel.components
        calls = Counter()
        solve_plain = unfold._solve_plain

        def counted(rg, loc_name, ts, child_values, shared):
            calls[loc_name] += 1
            return solve_plain(rg, loc_name, ts, child_values, shared)

        monkeypatch.setattr(unfold, "_solve_plain", counted)
        stats = {}
        value_functions(prep.rg, prep.kernel, prep.w_bound, prep.kappa,
                        _stats=stats)
        game = prep.rg.game
        assert calls == Counter(n for n, l in game.locations.items()
                                if not l.is_goal)
        assert stats["sweeps"] == 1

    def test_each_kernel_component_is_iterated_once(self, monkeypatch):
        prep = prepare(game_from_dict(families.kernel_chain(3)))
        assert len(prep.kernel.components) == 3
        calls = Counter()

        def counted(g):
            calls[frozenset(n for n, l in g.locations.items()
                            if not l.is_goal)] += 1
            return kernelvi.iterate(g)

        monkeypatch.setattr(unfold, "iterate", counted)
        value_functions(prep.rg, prep.kernel, prep.w_bound, prep.kappa)
        assert calls == Counter(prep.kernel.components)


# -- one-step delay optimization against the two-case-analysis reference -----

def _outcome(fn, *args):
    try:
        return fn(*args)
    except GameError as exc:
        return type(exc)


def _one_step_games(group):
    """The differential games, and ``test_anz.random_game``s restarted
    inside a 2-D region or on the diagonal, whose flow lines cross guard
    segments and polygons as no integer start does."""
    if group == "test_anz":
        return [(f"anz_{s}", test_anz.random_game(s)) for s in range(150)]
    if group == "fractional_start":
        return [(f"anz_{s}@{v}", test_anz.random_game(s)._replace(
                    initial=Configuration("q0", v)))
                for s in range(150)
                for v in [(F(1, 4), F(1, 2)), (F(1, 2), F(1, 4)),
                          (F(1, 3), F(1, 3))]]
    return _differential_games(group)


class TestOneStepReference:
    @pytest.mark.parametrize("group", ["corpus", "test_anz", "families",
                                       "fractional_start"])
    def test_same_results_as_the_reference(self, group):
        """Every transition of every plain location, costed against the
        final child values, by ``unfold._one_step`` and by
        ``unfold_reference``, with each kind of source compared."""
        games = _one_step_games(group)
        compared = Counter()
        for name, game in games:
            try:
                prep = prepare(game)
            except NotAlmostNonZeno:
                continue
            rg = prep.rg
            values = value_functions(rg, prep.kernel, prep.w_bound,
                                     prep.kappa)
            in_kernel = set().union(*prep.kernel.components)
            for t in rg.game.transitions:
                loc = rg.game.locations[t.src]
                if loc.is_goal or t.src in in_kernel:
                    continue
                r = rg.reg[t.src]
                direction = "inf" if loc.owner == MIN else "sup"
                if r.dim == 1:
                    fn, arg = unfold_reference._value_on_segment, r
                else:
                    fn, arg = unfold_reference._value_at_point, (
                        r.corners()[0] if r.dim == 0
                        else rg.game.initial.valuation)
                child = values[t.tgt]
                assert (_outcome(unfold._one_step, rg, t, child, direction,
                                 {})
                        == _outcome(fn, rg, t, child, arg, direction)), \
                    (name, t.tid)
                compared[("origin", "1-D", "2-D root")[r.dim]] += 1
        # (origin, 1-D, 2-D root) floors, about 70% of the counts met, on
        # top of the floor of 50 moves in all
        floors = {"corpus": (40, 4, 0), "test_anz": (400, 150, 0),
                  "families": (250, 350, 0),
                  "fractional_start": (400, 1200, 250)}[group]
        assert sum(compared.values()) >= 50, compared
        assert all(compared[kind] >= floor for kind, floor in zip(
            ("origin", "1-D", "2-D root"), floors)), compared

    def test_every_triangle_case_is_compared(self):
        """The triangle branch of ``_plan`` is compared above and below the
        diagonal, for both players, with a child that reads x,
        reads y, is a goal, or reads a clock that the move resets.  No
        prepared game has the last child, so each move gets one made up on
        the clock it resets."""
        bumpy = PLF1(((0, 1), (F(1, 2), 0), (1, 2)))
        cases = set()
        for name, game in (_one_step_games("test_anz")
                           + _one_step_games("families")):
            try:
                prep = prepare(game)
            except NotAlmostNonZeno:
                continue
            rg = prep.rg
            values = value_functions(rg, prep.kernel, prep.w_bound,
                                     prep.kappa)
            in_kernel = set().union(*prep.kernel.components)
            for t in rg.game.transitions:
                loc = rg.game.locations[t.src]
                r, gr = rg.reg[t.src], regions.infer_guard_region(rg, t)
                child = values[t.tgt]
                if (loc.is_goal or t.src in in_kernel or r.dim != 1
                        or not r.zeros or gr.dim != 2 or child.is_infinite):
                    continue
                direction = "inf" if loc.owner == MIN else "sup"
                kinds = [("goal" if rg.game.locations[t.tgt].is_goal
                          else "xy"[unfold._param_axis(child.region)], child)]
                for x in t.resets:
                    kinds.append(("reset", unfold.NodeValue(
                        Region((frozenset({1 - x}), frozenset({x}))), bumpy)))
                for kind, nv in kinds:
                    assert (_outcome(unfold._one_step, rg, t, nv, direction,
                                     {})
                            == _outcome(unfold_reference._value_on_segment,
                                        rg, t, nv, r, direction)), \
                        (name, t.tid, kind)
                    cases.add((0 in gr.blocks[1], kind, direction))
        assert cases == set(itertools.product(
            (True, False), ("x", "y", "goal", "reset"), ("inf", "sup")))

    @pytest.mark.parametrize("owner, rate, value", [
        (MIN, 2, F(2, 3)), (MAX, 0, F(2, 3)), (MIN, 0, F(1, 3)),
        (MAX, 2, F(1))])
    def test_a_root_inside_a_triangle(self, owner, rate, value):
        """From (1/3, 2/3), inside the triangle 0 < x < y < 1, the move
        ``c1 < 1`` resets c1 into a Min location of rate 1 that leaves at
        ``c0 == 1``, so firing after a delay d costs rate*d + 2/3 - d, for
        0 <= d < 1/3.  The root's flow line meets the triangle's closure on
        a chord from (0, 1/3), behind the root: reading the chord from
        there would price d = -1/3.  So Min at rate 2 and Max at rate 0 get
        2/3 at d = 0, Min at rate 0 gets 1/3 and Max at rate 2 gets 1, both
        as d nears 1/3.  ``GridOracle`` agrees at N = 12 and 24, exactly
        where d = 0 is optimal and within 1/N otherwise."""
        locs = [loc("a", owner, weight=rate), loc("b", weight=1),
                loc("G", goal=True)]
        trans = [Transition("t", "a", "b", guards=(G(1, "<", 1),),
                            resets=frozenset({1})),
                 Transition("u", "b", "G", guards=(G(0, "==", 1),))]
        game = make_game(locs, trans, "a", (F(1, 3), F(2, 3)))
        verdict = solve(game)
        rg = verdict.prepared.rg
        assert rg.reg[rg.game.initial.location].dim == 2
        assert verdict.value == value
        for n in (12, 24):
            grid = GridOracle(game, n, 20, clock_cap=2,
                              keep_layers=False).value
            assert 0 <= (grid - value) * (1 if owner == MIN else -1) <= (
                0 if value == F(2, 3) else F(1, n)), (n, grid)


# -- the one view and the tabulated geometry behind every one-step cost -----

_UNIT = st.fractions(0, 1, max_denominator=16)
_SMALL = st.fractions(-4, 4, max_denominator=8)


@settings(max_examples=200, deadline=None)
@given(random_plf1(), _UNIT, _UNIT, st.sampled_from(["up", "down", "equal"]),
       _SMALL, _SMALL, st.lists(st.fractions(0, 1, max_denominator=64),
                                max_size=3))
def test_reparam_is_one_affine_view(f, u, v, order, slope, intercept, extra):
    """``reparam`` reads f along u0 -> u1 and adds slope*s + intercept: its
    breakpoints are the ends and those of f strictly inside, in order, and
    its values are f's there and anywhere between."""
    if order == "equal":
        u0 = u1 = u
    else:
        assume(u != v)
        u0, u1 = sorted((u, v), reverse=order == "down")
    g = reparam(f, u0, u1, slope, intercept)
    du = u1 - u0
    inner = sorted(s for s in ((x - u0) / du for x, _ in f.points)
                   if 0 < s < 1) if du else []
    assert [s for s, _ in g.points] == [0, *inner, 1]
    for s in [0, *inner, 1, *extra]:
        assert eval1(g, s) == eval1(f, u0 + s * du) + slope * s + intercept


def test_reparam_refuses_points_outside_the_domain():
    f = PLF1(((0, 1), (F(1, 2), 0), (1, 2)))
    for out in (F(-1, 3), F(4, 3)):
        for u0, u1 in ((out, F(1, 2)), (F(1, 2), out), (out, out)):
            with pytest.raises(DomainError, match=str(out)):
                reparam(f, u0, u1)
    pt = point(3)
    assert reparam(pt, 0, 0, 1, 2) == PLF1(((0, 5), (1, 6)))
    with pytest.raises(DomainError):
        reparam(pt, 0, 1)
    assert reparam(PLF1.infinite(), 0, 1).is_infinite


def test_twin_child_values_share_one_stored_cost():
    """``_one_step`` keys its stored costs by the child's ``PLF1``: a child
    value built another way, from ints or through the integer operations,
    has the same fields and hash, so it finds the cost already computed."""
    checked = 0
    for _, game, _ in exact_corpus():
        prep = prepare(game)
        rg = prep.rg
        values = value_functions(rg, prep.kernel, prep.w_bound, prep.kappa)
        for t in rg.game.transitions:
            child, loc = values[t.tgt], rg.game.locations[t.src]
            if loc.is_goal or child.is_infinite:
                continue
            direction = "inf" if loc.owner == MIN else "sup"
            f = child.plf
            (x0, y0), *_ = f.points
            twins = [PLF1([(x, y) for x, y in f.points]),
                     PLF1([(str(x), str(y)) for x, y in f.points]),
                     point(y0, x0) if f.is_point
                     else reparam(f, F(0), F(1))]
            shared = {}
            cost = unfold._one_step(rg, t, child, direction, shared)
            for twin in twins:
                assert twin is not f and twin == f and hash(twin) == hash(f)
                assert (twin.den, twin.xs, twin.ys) == (f.den, f.xs, f.ys)
                nv = unfold.NodeValue(child.region, twin)
                assert unfold._one_step(rg, t, nv, direction, shared) is cost
            assert len(shared) == 1
            checked += 1
    assert checked >= 10


def _plan_kind(plan) -> str:
    if plan.error:
        return "error"
    if not plan.view:
        return "no move"
    return "point" if plan.at is not None else plan.side or "view"


def test_the_tabulated_geometry_equals_its_uncached_form():
    """``_plan`` answers from a process-wide table: computed once and then
    looked up, every answer equals a fresh computation, for every 2-clock
    guard region, 1-D or 0-D source region, set of reset clocks and clock
    read."""
    unfold._plan.cache_clear()
    regs = all_regions(2)
    resets = [frozenset(c) for c in ((), (0,), (1,), (0, 1))]
    kinds = set()
    for _ in range(2):
        for gr in regs:
            for src in (r for r in regs if r.dim < 2):
                for rs, axis in itertools.product(resets, (0, 1)):
                    plan = unfold._plan(src, gr, rs, axis)
                    assert plan == unfold._plan.__wrapped__(
                        src, gr, rs, axis), (src, gr, rs, axis)
                    kinds.add(_plan_kind(plan))
    assert kinds == {"error", "view", "prefix", "suffix", "point", "no move"}


def test_the_process_wide_tables_do_not_leak_between_games():
    """The region tables and the one-step geometry are filled as games ask
    for them: solving the same games in either order, in one process, or
    each from empty tables, gives the same values, verdicts and value
    functions."""
    games = ([g for _, g, _ in exact_corpus()]
             + [test_anz.random_game(s) for s in range(150)])
    tables = (unfold._plan, regions._table)

    def outcomes(order, fresh=False):
        out = {}
        for i in order:
            for table in tables if fresh else ():
                table.cache_clear()
            try:
                v = solve(games[i])
                out[i] = (v.value, v.sweeps, v.vi_steps, v.values)
            except GameError as exc:
                out[i] = (type(exc), str(exc))
        return out

    alone = outcomes(range(len(games)), fresh=True)
    for table in tables:
        table.cache_clear()
    assert outcomes(range(len(games))) == alone
    assert outcomes(reversed(range(len(games)))) == alone
    assert any(isinstance(v[0], type) for v in alone.values())


def test_no_cache_grows_with_the_initial_valuation():
    """Fifty games that differ only in their initial valuation, all inside
    one 2-D region, leave no ``functools`` cache of ``unfold`` or
    ``regions`` fuller than the first game did: no cache is keyed by the
    input."""
    def sizes():
        return {**{f"{m.__name__}.{name}": f.cache_info().currsize
                   for m in (unfold, regions) for name, f in vars(m).items()
                   if hasattr(f, "cache_info")}, **_table_sizes()}

    locs = [loc("a", weight=1), loc("G", goal=True)]
    trans = [Transition("t", "a", "G", guards=(G(1, "==", 1),),
                        resets=frozenset({1}))]
    first = None
    for k in range(50):
        y = F(1, 2) + F(k, 200)
        assert solve(make_game(locs, trans, "a", (F(1, 3), y))).value == 1 - y
        first = first or sizes()
    assert first and all(sizes()[name] <= n for name, n in first.items()), \
        (first, sizes())


def _table_sizes():
    """The size of every dict table of the two-clock region table."""
    return {f"_Table.{name}": len(table)
            for name, table in vars(regions._table(2)).items()
            if isinstance(table, dict)}


def test_no_table_grows_with_the_constants():
    """``chain(4, m)`` for m = 2..12 and ``ring(5, m)`` for m = 2..8 leave
    every dict table of ``regions._Table`` as full as the first two
    constants did: the tables are keyed by regions and 0/1 clauses, which
    a larger constant does not add to."""
    for family, ms in ((families.chain, range(2, 13)),
                       (families.ring, range(2, 9))):
        k = 4 if family is families.chain else 5
        for m in ms:
            assert solve(game_from_dict(family(k, m))).value < INF, m
            if m == 3:
                first = _table_sizes()
        assert _table_sizes() == first, (family.__name__, first)


def test_one_extremum_per_distinct_costs(monkeypatch):
    """Within one ``value_functions`` call, on the ``ring`` games, each
    direction and set of costs reaches ``pointwise_extremum`` once, and the
    plain locations with a move ask for more than twice as many extrema."""
    asked, computed, calls = [], [], []
    extremum, solve_plain = unfold.pointwise_extremum, unfold._solve_plain
    value_functions = unfold.value_functions

    def counted_extremum(costs, direction):
        computed.append((direction, tuple(costs)))
        return extremum(costs, direction)

    def counted_plain(rg, loc_name, ts, *args):
        asked.extend(ts[:1])
        return solve_plain(rg, loc_name, ts, *args)

    def one_call(*args, **kwargs):
        computed.clear()
        out = value_functions(*args, **kwargs)
        assert len(computed) == len({(direction, frozenset(costs))
                                     for direction, costs in computed})
        calls.append(len(computed))
        return out

    monkeypatch.setattr(unfold, "pointwise_extremum", counted_extremum)
    monkeypatch.setattr(unfold, "_solve_plain", counted_plain)
    monkeypatch.setattr(unfold, "value_functions", one_call)
    for _, game, _ in families.workload("ring", 1):
        solve(game_from_dict(game))
    assert calls and len(asked) > 2 * sum(calls) > 0, (len(asked), calls)


# -- kernels against the Delta reference and its 2-D exit projection ---------

def _exit_games():
    """The corpora, ``test_anz.random_game`` 0-399, ``families.random_game``
    0-59 of each kind, the benchmark's workloads at seeds 1-3 and
    ``kernel_chain`` 1-5."""
    return ([g for _, g, _ in exact_corpus()]
            + [g for _, g in transformation_corpus()]
            + [zero_kernel_free_exit(), double_reset_kernel(), max_dead_end()]
            + [test_anz.random_game(s) for s in range(400)]
            + [game_from_dict(families.random_game(s, 3, kind))
               for kind in ("plain", "inf", "zeno") for s in range(60)]
            + [game_from_dict(g) for w in families.WORKLOADS
               for seed in (1, 2, 3) for _, g, _ in families.workload(w, seed)]
            + [game_from_dict(families.kernel_chain(k)) for k in range(1, 6)])


def _same_cost(got, want) -> bool:
    """Equal functions, both points or both not, or the same outcome."""
    if isinstance(got, PLF1) and isinstance(want, PLF1):
        return equals(got, want) and got.is_point == want.is_point
    return got == want


@functools.lru_cache(maxsize=None)
def _met_kernels():
    """(rg, component, values behind its exits, exits) of every kernel that
    solving ``_exit_games()`` values, once per call of
    ``unfold._kernel_values``."""
    met = []
    kernel_values = unfold._kernel_values

    def spy(rg, comp, child_values, out_edges, shared):
        met.append((rg, comp, child_values, out_edges))
        return kernel_values(rg, comp, child_values, out_edges, shared)

    unfold._kernel_values = spy
    try:
        for game in _exit_games():
            try:
                solve(game)
            except GameError:
                pass
    finally:
        unfold._kernel_values = kernel_values
    return tuple(met)


# Values that read x and y, for exits that in these games only ever have a
# constant behind them
_BUMPY = PLF1(((0, 1), (F(1, 2), 0), (1, 2)))
_MADE_UP = tuple(unfold.NodeValue(
    Region((frozenset({1 - i}), frozenset({i}))), _BUMPY) for i in (0, 1))


def _owned(rg, names, owner):
    """``rg`` with the locations ``names`` owned by ``owner``."""
    locations = dict(rg.game.locations)
    for n in names:
        locations[n] = locations[n]._replace(owner=owner)
    return rg._replace(game=rg.game._replace(locations=locations))


def test_every_kernel_exit_costs_as_the_projection_reference():
    """Every exit of every kernel that a solve values, as
    ``kernel_reference._exit_cost`` costs it along flow lines in Delta and
    as the reference projects the 2-D exit-cost function of the value
    behind it onto the source's Delta.  From an axis, every exit of these
    games costs a constant, so each exit is costed again for either player
    behind a made-up value that reads x and one that reads y."""
    seen, exits = [], {}
    for rg, _comp, child_values, out_edges in _met_kernels():
        for t in out_edges:
            exits[id(rg), t.tid] = rg, t
            child = child_values[t.tid]
            seen.append((rg, t, child, _outcome(_exit_cost, rg, t, child, {})))
    assert len(seen) >= 150
    for rg, t in exits.values():
        for owner in (MIN, MAX):
            rg2 = _owned(rg, [t.src], owner)
            seen += [(rg2, t, child, _outcome(_exit_cost, rg2, t, child, {}))
                     for child in _MADE_UP]

    def reference(rg, t, child):
        return project_output(t, _to_output(child, t),
                              _shape_of(rg.reg[t.src]),
                              rg.game.locations[t.src].owner)

    for rg, t, child, got in seen:
        want = _outcome(reference, rg, t, child)
        assert _same_cost(got, want), (t.tid, got, want)
    assert {_shape_of(rg.reg[t.src]) for rg, t in exits.values()} \
        == {POINT, ON_X, ON_Y}


def test_every_kernel_iterates_as_the_delta_reference():
    """Every kernel that a solve values, iterated with the flow-line
    operator of ``unfold._kernel_values`` and with the Delta operator of
    ``kernel_reference._kernel_values``: the same value function on every
    member and the same number of steps, or the same error type.  Each
    kernel runs 9 times: behind the values the solve gave or with every
    exit behind one of the two made-up values, and with owners as given,
    all Min or all Max."""
    runs = bent = 0
    for rg, comp, child_values, out_edges in _met_kernels():
        behind = [child_values] + [{t.tid: nv for t in out_edges}
                                   for nv in _MADE_UP]
        for child in behind:
            for owner in (None, MIN, MAX):
                rg2 = rg if owner is None else _owned(rg, comp, owner)
                args = (rg2, comp, child, out_edges, {})
                got = _outcome(unfold._kernel_values, *args)
                want = _outcome(kernel_reference._kernel_values, *args)
                assert got == want, (sorted(comp), owner)
                runs += 1
                bent += not isinstance(got, type) and any(
                    len(nv.plf.points) > 2 for nv in got[0].values())
    assert runs >= 600 and bent >= 40


# -- kernel exits whose landing point does not move --------------------------

FIXED_LANDING = {
    "zero_kernel_free_exit": zero_kernel_free_exit,
    "double_reset_kernel": double_reset_kernel,
    **{f"anz_{s}": (lambda s=s: test_anz.random_game(s))
       for s in (2, 51, 126, 218, 277, 336)},
}


@pytest.mark.parametrize("name", FIXED_LANDING)
def test_kernel_exit_with_a_fixed_landing_matches_the_oracle(name):
    """An exit that resets both clocks lands on one point whatever the
    delay: its cost is a constant, not a point-domain function."""
    game = FIXED_LANDING[name]()
    assert solve(game).value == references.oracle_value(game_to_dict(game))
