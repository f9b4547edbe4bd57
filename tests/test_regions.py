"""Region primitives and the game transformation pipeline."""
import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from wtgsolve.core import (
    MAX,
    MIN,
    OPS,
    Configuration,
    DomainError,
    Guard,
    InputError,
    Location,
    StructuralError,
    Transition,
    WeightedTimedGame,
    frac,
)
from wtgsolve.regions import (
    MaxControlledCycle,
    Region,
    RegionGame,
    add_resets,
    adherence,
    all_regions,
    build_region_wtg,
    clock_bound,
    delay_feasible,
    drop_dead_rolls,
    elapsed_region_feasible,
    feasibility_counts,
    infer_guard_region,
    normalize_01,
    region_of,
    relax,
    reset_feasibility_cache,
    restrict,
    trim,
)
from wtgsolve.unfold import prune_dead_rolls, solve

import fm_reference
from acceptance_corpus import min_wait, zero_kernel
from invariants import check_trimmed_observation

X, Y = 0, 1


def R(*blocks, ones=()):
    return Region(tuple(frozenset(b) for b in blocks), frozenset(ones))


# ---------------------------------------------------------------------------
# Region basics
# ---------------------------------------------------------------------------

class TestRegion:
    def test_membership(self):
        r = R({X}, {Y})
        assert r.contains((F(0), F(1, 2)))
        assert not r.contains((F(1, 3), F(1, 2)))
        assert not r.contains((F(0), F(1)))

    def test_region_of_roundtrip(self):
        for v in [(F(0), F(0)), (F(0), F(1, 2)), (F(1, 3), F(1, 3)),
                  (F(2, 3), F(1, 3)), (F(1, 2), F(1))]:
            assert region_of(v).contains(v)

    def test_region_of_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            region_of((F(3, 2), F(0)))

    def test_reset(self):
        assert R((), {X}, {Y}).reset({Y}) == R({Y}, {X})
        r = R({X}, {Y})
        assert r.reset(()) == r
        assert R((), {X}, ones={Y}).reset({Y}) == R({Y}, {X})

    def test_time_successors_interior(self):
        r = R({X}, {Y})
        assert r.time_successors() == [
            r, R((), {X}, {Y}), R((), {X}, ones={Y})]

    def test_time_successors_from_zero(self):
        r = R({X, Y})
        assert r.time_successors() == [
            r, R((), {X, Y}), R((), ones={X, Y})]

    def test_time_successors_renormalize(self):
        r = R((), {X}, {Y})
        assert r.time_successors() == [r, R((), {X}, ones={Y})]

    def test_time_successors_reject_ones(self):
        with pytest.raises(DomainError):
            R({X}, ones={Y}).time_successors()

    def test_all_regions_count(self):
        # [0,1)-regions over two clocks: both zero, one zero, equal
        # interior, and the two strict orders.
        assert len(all_regions(2, include_ones=False)) == 6

    def test_corners(self):
        assert R((), {X}, {Y}).corners() == [
            (F(1), F(1)), (F(0), F(1)), (F(0), F(0))]
        assert R({X}, {Y}).corners() == [(F(0), F(1)), (F(0), F(0))]

    def test_upclock(self):
        assert R({X}, {Y}).upclock == frozenset({Y})
        assert R({X, Y}).upclock == frozenset({X, Y})


class TestAdherence:
    def test_one_dim(self):
        got = set(adherence(R({X}, {Y})))
        assert got == {R({X}, {Y}), R({X, Y}), R({X}, ones={Y})}

    def test_point(self):
        assert set(adherence(R({X, Y}))) == {R({X, Y})}

    def test_contains_self(self):
        for r in all_regions(2, include_ones=False):
            assert r in adherence(r)

    def test_closure_sampling(self):
        # Midpoints between a region representative and each adherence
        # representative stay inside the closure of the region.
        r = R((), {X}, {Y})
        rep = r.representative()
        for s in adherence(r):
            o = s.representative()
            mid = tuple((a + b) / 2 for a, b in zip(rep, o))
            assert region_of(mid).in_closure_of(r)


# ---------------------------------------------------------------------------
# Feasibility helper
# ---------------------------------------------------------------------------

class TestDelayFeasible:
    def test_reach_one(self):
        r = R({X}, {Y})
        assert delay_feasible(r, [Guard(Y, "==", 1)])
        assert not delay_feasible(r, [Guard(Y, "==", 1), Guard(X, "==", 0)])

    def test_order_blocks(self):
        # From y=0<x, clock y can never reach 1 inside the unit box.
        r = R({Y}, {X})
        assert not delay_feasible(r, [Guard(Y, "==", 1)])

    def test_negate(self):
        r = R({X}, {Y})
        # Some admissible elapsed point violates x==0 (any delay > 0)...
        assert delay_feasible(r, [], negate=Guard(X, "==", 0))
        # ... but none violates x >= 0.
        assert not delay_feasible(r, [], negate=Guard(X, ">=", 0))

    def test_constants_other_than_0_and_1_are_refused(self):
        # An atom like x <= 2 has no single truth value on a region.
        r = R({X}, {Y})
        big = Guard(X, "<=", 2)
        with pytest.raises(StructuralError):
            delay_feasible(r, [big])
        with pytest.raises(StructuralError):
            delay_feasible(r, [Guard(Y, "==", 1)], negate=big)
        with pytest.raises(StructuralError):
            elapsed_region_feasible(r, r, [big])


_ATOMS = [Guard(c, op, b) for c in (X, Y) for op in OPS for b in (0, 1)]
_GUARD_SETS = ([()] + [(a,) for a in _ATOMS]
               + list(itertools.combinations(_ATOMS, 2)))


class TestFeasibilityCache:
    """The region lookups answer as the Fourier-Motzkin bodies of
    ``fm_reference`` do on every question over two clocks, a list and a
    tuple of the same guards share one answer, and no answer outlives a
    solve."""

    def setup_method(self):
        reset_feasibility_cache()

    def test_delay_feasible_matches_body(self):
        questions = list(itertools.product(
            all_regions(2), _GUARD_SETS, (False, True), [None] + _ATOMS))
        for r, guards, closure, negate in questions:
            expected = fm_reference.delay_feasible(r, guards, 2, closure,
                                                   negate, True)
            assert delay_feasible(r, list(guards), closure=closure,
                                  negate=negate) == expected
            assert delay_feasible(r, guards, closure, negate) == expected
        # One lookup per question: no two questions share a key, and the
        # tuple call hit the answer of the list call.
        assert feasibility_counts() == (2 * len(questions), len(questions))

    def test_elapsed_region_feasible_matches_body(self):
        questions = list(itertools.product(
            all_regions(2), all_regions(2), _GUARD_SETS, (False, True)))
        for src, target, guards, closure in questions:
            expected = fm_reference.elapsed_region_feasible(
                src, target, guards, closure)
            assert elapsed_region_feasible(src, target, list(guards),
                                           closure=closure) == expected
            assert elapsed_region_feasible(src, target, guards,
                                           closure) == expected
        assert feasibility_counts() == (2 * len(questions), len(questions))

    def test_each_solve_starts_from_an_empty_cache(self):
        alone = solve(min_wait()).prepared
        solve(zero_kernel())
        after = solve(min_wait()).prepared
        assert after.feasibility_distinct == alone.feasibility_distinct > 0
        assert after.feasibility_calls == alone.feasibility_calls
        assert feasibility_counts() == (after.feasibility_calls,
                                        after.feasibility_distinct)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def run_weight(game, moves):
    """Replay a run (list of (delay, transition id)) from the initial
    configuration; returns the final configuration and total weight."""
    conf = game.initial
    total = F(0)
    for delay, tid in moves:
        conf, w = game.step(conf, frac(delay), tid)
        total += w
    return conf, total


def _raw_game():
    return WeightedTimedGame(
        clocks=["x", "y"],
        locations={
            "a": Location("a", MIN, weight=1),
            "b": Location("b", MAX, weight=2),
            "G": Location("G", MIN, is_goal=True),
        },
        transitions=[
            Transition("t1", "a", "b", guards=(Guard(X, "==", 1),), weight=1),
            Transition("t2", "b", "G", guards=(Guard(Y, "<=", 1),)),
        ],
        initial=Configuration("a", (F(0), F(0))),
    )


class TestNormalize:
    def test_location_count(self):
        g = _raw_game()
        assert clock_bound(g) == 2
        ng = normalize_01(g)
        assert len(ng.locations) == len(g.locations) * clock_bound(g) ** 2

    def test_m1_game_unchanged_count(self):
        g = WeightedTimedGame(
            clocks=["x", "y"],
            locations={"a": Location("a", MIN), "G": Location("G", MIN, is_goal=True)},
            transitions=[Transition("t", "a", "G",
                                    guards=(Guard(X, "<", 1),
                                            Guard(Y, "<", 1)))],
            initial=Configuration("a", (F(0), F(0))),
        )
        assert len(normalize_01(g).locations) == len(g.locations)

    def test_one_guard_resets(self):
        ng = normalize_01(_raw_game())
        for t in ng.transitions:
            for g in t.guards:
                if g.op == "==" and g.bound == 1:
                    assert g.clock in t.resets

    def test_rejects_unbounded(self):
        g = WeightedTimedGame(
            clocks=["x"],
            locations={"a": Location("a", MIN), "G": Location("G", MIN, is_goal=True)},
            transitions=[Transition("t", "a", "G", guards=(Guard(0, ">=", 1),))],
            initial=Configuration("a", (F(0),)),
        )
        with pytest.raises(InputError):
            normalize_01(g)

    def test_play_simulation(self):
        # A concrete run of the raw game has a matching run (same weight)
        # in the normalized game, with rollovers inserted at boundaries.
        g = _raw_game()
        conf, w = run_weight(g, [(F(1), "t1"), (F(0), "t2")])
        assert conf.location == "G" and w == F(1) * 1 + 1
        ng = normalize_01(g)
        roll = next(t for t in ng.transitions
                    if t.src == "a#0,0" and t.tgt == "a#1,1" and t.synthetic)
        conf2, w2 = run_weight(ng, [
            (F(1), roll.tid), (F(0), "t1#1,1"), (F(0), "t2#1,1")])
        assert ng.locations[conf2.location].is_goal
        assert w2 == w


def test_normalize_and_prune_share_roll_liveness():
    # b rolls to a, which has a real exit, and d rolls to b: both are live.
    # b also rolls to c, after which nothing follows: that rollover is dead.
    def roll(tid, src, tgt):
        return Transition(tid, src, tgt, (Guard(X, "==", 1), Guard(Y, "<", 1)),
                          frozenset({X}), synthetic=True)

    g = WeightedTimedGame(
        ["x", "y"], {n: Location(n, MIN, is_goal=n == "G") for n in "abcdG"},
        [roll("__roll_d", "d", "b"), roll("__roll_bc", "b", "c"),
         roll("__roll_ba", "b", "a"),
         Transition("t", "a", "G", (Guard(X, "<", 1), Guard(Y, "<", 1)))],
        Configuration("a", (F(0), F(0))))
    kept = [t.tid for t in drop_dead_rolls(g.transitions, g.locations)]
    assert kept == ["__roll_d", "__roll_ba", "t"]
    # With one integer part (M = 1), normalize_01 drops the same rollover...
    assert clock_bound(g) == 1
    assert [t.tid for t in normalize_01(g).transitions] == \
        [f"{tid}#0,0" for tid in kept]
    # ... and prune_dead_rolls restricts a region game to the same moves.
    pruned = prune_dead_rolls(RegionGame(g, {}, {}))
    assert [t.tid for t in pruned.game.transitions] == kept
    assert prune_dead_rolls(pruned) is pruned


# ---------------------------------------------------------------------------
# Region game construction and trimming
# ---------------------------------------------------------------------------

def _small_01_game():
    return WeightedTimedGame(
        clocks=["x", "y"],
        locations={
            "a": Location("a", MIN, weight=1),
            "G": Location("G", MIN, is_goal=True),
        },
        transitions=[
            Transition("t", "a", "G", guards=(Guard(Y, "==", 1),),
                       resets=frozenset({Y})),
        ],
        initial=Configuration("a", (F(0), F(0))),
    )


class TestRegionGame:
    def test_location_blowup(self):
        rg = build_region_wtg(_small_01_game())
        assert len(rg.game.locations) == 2 * 6

    def test_self_loop_full_reset(self):
        g = WeightedTimedGame(
            clocks=["x", "y"],
            locations={"a": Location("a", MIN),
                       "G": Location("G", MIN, is_goal=True)},
            transitions=[
                Transition("l", "a", "a", resets=frozenset({X, Y})),
                Transition("t", "a", "G", guards=(Guard(X, "==", 1),),
                           resets=frozenset({X})),
            ],
            initial=Configuration("a", (F(0), F(0))),
        )
        rg = build_region_wtg(g)
        both_zero = rg.game.initial.location
        loops = [t for t in rg.game.transitions
                 if t.src == both_zero and t.tgt == both_zero and "l@" in t.tid]
        assert loops, "full reset keeps the both-zero region"

    def test_trim_drops_unsatisfiable(self):
        rg = trim(build_region_wtg(_small_01_game()))
        # y can only reach 1 from regions where no clock exceeds it.
        assert len(rg.game.transitions) == 2
        for t in rg.game.transitions:
            assert rg.reg[t.src] in (R({X}, {Y}), R((), {X}, {Y}))

    def test_trim_idempotent(self):
        rg = trim(build_region_wtg(_small_01_game()))
        again = trim(rg)
        assert {t.tid for t in again.game.transitions} == \
            {t.tid for t in rg.game.transitions}
        assert [t.guards for t in again.game.transitions] == \
            [t.guards for t in rg.game.transitions]

    def test_trimmed_observation(self):
        check_trimmed_observation(trim(build_region_wtg(_small_01_game())))

    def test_guard_region_metadata(self):
        rg = trim(build_region_wtg(_small_01_game()))
        for t in rg.game.transitions:
            assert rg.guard_region[t.tid] == infer_guard_region(rg, t)

    def test_restrict_keeps_the_data_of_what_it_keeps(self):
        rg = trim(build_region_wtg(_small_01_game()))
        t = rg.game.transitions[0]
        sub = restrict(rg, rg.game.locations, [t.tid])
        assert sub.game.transitions == [t]
        assert sub.guard_region == {t.tid: rg.guard_region[t.tid]}
        assert sub.reg == rg.reg and sub.trimmed and not sub.relaxed
        # A transition goes with either end, a region with its location.
        sub = restrict(rg, set(rg.game.locations) - {t.tgt},
                       [u.tid for u in rg.game.transitions])
        assert sub.game.transitions == [u for u in rg.game.transitions
                                        if t.tgt not in (u.src, u.tgt)]
        assert t.tgt not in sub.reg and t.tgt not in sub.game.locations


class TestRelax:
    def test_strict_guards_dropped(self):
        xg = relax(trim(build_region_wtg(_small_01_game())))
        for t in xg.game.transitions:
            assert all(g.op in ("==",) for g in t.guards)
            assert all(g.bound in (0, 1) for g in t.guards)

    def test_equality_guards_survive(self):
        xg = relax(trim(build_region_wtg(_small_01_game())))
        assert any(Guard(Y, "==", 1) in t.guards for t in xg.game.transitions)


# ---------------------------------------------------------------------------
# All-reset transformation
# ---------------------------------------------------------------------------

def _kernel_game():
    return WeightedTimedGame(
        clocks=["x", "y"],
        locations={
            "k1": Location("k1", MIN, weight=0),
            "k2": Location("k2", MAX, weight=0),
            "G": Location("G", MIN, is_goal=True),
        },
        transitions=[
            Transition("a", "k1", "k2"),
            Transition("b", "k2", "k1", resets=frozenset({X})),
            Transition("e", "k1", "G", guards=(Guard(Y, "==", 1),),
                       resets=frozenset({Y})),
        ],
        initial=Configuration("k1", (F(0), F(0))),
    )


def _relaxed(g):
    return relax(trim(build_region_wtg(g)))


class TestAddResets:
    def test_postconditions(self):
        ar = add_resets(_relaxed(_kernel_game()))
        goals = {n for n, l in ar.game.locations.items() if l.is_goal}
        for t in ar.game.transitions:
            assert t.resets or t.tgt in goals
            for g in t.guards:
                if g.op == "==" and g.bound in (0, 1):
                    assert g.clock in t.resets
        for n, l in ar.game.locations.items():
            if not l.is_goal:
                assert ar.reg[n].dim <= 1

    def test_cross_player_gains_one_guard(self):
        ar = add_resets(_relaxed(_kernel_game()))
        # The reset-free Min->Max move from the x=0<y region must now fire
        # at y==1 and jump to the early-reset twin of its target.
        hits = [t for t in ar.game.transitions
                if t.tid.startswith("a@") and t.tgt.endswith("~dn")
                and Guard(Y, "==", 1) in t.guards]
        assert hits and all(Y in t.resets for t in hits)

    def test_same_player_composition(self):
        g = WeightedTimedGame(
            clocks=["x", "y"],
            locations={
                "m1": Location("m1", MIN),
                "m2": Location("m2", MIN),
                "G": Location("G", MIN, is_goal=True),
            },
            transitions=[
                Transition("a", "m1", "m2"),
                Transition("b", "m2", "G", guards=(Guard(Y, "==", 1),),
                           resets=frozenset({X, Y})),
            ],
            initial=Configuration("m1", (F(0), F(0))),
        )
        ar = add_resets(_relaxed(g))
        # Every surviving m1 -> m2 move resets something (urgent ==0 case);
        # the genuinely reset-free one was replaced by a composed exit.
        for t in ar.game.transitions:
            if t.tid.startswith("a@") and ">" not in t.tid:
                assert t.resets
        composed = [t for t in ar.game.transitions if ">" in t.tid]
        assert composed
        goals = {n for n, l in ar.game.locations.items() if l.is_goal}
        assert all(t.tgt in goals for t in composed)

    def test_max_cycle_detected(self):
        g = WeightedTimedGame(
            clocks=["x", "y"],
            locations={
                "p": Location("p", MAX),
                "q": Location("q", MAX),
                "G": Location("G", MIN, is_goal=True),
            },
            transitions=[
                Transition("a", "p", "q", resets=frozenset({X})),
                Transition("b", "q", "p", resets=frozenset({Y})),
                Transition("e", "p", "G", guards=(Guard(X, "==", 1),),
                           resets=frozenset({X})),
            ],
            initial=Configuration("p", (F(0), F(0))),
        )
        with pytest.raises(MaxControlledCycle):
            add_resets(_relaxed(g))


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@st.composite
def valuations(draw):
    def coord():
        num = draw(st.integers(min_value=0, max_value=8))
        return F(num, 8)
    return (coord(), coord())


@given(valuations())
def test_region_membership_partition(v):
    # Every valuation in the unit square lies in exactly one region.
    hits = [r for r in all_regions(2) if r.contains(v)]
    assert len(hits) == 1
    assert hits[0] == region_of(v)


@given(valuations(), st.integers(min_value=0, max_value=8))
def test_time_successor_coverage(v, dnum):
    # Any delay staying inside the unit square lands in a time successor.
    r = region_of(v)
    if not r.fractional:
        return
    d = F(dnum, 8)
    moved = tuple(c + d for c in v)
    if any(c > 1 for c in moved):
        return
    assert region_of(moved) in r.time_successors()


@given(valuations(), st.sets(st.sampled_from([X, Y])))
def test_reset_region_commutes(v, xs):
    r = region_of(v)
    reset_v = tuple(F(0) if i in xs else c for i, c in enumerate(v))
    assert region_of(reset_v) == r.reset(xs)
