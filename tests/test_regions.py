"""Region primitives and the game transformation pipeline."""
import itertools
import json
import operator
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wtgsolve.core import (
    MAX,
    MIN,
    OPS,
    Configuration,
    DomainError,
    GameError,
    Guard,
    InputError,
    Location,
    StructuralError,
    Transition,
    WeightedTimedGame,
    frac,
)
from wtgsolve import regions
from wtgsolve.cli import main
from wtgsolve.gameio import game_from_dict, game_to_dict, save_game
from wtgsolve.regions import (
    Region,
    RegionGame,
    add_resets,
    all_regions,
    build_region_wtg,
    clock_bound,
    delay_feasible,
    elapsed_region_feasible,
    infer_guard_region,
    normalize_01,
    prune_unreachable,
    region_of,
    relax,
    restrict,
    trim,
)
from wtgsolve.unfold import prepare, prune_dead_rolls, prune_max_traps, solve

import fm_reference
import test_anz
import test_golden
from acceptance_corpus import (exact_corpus, max_dead_end,
                               normalization_fixtures,
                               transformation_corpus)
from corpus import complete_digraph, random_digraph, three_clock_demo
from invariants import check_trimmed_observation
import region_reference
from region_reference import (adherence, contains, full_region_wtg,
                              representative)

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "bench"))
from references import oracle_value, parse_value  # noqa: E402  (read-only)

X, Y = 0, 1
INF = float("inf")


def R(*blocks, ones=()):
    return Region(tuple(frozenset(b) for b in blocks), frozenset(ones))


# ---------------------------------------------------------------------------
# Region basics
# ---------------------------------------------------------------------------

class TestRegion:
    def test_membership(self):
        r = R({X}, {Y})
        assert contains(r, (F(0), F(1, 2)))
        assert not contains(r, (F(1, 3), F(1, 2)))
        assert not contains(r, (F(0), F(1)))

    def test_region_of_roundtrip(self):
        for v in [(F(0), F(0)), (F(0), F(1, 2)), (F(1, 3), F(1, 3)),
                  (F(2, 3), F(1, 3)), (F(1, 2), F(1))]:
            assert contains(region_of(v), v)

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
        assert r.time_successors() == (
            r, R((), {X}, {Y}), R((), {X}, ones={Y}))

    def test_time_successors_from_zero(self):
        r = R({X, Y})
        assert r.time_successors() == (
            r, R((), {X, Y}), R((), ones={X, Y}))

    def test_time_successors_renormalize(self):
        r = R((), {X}, {Y})
        assert r.time_successors() == (r, R((), {X}, ones={Y}))

    def test_time_successors_reject_ones(self):
        with pytest.raises(DomainError):
            R({X}, ones={Y}).time_successors()

    def test_all_regions_count(self):
        # [0,1)-regions over two clocks: both zero, one zero, equal
        # interior, and the two strict orders.
        assert sum(r.fractional for r in all_regions(2)) == 6

    def test_corners(self):
        assert R((), {X}, {Y}).corners() == ((1, 1), (0, 1), (0, 0))
        assert R({X}, {Y}).corners() == ((0, 1), (0, 0))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_corners_are_ints_in_the_closure(self, n):
        for r in all_regions(n):
            corners = r.corners()
            assert len(corners) == r.dim + 1
            assert all(type(v) is int for c in corners for v in c)
            assert all(contains(r, c, closed=True) for c in corners)

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
        for r in [r for r in all_regions(2) if r.fractional]:
            assert r in adherence(r)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_closure_from_corners_is_containment(self, n):
        # The table reads the closure off the corners: s lies in the
        # closure of r when its corners are corners of r.  The reference
        # asks whether a valuation of s lies in the closed r: the same
        # regions, in the same order.
        regions_n = all_regions(n)
        assert len(regions_n) == {1: 3, 2: 11, 3: 51, 4: 299}[n]
        reps = {s: representative(s) for s in regions_n}
        for r in regions_n:
            assert adherence(r) == tuple(
                s for s in regions_n if contains(r, reps[s], closed=True))

    def test_closure_sampling(self):
        # Midpoints between a region representative and each adherence
        # representative stay inside the closure of the region.
        r = R((), {X}, {Y})
        rep = representative(r)
        for s in adherence(r):
            o = representative(s)
            mid = tuple((a + b) / 2 for a, b in zip(rep, o))
            assert region_of(mid) in adherence(r)


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

    def test_constants_other_than_0_and_1_are_refused(self):
        # An atom like x <= 2 has no single truth value on a region.
        r = R({X}, {Y})
        big = Guard(X, "<=", 2)
        with pytest.raises(StructuralError):
            delay_feasible(r, [big])
        with pytest.raises(StructuralError):
            elapsed_region_feasible(r, r, [big])


_ATOMS = [Guard(c, op, b) for c in (X, Y) for op in OPS for b in (0, 1)]
_GUARD_SETS = ([()] + [(a,) for a in _ATOMS]
               + list(itertools.combinations(_ATOMS, 2)))


class TestRegionTable:
    """A region set of the table is an int whose bit i stands for region
    ``all_regions(n)[i]``.  Decoded, each equals its direct definition, for
    one, two and three clocks."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sat_is_the_atom_read_on_each_region(self, n):
        # The constant is 0 or 1, so the atom reads the same at every point
        # of a region: at 0, at 1 or at an interior value.
        table = regions._table(n)
        atoms = [Guard(x, op, c) for x in range(n) for op in OPS
                 for c in (0, 1)]
        assert set(table.sat) == set(atoms)
        for g in atoms:
            assert table.decode(table.sat[g]) == tuple(
                r for r in all_regions(n)
                if g.holds(representative(r)[g.clock]))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_elapsed_is_the_time_successors(self, n):
        table = regions._table(n)
        assert set(table.elapsed) == set(all_regions(n))
        for r in all_regions(n):
            elapsed = set(table.decode(table.elapsed[r]))
            assert elapsed == set(r.time_successors() if r.fractional
                                  else (r,))
            # From the representative, delays in steps of half a block gap
            # meet every region that time passes through inside [0,1]^n.
            rep, k = representative(r), 2 * (r.dim + 1)
            assert elapsed == {
                region_of(tuple(v + F(j, k) for v in rep))
                for j in range(k + 1) if max(rep) + F(j, k) <= 1}

    def test_masks_round_trip(self):
        table = regions._table(2)
        assert len(table.regions) == 11
        for rs in itertools.combinations(table.regions, 3):
            assert table.decode(table.mask(rs)) == rs

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equal_regions_hash_alike_and_find_each_other(self, n):
        """A region keeps the hash it was built with; one built apart from
        the table's, from fresh blocks or from a valuation, equals it,
        hashes alike and finds the table's entries."""
        table = regions._table(n)
        for r in table.regions:
            for twin in (Region(tuple(frozenset(set(b)) for b in r.blocks),
                                frozenset(set(r.ones))),
                         region_of(representative(r))):
                assert twin == r and twin is not r and hash(twin) == hash(r)
                assert table.index[twin] == table.index[r]
                assert table.elapsed[twin] == table.elapsed[r]
                assert table.reset[twin, frozenset()] is r
                assert twin in set(table.regions)


class TestRegionLookups:
    """The region lookups answer as the Fourier-Motzkin bodies of
    ``fm_reference`` do on every question over two clocks, given the guards
    as a list or as a tuple."""

    def test_delay_feasible_matches_body(self):
        questions = list(itertools.product(all_regions(2), _GUARD_SETS))
        assert len(questions) == 2321
        for r, guards in questions:
            expected = fm_reference.delay_feasible(r, guards, 2, False,
                                                   None, True)
            assert delay_feasible(r, list(guards)) == expected
            assert delay_feasible(r, guards) == expected

    def test_elapsed_region_feasible_matches_body(self):
        questions = list(itertools.product(
            all_regions(2), all_regions(2), _GUARD_SETS))
        assert len(questions) == 25531
        for src, target, guards in questions:
            expected = fm_reference.elapsed_region_feasible(
                src, target, guards, False)
            assert elapsed_region_feasible(src, target, list(guards)) \
                == expected
            assert elapsed_region_feasible(src, target, guards) == expected


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
    """The materialising reference makes one copy of each location per
    integer part; ``normalize_01`` keeps tables the walk makes copies
    from, on demand, equal to the reference's (``TestForwardBuild``)."""

    def test_location_count(self):
        g = _raw_game()
        assert clock_bound(g) == 2
        ng = region_reference.normalize_01(g)
        assert len(ng.locations) == len(g.locations) * clock_bound(g) ** 2
        assert normalize_01(g).m == 2

    def test_m1_game_unchanged_count(self):
        g = WeightedTimedGame(
            clocks=["x", "y"],
            locations={"a": Location("a", MIN), "G": Location("G", MIN, is_goal=True)},
            transitions=[Transition("t", "a", "G",
                                    guards=(Guard(X, "<", 1),
                                            Guard(Y, "<", 1)))],
            initial=Configuration("a", (F(0), F(0))),
        )
        assert len(region_reference.normalize_01(g).locations) == \
            len(g.locations)
        assert normalize_01(g).m == 1

    def test_one_guard_resets(self):
        rg = build_region_wtg(normalize_01(_raw_game()))
        assert rg.game.transitions
        for t in rg.game.transitions:
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
        ng = region_reference.normalize_01(g)
        roll = next(t for t in ng.transitions
                    if t.src == "a#0,0" and t.tgt == "a#1,1"
                    and regions.is_rollover(t.tid))
        conf2, w2 = run_weight(ng, [
            (F(1), roll.tid), (F(0), "t1#1,1"), (F(0), "t2#1,1")])
        assert ng.locations[conf2.location].is_goal
        assert w2 == w


def test_normalize_and_prune_share_roll_liveness():
    # b rolls to a, which has a real exit, and d rolls to b: both are live.
    # b also rolls to c, after which nothing follows: that rollover is dead.
    def roll(tid, src, tgt):
        return Transition(tid, src, tgt, (Guard(X, "==", 1), Guard(Y, "<", 1)),
                          frozenset({X}))

    g = WeightedTimedGame(
        ["x", "y"], {n: Location(n, MIN, is_goal=n == "G") for n in "abcdG"},
        [roll("__roll_d", "d", "b"), roll("__roll_bc", "b", "c"),
         roll("__roll_ba", "b", "a"),
         Transition("t", "a", "G", (Guard(X, "<", 1), Guard(Y, "<", 1)))],
        Configuration("a", (F(0), F(0))))
    pruned = prune_dead_rolls(RegionGame(g, {}))
    assert [t.tid for t in pruned.game.transitions] == \
        ["__roll_d", "__roll_ba", "t"]
    assert prune_dead_rolls(pruned) is pruned
    # Only the region game has rollovers: an input id named like one is
    # refused, by normalize_01 and by its reference alike.
    message = "transition __roll_d: ids starting with __roll_ are kept for rollovers"
    for normalize in (normalize_01, region_reference.normalize_01):
        with pytest.raises(InputError) as info:
            normalize(g)
        assert str(info.value) == message
    # Over integer copies, the rollovers that the reference's backward
    # search keeps in its materialised game are those into a copy at or
    # below, clock by clock, the tops of a transition leaving the location.
    dropped = 0
    for name, game in ([(name, g) for name, g, _ in exact_corpus()]
                       + [(f"random-{seed}", test_anz.random_game(seed))
                          for seed in range(400)]
                       + [(f"padded-{name}", _padded(g))
                          for name, g in test_golden.corpus()]):
        ng, ref = normalize_01(game), region_reference.normalize_01(game)
        n = len(game.clocks)
        rolls = {f"__roll_{src}#{','.join(map(str, nbar))}_"
                 f"{'_'.join(map(str, s))}": (src, tuple(
                     v + (x in s) for x, v in enumerate(nbar)))
                 for src, loc in game.locations.items() if not loc.is_goal
                 for nbar in itertools.product(range(ng.m), repeat=n)
                 for s in regions._nonempty_subsets(range(n))
                 if all(nbar[x] < ng.m - 1 for x in s)}
        kept = {t.tid for t in ref.transitions if regions.is_rollover(t.tid)}
        assert kept == {tid for tid, (src, tgt) in rolls.items()
                        if _below_a_top(ng, src, tgt)}, name
        dropped += len(rolls) - len(kept)
    assert dropped


def _below_a_top(ng, name, nbar):
    """Whether copy ``nbar`` of location ``name`` lies at or below, clock by
    clock, the tops of some transition leaving it."""
    return any(t.src == name
               and all(map(operator.le, nbar, regions.tops(ng, t)))
               for t in ng.game.transitions)


@st.composite
def _games_with_constants_to_3(draw):
    """A game over 2 or 3 clocks with 1-3 locations and a goal, and guard
    constants 0-3; a guarded clock without an upper bound gets one, which
    ``normalize_01`` requires."""
    n = draw(st.sampled_from([2, 3]))
    names = [f"q{i}" for i in range(draw(st.integers(1, 3)))] + ["G"]
    transitions = []
    for i in range(draw(st.integers(0, 5))):
        guards = [Guard(*g) for g in draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.sampled_from(OPS), st.integers(0, 3)),
            max_size=4))]
        guards += [Guard(x, "<=", 3) for x in sorted({g.clock for g in guards})
                   if all(g.op in (">", ">=") for g in guards if g.clock == x)]
        transitions.append(Transition(
            f"t{i}", draw(st.sampled_from(names)), draw(st.sampled_from(names)),
            tuple(guards)))
    return WeightedTimedGame(
        [f"c{x}" for x in range(n)],
        {q: Location(q, MIN, is_goal=q == "G") for q in names}, transitions,
        Configuration("q0", (F(0),) * n))


@settings(max_examples=200, deadline=None)
@given(_games_with_constants_to_3())
def test_tops_keep_the_copies_the_backward_search_finds(game):
    """A copy of a non-goal location is live, by the backward search over
    integer copies, exactly when it lies at or below a top."""
    ng = normalize_01(game)
    live = region_reference.live_copies(game, ng.m)
    for name, loc in game.locations.items():
        if not loc.is_goal:
            for nbar in itertools.product(range(ng.m), repeat=len(game.clocks)):
                assert ((name, nbar) in live) == _below_a_top(ng, name, nbar)


def test_an_id_named_like_a_rollover_is_refused(tmp_path, capsys):
    """Renaming a move must not change the value: a Max location of rate 1
    whose second move leads to a dead end is worth +inf, and named like a
    rollover that move is refused, not dropped as a dead rollover."""
    def game(tid):
        return WeightedTimedGame(
            ["x", "y"], {"b": Location("b", MAX, weight=1),
                         "c": Location("c", MIN),
                         "G": Location("G", MIN, is_goal=True)},
            [Transition("bG", "b", "G", (Guard(X, "<=", 1),), frozenset({X})),
             Transition(tid, "b", "c", (Guard(X, "<=", 1),), frozenset({X}))],
            Configuration("b", (F(0), F(0))))

    assert solve(game("bc")).value == INF
    message = ("transition __roll_bc: ids starting with __roll_ are kept for "
               "rollovers")
    with pytest.raises(InputError) as info:
        solve(game("__roll_bc"))
    assert str(info.value) == message
    path = tmp_path / "game.json"
    save_game(game("__roll_bc"), str(path))
    assert main(["solve", str(path)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# Region game construction and trimming
# ---------------------------------------------------------------------------

# The tests below on hand-written [0,1)-games build their region games with
# the reference's forward build, which takes a [0,1)-game as it is;
# ``build_region_wtg`` takes a normalized game, and ``TestForwardBuild``
# checks it against the reference.
build_01 = region_reference.build_region_wtg


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
        # The full product has 2 * 6 region-locations; from (0, 0) no move
        # fires (y == 1 needs x == 1 too, which the reset of y leaves at 1).
        assert len(full_region_wtg(_small_01_game()).game.locations) == 2 * 6
        rg = build_01(_small_01_game())
        assert list(rg.game.locations) == [rg.game.initial.location]

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
        rg = build_01(g)
        both_zero = rg.game.initial.location
        loops = [t for t in rg.game.transitions
                 if t.src == both_zero and t.tgt == both_zero and "l@" in t.tid]
        assert loops, "full reset keeps the both-zero region"

    def test_trim_drops_unsatisfiable(self):
        rg = trim(full_region_wtg(_small_01_game()))
        # y can only reach 1 from regions where no clock exceeds it.
        assert len(rg.game.transitions) == 2
        for t in rg.game.transitions:
            assert rg.reg[t.src] in (R({X}, {Y}), R((), {X}, {Y}))

    def test_trim_idempotent(self):
        """Trimming a trimmed game again, with its flag cleared, keeps
        every move as it is."""
        rg = trim(full_region_wtg(_small_01_game()))
        again = trim(rg._replace(trimmed=False))
        assert len(rg.game.transitions) == 2
        assert again.game.transitions == rg.game.transitions

    def test_trimmed_observation(self):
        checked = 0
        for rg in [trim(full_region_wtg(_small_01_game()))] + [
                rg for _, rg in _built_games()]:
            check_trimmed_observation(rg)
            checked += len(rg.game.transitions)
        assert checked > 5_000, checked

    def test_guard_region_metadata(self):
        """The region a move fires in, read from the region table, is the
        reference's, asking the feasibility predicates region by region,
        on every move of every built and every prepared game of the walk
        corpus."""
        def games():
            for name, game in _walk_games():
                try:
                    yield name, build_region_wtg(normalize_01(game))
                    yield name, prepare(game).rg
                except GameError:
                    continue

        moves = 0
        for name, rg in games():
            for t in rg.game.transitions:
                assert infer_guard_region(rg, t) == \
                    region_reference.infer_guard_region(rg, t), (name, t.tid)
            moves += len(rg.game.transitions)
        assert moves > 12_000, moves

    def test_restrict_keeps_the_data_of_what_it_keeps(self):
        rg = trim(full_region_wtg(_small_01_game()))
        t = rg.game.transitions[0]
        sub = restrict(rg, rg.game.locations, [t.tid])
        assert sub.game.transitions == [t]
        assert sub.reg == rg.reg and sub.trimmed and not sub.relaxed
        # A transition goes with either end, a region with its location.
        sub = restrict(rg, set(rg.game.locations) - {t.tgt},
                       [u.tid for u in rg.game.transitions])
        assert sub.game.transitions == [u for u in rg.game.transitions
                                        if t.tgt not in (u.src, u.tgt)]
        assert t.tgt not in sub.reg and t.tgt not in sub.game.locations


def _forward_build_games():
    games = [(name, g) for name, g, _ in exact_corpus()]
    games += transformation_corpus()
    games += [(f"random-{seed}", test_anz.random_game(seed))
              for seed in range(150)]
    games += [(f"chain-{k}-{m}", game_from_dict(test_anz.families.chain(k, m)))
              for k in (1, 2, 3) for m in (1, 2, 3, 4)]
    return games


def _reachable_part(rg):
    """The pipeline's cut of a region game: trim it, then drop the dead
    rollovers and the locations unreachable from the initial one."""
    rg = prune_dead_rolls(trim(rg))
    return prune_unreachable(rg, [rg.game.initial.location])


def _walk_games():
    """The games the walk is checked on, two of them rejected."""
    families = test_anz.families
    unbounded = WeightedTimedGame(
        ["x", "y"], {"a": Location("a", MIN), "G": Location("G", MIN, True)},
        [Transition("t", "a", "G", (Guard(X, "<", 1), Guard(Y, ">=", 1)))],
        Configuration("a", (F(0), F(0))))
    far = WeightedTimedGame(
        ["x", "y"], dict(unbounded.locations),
        [Transition("t", "a", "G", (Guard(X, "<=", 1),))],
        Configuration("a", (F(0), F(5, 2))))
    # Ids named like rollovers are refused: only the walk makes rollovers.
    named_rolls = WeightedTimedGame(
        ["x", "y"], {n: Location(n, MIN, is_goal=n == "G") for n in "abcdG"},
        [Transition(tid, src, tgt, resets=frozenset({X}))
         for tid, src, tgt in [("__roll_d", "d", "b"), ("__roll_bc", "b", "c"),
                               ("__roll_ba", "b", "a")]]
        + [Transition("t", "a", "G", (Guard(X, "<", 1), Guard(Y, "<", 1)))],
        Configuration("d", (F(0), F(0))))
    return ([(name, g) for name, g, _ in exact_corpus()]
            + transformation_corpus() + normalization_fixtures()
            + [(f"random-{seed}", test_anz.random_game(seed))
               for seed in range(400)]
            + [(f"{kind}-{s}", game_from_dict(families.random_game(s, 3, kind)))
               for kind in ("plain", "inf", "zeno") for s in range(40)]
            + [(f"kernel_chain-{k}", game_from_dict(families.kernel_chain(k)))
               for k in range(1, 6)]
            + [("three_clock_demo", three_clock_demo()),
               ("named_rolls", named_rolls), ("unbounded", unbounded),
               ("far", far)])


def _built_games():
    """The walk's region game of every game of the walk corpus that it
    builds."""
    for name, game in _walk_games():
        try:
            yield name, build_region_wtg(normalize_01(game))
        except GameError:
            continue


def _fields(rg):
    """Every field of a region game, in order."""
    return (rg.game.clocks, list(rg.game.locations.items()),
            rg.game.transitions, rg.game.initial, list(rg.reg.items()),
            rg.trimmed, rg.relaxed)


def _built(game, reference=False):
    """Every field of the region game built from ``game``, in order, or the
    class and message of the error that stops the build.  The walk emits
    its guards relaxed and trimmed, so the reference's build is relaxed and
    trimmed to compare."""
    try:
        rg = (trim(relax(region_reference.build_region_wtg(
            region_reference.normalize_01(game)))) if reference
            else build_region_wtg(normalize_01(game)))
    except GameError as exc:
        return type(exc), str(exc)
    return _fields(rg)


def _padded(game, count=200):
    """``game`` with ``count`` more locations that nothing else enters,
    each with a move whose guard constants are at most the game's largest,
    so that the clock bound M stays the same.  A larger M may change the
    value itself, not only the walk: clocks are assumed bounded by M, the
    known defect that an absorbing integer copy is to mend (ROADMAP.md)."""
    cmax, n = game.max_constant(), len(game.clocks)
    guards = ((Guard(X, "<=", cmax), Guard(Y, "==", cmax // 2)) if cmax > 1
              else tuple(Guard(x, "<", cmax) for x in range(n)))
    locations, transitions = dict(game.locations), list(game.transitions)
    first = next(iter(game.locations))
    for i in range(count):
        name = f"unreached{i}"
        locations[name] = Location(name, (MIN, MAX)[i % 2], weight=i % 3)
        transitions.append(Transition(
            name, name, (first, name, "unreached0")[i % 3], guards,
            frozenset(range(i % (n + 1))), i % 2))
    return WeightedTimedGame(list(game.clocks), locations, transitions,
                             game.initial)


class TestForwardBuild:
    def test_the_walk_builds_what_the_reference_builds(self):
        """The walk over integer copies gives the reference's region game
        field for field: names, order, guards with their clause order,
        resets, weights, regions, guard regions and the initial
        configuration; or the same error class and message."""
        games = dict(_walk_games())
        rolls = errors = 0
        for name, game in games.items():
            new = _built(game)
            assert new == _built(game, reference=True), name
            errors += len(new) == 2
            rolls += len(new) > 2 and any(
                regions.is_rollover(t.tid) for t in new[2])
        assert errors == 3 and rolls > 50, (errors, rolls)
        assert _built(games["named_rolls"]) == (
            InputError, "transition __roll_d: ids starting with __roll_ are "
            "kept for rollovers")

    def test_unreachable_locations_cost_nothing_and_change_nothing(
            self, tmp_path, monkeypatch):
        copied = []
        copy_move = regions._copy_move
        monkeypatch.setattr(regions, "_copy_move", lambda table, t, nbar: (
            copied.append(t.src), copy_move(table, t, nbar))[1])
        for name, game in test_golden.corpus():
            padded = _padded(game)
            assert clock_bound(padded) == clock_bound(game), name
            assert _built(padded) == _built(game), name
            assert solve(padded).value == solve(game).value, name
            assert test_golden.dumps(padded, tmp_path) == \
                test_golden.dumps(game, tmp_path), name
        assert copied and not any(src.startswith("unreached")
                                  for src in copied)

    def test_translations_are_read_for_reached_copies_only(
            self, monkeypatch):
        """``normalize_01`` translates no atom, and the walk reads the
        table's atom rows and spans only for the transitions out of the
        copies it reaches: padding a golden game with unreachable locations
        reads no more of them."""
        reads = []

        class Counted(dict):
            def __getitem__(self, key):
                reads.append(key)
                return super().__getitem__(key)

        for n in (1, 2, 3):
            table = regions._table(n)
            monkeypatch.setattr(table, "atoms", Counted(table.atoms))
            monkeypatch.setattr(table, "spans", Counted(table.spans))
        total = 0
        for name, game in test_golden.corpus():
            counts = []
            for g in (game, _padded(game)):
                reads.clear()
                ng = normalize_01(g)
                assert not reads, name
                build_region_wtg(ng)
                counts.append(len(reads))
            assert counts[0] == counts[1], (name, counts)
            total += counts[0]
        assert total > 100, total

    def test_an_unreachable_clock_with_only_lower_bounds_is_rejected(
            self, tmp_path, capsys):
        name, game = test_golden.corpus()[0]
        game = _padded(game, 1)
        game.transitions.append(Transition(
            "unbounded", "unreached0", "unreached0", (Guard(Y, ">", 0),)))
        message = (f"transition unbounded: clock {game.clocks[Y]} only has "
                   "lower bounds, so it is not syntactically bounded")
        with pytest.raises(InputError) as info:
            normalize_01(game)
        assert str(info.value) == message
        path = tmp_path / "game.json"
        save_game(game, str(path))
        assert main(["solve", str(path)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_same_cut_as_the_full_product(self):
        """Same locations and transitions in the same order, with the same
        ids, guards and resets, and the same regions; the walk's guards are
        relaxed and trimmed, so the product's are too.  Each move fires in
        the time successor k of its source region that its id ends with,
        the region the product builds it for."""
        for name, game in _forward_build_games():
            new = _reachable_part(build_region_wtg(normalize_01(game)))
            ref = trim(relax(_reachable_part(full_region_wtg(
                region_reference.normalize_01(game)))))
            assert list(new.game.locations.items()) == \
                list(ref.game.locations.items()), name
            assert new.game.transitions == ref.game.transitions, name
            assert new.game.initial == ref.game.initial, name
            assert new.reg == ref.reg, name
            for t in new.game.transitions:
                k = int(t.tid.rsplit("~", 1)[1])
                assert infer_guard_region(new, t) == \
                    new.reg[t.src].time_successors()[k], (name, t.tid)

    def test_no_feasibility_question_is_asked_twice(self, monkeypatch):
        """Within one build no (region, guards) reaches ``delay_feasible``
        twice, and ``relax`` and ``trim`` return the walk's output as it
        is."""
        asked = []
        feasible = regions.delay_feasible
        monkeypatch.setattr(regions, "delay_feasible", lambda r, guards: (
            asked.append((r, tuple(guards))), feasible(r, guards))[1])
        total = 0
        for name, game in _walk_games():
            asked.clear()
            try:
                rg = build_region_wtg(normalize_01(game))
            except GameError:
                continue
            assert len(set(asked)) == len(asked), name
            assert relax(rg) is rg and trim(rg) is rg, name
            total += len(asked)
        assert total > 10_000, total

    def test_add_resets_builds_what_the_reference_keeps(self):
        """``add_resets`` builds only what the initial location reaches in
        the doubled game, and gives what the reference's doubling, cutting
        and trimming gives, with the same composition rules, field for
        field and in order, or the same error class and message."""
        def inputs():
            for name, game in _walk_games():
                try:
                    rg = build_region_wtg(normalize_01(game))
                    yield name, prune_max_traps(trim(relax(prune_unreachable(
                        prune_dead_rolls(rg), [rg.game.initial.location]))))
                except GameError:
                    continue
            # Two games that stop it: one not relaxed, and one flagged
            # trimmed whose reset-free move has its x==1 off the top clock.
            yield "unrelaxed", build_01(_small_01_game())
            game = WeightedTimedGame(
                ["x", "y"], {"a": Location("a", MIN), "b": Location("b", MAX)},
                [Transition("t", "a", "b", (Guard(X, "==", 1),))],
                Configuration("a", (F(0), F(1, 2))))
            yield "off_top", RegionGame(game, dict.fromkeys("ab", R({X}, {Y})),
                                        trimmed=True, relaxed=True)

        built = errors = 0
        for name, rg in inputs():
            out = []
            for add in (add_resets, region_reference.add_resets):
                try:
                    out.append(_fields(add(rg)))
                except GameError as exc:
                    out.append((type(exc), str(exc)))
            assert out[0] == out[1], name
            built += 1
            errors += len(out[0]) == 2
        assert built > 500 and errors == 2, (built, errors)

    def test_only_reachable_moves_are_built(self):
        game = test_anz.random_game(3)
        rg = build_region_wtg(normalize_01(game))
        full = full_region_wtg(region_reference.normalize_01(game))
        assert set(rg.game.locations) < set(full.game.locations)
        assert {t.tid for t in rg.game.transitions} == \
            {t.tid for t in trim(rg).game.transitions}

    def test_a_goal_makes_no_rollovers(self):
        """A play ends in a goal, so the walk makes no rollover from a
        goal's copies, even where a transition leaves the goal and the same
        guards let a non-goal location roll."""
        game = WeightedTimedGame(
            ["x", "y"], {"a": Location("a", MIN), "G": Location("G", MIN, True)},
            [Transition("in", "a", "G", (Guard(X, "<=", 2),)),
             Transition("out", "G", "a", (Guard(Y, "<=", 2),))],
            Configuration("a", (F(0), F(0))))
        built = _built(game)
        assert built == _built(game, reference=True)
        rolls = [t.src for t in built[2] if regions.is_rollover(t.tid)]
        assert any(n.startswith("G#") for n, _ in built[1])
        assert rolls and not any(src.startswith("G#") for src in rolls)

    def test_prune_unreachable_cuts_only_after_a_dead_rollover(self):
        """The walk emits only what the initial location reaches, so
        ``prune_unreachable`` returns its game as it is; only a rollover
        that ``prune_dead_rolls`` drops can leave something to cut."""
        built = cut = 0
        for name, game in _walk_games():
            try:
                rg = build_region_wtg(normalize_01(game))
            except GameError:
                continue
            root = [rg.game.initial.location]
            assert prune_unreachable(rg, root) is rg, name
            pruned = prune_dead_rolls(rg)
            out = prune_unreachable(pruned, root)
            if out is not pruned:
                assert pruned is not rg, name
                assert set(out.game.locations) < set(pruned.game.locations)
                cut += 1
            built += 1
        assert built > 500 and cut, (built, cut)


def _region_set_games():
    families = test_anz.families
    return (_forward_build_games()
            + [(f"chain-{k}-{m}", game_from_dict(families.chain(k, m)))
               for k, m in [(4, 2), (6, 2)]]
            + [(f"ring-{k}-{m}", game_from_dict(families.ring(k, m)))
               for k, m in [(4, 1), (3, 2), (7, 1)]]
            + [(f"kernel_chain-{k}", game_from_dict(families.kernel_chain(k)))
               for k in (1, 2, 3, 4)]
            + [(f"{kind}-{s}", game_from_dict(families.random_game(s, 3, kind)))
               for kind in ("plain", "inf", "zeno") for s in range(25)])


def _stages(game):
    """(transitions, guard regions) of the built game trimmed, after relax
    and trim, and after add_resets, up to the type of the error that stops
    the pipeline; trim and guard-region inference are looked up in
    ``regions`` at call time.  The game is the reference's build, whose
    guards are neither relaxed nor trimmed yet (the walk emits them both)."""
    out = []

    def stage(rg):
        out.append((rg.game.transitions, [regions.infer_guard_region(rg, t)
                                          for t in rg.game.transitions]))
        return rg

    try:
        rg = region_reference.build_region_wtg(
            region_reference.normalize_01(game))
        stage(regions.trim(rg))
        rg = stage(regions.trim(relax(prune_unreachable(
            prune_dead_rolls(rg), [rg.game.initial.location]))))
        stage(add_resets(prune_max_traps(rg)))
    except GameError as exc:
        out.append(type(exc))
    return out


def _benchmark_games():
    """The benchmark's workloads at seeds 1-3 and its families at sizes
    around them."""
    families = test_anz.families
    dicts = [d for w in families.WORKLOADS for seed in (1, 2, 3)
             for _, d, _ in families.workload(w, seed)]
    dicts += [families.chain(k, m) for k in range(2, 7) for m in (2, 3)]
    dicts += [families.ring(k, m) for k in range(2, 8) for m in (1, 2)]
    dicts += [families.kernel_chain(k) for k in range(1, 6)]
    return [game_from_dict(d) for d in dicts]


def test_every_game_the_pipeline_builds_passes_the_checks(monkeypatch):
    """The pipeline builds its games with ``WeightedTimedGame._make``, which
    does not check them.  Every game it builds, over the walk corpus and the
    benchmark's families, passes the checks of ``WeightedTimedGame.__new__``
    and comes out equal; ``trim`` and ``relax``, which ``prepare`` finds
    nothing to do for, are run on each region game flagged undone."""
    make, built = WeightedTimedGame._make, []

    def recorded(cls, parts):
        built.append((sys._getframe(1).f_code.co_name, make(parts)))
        return built[-1][1]

    monkeypatch.setattr(WeightedTimedGame, "_make", classmethod(recorded))
    games = [g for _, g in _walk_games()] + _benchmark_games()
    for game in games:
        try:
            rg = prepare(game).rg
        except GameError:
            continue
        trim(relax(rg._replace(trimmed=False, relaxed=False)))
    assert {name for name, _ in built} == {
        "build_region_wtg", "restrict", "add_resets", "fix_weight_zero",
        "trim", "relax"}
    for name, game in built:
        assert WeightedTimedGame(*game) == game, name


class TestRegionSets:
    def test_same_games_as_the_per_region_reference(self, monkeypatch):
        """``trim`` and ``infer_guard_region`` by region sets leave the same
        transitions, guards and guard regions as asking the feasibility
        predicates region by region and clause by clause."""
        for name, game in _region_set_games():
            new = _stages(game)
            with monkeypatch.context() as m:
                m.setattr(regions, "trim", region_reference.trim)
                m.setattr(regions, "infer_guard_region",
                          region_reference.infer_guard_region)
                ref = _stages(game)
            assert new == ref, name


class TestRelax:
    def test_strict_guards_dropped(self):
        xg = trim(relax(build_01(_small_01_game())))
        for t in xg.game.transitions:
            assert all(g.op in ("==",) for g in t.guards)
            assert all(g.bound in (0, 1) for g in t.guards)

    def test_equality_guards_survive(self):
        xg = trim(relax(trim(full_region_wtg(_small_01_game()))))
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
    return trim(relax(build_01(g)))


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
        # prune_max_traps cuts the cycle before add_resets runs, and finds
        # no trap left once it has
        rg = _relaxed(g)
        pruned = prune_max_traps(rg)
        assert len(pruned.game.transitions) < len(rg.game.transitions)
        assert prune_max_traps(pruned) is pruned
        add_resets(pruned)
        assert solve(g).value == INF == oracle_value(game_to_dict(g))

    def test_max_move_into_a_dead_end_survives(self):
        """A reset-free Max move into a location without moves has nothing
        to be composed with: it is pinned instead of dropped, so Max can
        still strand the play there."""
        g = max_dead_end()
        ar = add_resets(prune_max_traps(
            trim(relax(build_region_wtg(normalize_01(g))))))
        dead = {n for n in ar.game.locations
                if not ar.game.locations[n].is_goal
                and not any(t.src == n for t in ar.game.transitions)}
        assert any(t.tgt in dead and t.tid.startswith("t0#")
                   for t in ar.game.transitions)
        assert solve(g).value == INF == oracle_value(game_to_dict(g))

    def test_reset_free_composition_ends(self):
        """Short-circuiting reset-free same-owner moves ends, and keeps the
        value: the complete three-location digraph of weight-0 moves, the
        four-location one whose moves back down weigh 1, and 40 seeded
        digraphs each solve to the grid oracle's value.  They are solved in
        a child process under a 1 GiB address-space limit, so a composition
        that does not end fails with a ``MemoryError`` in seconds, not by
        taking the machine's memory."""
        games = [complete_digraph(3, 0), complete_digraph(4, 1)]
        games += [random_digraph(seed) for seed in range(40)]
        run = subprocess.run(
            [sys.executable, "-c", _COMPOSITION.format(
                src=str(ROOT / "src"), tests=str(ROOT / "tests"))],
            timeout=60, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr[-2000:]
        values = [parse_value(v) for v in json.loads(run.stdout)]
        assert values == [oracle_value(game_to_dict(g)) for g in games]
        assert values[:2] == [1, 1]
        assert sum(v != INF for v in values) >= 10, values

    def test_add_resets_emits_its_game_trimmed(self):
        """Trimming the output of ``add_resets`` again, with its flag
        cleared, changes no field: the same moves, guards and order."""
        moves = 0
        for name, rg in _built_games():
            try:
                out = add_resets(prune_max_traps(trim(relax(prune_unreachable(
                    prune_dead_rolls(rg), [rg.game.initial.location])))))
            except GameError:
                continue
            assert _fields(trim(out._replace(trimmed=False))) == \
                _fields(out), name
            moves += len(out.game.transitions)
        assert moves > 5_000, moves


_COMPOSITION = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
sys.path[:0] = [{src!r}, {tests!r}]
from corpus import complete_digraph, random_digraph
from wtgsolve.unfold import solve
games = [complete_digraph(3, 0), complete_digraph(4, 1)]
games += [random_digraph(seed) for seed in range(40)]
print(json.dumps([str(solve(g).value) for g in games]))
"""


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
    hits = [r for r in all_regions(2) if contains(r, v)]
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
