"""Shared game fixtures for the test suite."""
import random
from fractions import Fraction

from wtgsolve.core import (
    MAX,
    MIN,
    Configuration,
    Guard,
    Location,
    Transition,
    WeightedTimedGame,
)


def G(clock, op, bound):
    return Guard(clock, op, bound)


def loc(name, owner=MIN, goal=False, weight=0):
    return Location(name, owner, is_goal=goal, weight=weight)


def make_game(locations, transitions, initial_loc, initial_val, n_clocks=2):
    return WeightedTimedGame(
        clocks=[f"c{i}" for i in range(n_clocks)],
        locations={l.name: l for l in locations},
        transitions=list(transitions),
        initial=Configuration(initial_loc,
                              tuple(Fraction(v) for v in initial_val)),
    )


def three_clock_demo():
    """A 3-clock game of value 1 whose bounded values approach 1 from above
    but never reach it: a zero-weight two-step loop lets Min trade an extra
    round for a smaller premium on the exit path.

    Clocks: x=0, y=1, t=2.  Min loops flag1 -> flag2 (resetting t) while Max
    returns via t3 (resetting x) or commits to the paid chain h1/h2/h3 whose
    total cost from flag2 at (d, a+d, 0) is a+2d; Min's direct exit from
    flag1 costs exactly 1 once y reaches 1 with x=0.

    Bounded values (Min must reach G within k steps).  A round is t1 then
    t3, two steps; if Min delays d_i before the i-th t1, Max's chain
    t4 t5 t6 t7 costs d_1 + ... + d_i + d_i.  That chain takes four steps
    after t1, so no finite value exists for k <= 4.  With
    n = floor((k - 3) / 2) rounds (the last one must leave room for the
    chain) Min's best delays are d_i = c / 2**i with d_1 + ... + d_n = 1,
    so the exact bounded value is c = 2**n / (2**n - 1): 2, 4/3, 8/7,
    16/15, ..., each value held for two consecutive k.  On a 1/N grid the
    last positive delay is at least 1/N, so the bounded values stop at the
    floor 1 + 1/N.
    """
    locs = [
        loc("flag1", MIN),
        loc("flag2", MAX),
        loc("h1", MIN),
        loc("h2", MIN, weight=1),
        loc("h3", MIN, weight=2),
        loc("G", goal=True),
    ]
    trans = [
        Transition("t1", "flag1", "flag2", resets=frozenset({2})),
        Transition("t2", "flag1", "G",
                   guards=(G(0, "==", 0), G(1, "==", 1)),
                   resets=frozenset({1}), weight=1),
        Transition("t3", "flag2", "flag1", guards=(G(2, "==", 0),),
                   resets=frozenset({0})),
        Transition("t4", "flag2", "h1", guards=(G(2, "==", 0),)),
        Transition("t5", "h1", "h2", guards=(G(1, "==", 1),),
                   resets=frozenset({1})),
        Transition("t6", "h2", "h3", guards=(G(0, "==", 1),),
                   resets=frozenset({0})),
        Transition("t7", "h3", "G", guards=(G(2, "==", 1),),
                   resets=frozenset({2})),
    ]
    return make_game(locs, trans, "flag1", (0, 0, 0), n_clocks=3)


def reset_free_digraph(owner, rates, moves):
    """Locations l0..l{n-1} of one ``owner``, with ``rates``, the unguarded
    reset-free moves ``moves`` as (source index, target index, weight), and
    one exit from the last location to the goal G, guarded x==1, resetting
    x, of weight 1.  The play starts at l0 at (0, 0).  Every move between
    the locations must be short-circuited by ``add_resets``."""
    names = [f"l{i}" for i in range(len(rates))]
    locs = [loc(n, owner, weight=w) for n, w in zip(names, rates)]
    trans = [Transition(f"m{i}{j}_{k}", names[i], names[j], weight=w)
             for k, (i, j, w) in enumerate(moves)]
    trans.append(Transition("exit", names[-1], "G", guards=(G(0, "==", 1),),
                            resets=frozenset({0}), weight=1))
    return make_game(locs + [loc("G", goal=True)], trans, "l0", (0, 0))


def complete_digraph(n, back):
    """:func:`reset_free_digraph` on n rate-0 Min locations with every move
    between them, each weighing ``back`` from a higher-numbered location to
    a lower-numbered one and 0 otherwise.  Its value is 1: walk up at
    weight 0, wait, and leave."""
    return reset_free_digraph(MIN, [0] * n, [
        (i, j, back * (i > j)) for i in range(n) for j in range(n) if i != j])


def random_digraph(seed):
    """A seeded :func:`reset_free_digraph`: 2-4 locations of one owner,
    rates and move weights 0 or 1, and each move present with probability
    0.7."""
    rnd = random.Random(seed)
    n = rnd.randint(2, 4)
    return reset_free_digraph(
        rnd.choice([MIN, MAX]), [rnd.randint(0, 1) for _ in range(n)],
        [(i, j, rnd.randint(0, 1)) for i in range(n) for j in range(n)
         if i != j and rnd.random() < 0.7])
