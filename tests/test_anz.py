"""The almost-non-Zeno check on the corner-path product.

``check_almost_non_zeno`` is compared with the simple-cycle enumerator it
replaced (:mod:`anz_reference`) on the corpus, on the benchmark's game
families and on seeded random games.  The enumerator compares only corner
paths that close at their start corner, so it may miss a violation; the
product search must never miss one, and each violation it adds must come
with a witness that replays on the region game.
"""
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from acceptance_corpus import exact_corpus, mixed_cycle, transformation_corpus
import anz_reference
from anz_reference import enumerate_almost_non_zeno
from corpus import G, loc, make_game, three_clock_demo
from wtgsolve.cli import main
from wtgsolve.core import MAX, MIN, Transition
from wtgsolve.cycles import (ANZ, VIOLATION, build_corner_point,
                             check_almost_non_zeno)
from wtgsolve.gameio import game_from_dict, save_game
from wtgsolve.regions import (add_resets, build_region_wtg, normalize_01,
                              prune_unreachable, relax, trim)
from wtgsolve.unfold import (NotAlmostNonZeno, prune_dead_rolls,
                             prune_max_traps, solve)

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "bench"))
import families  # noqa: E402  (the benchmark's generators, used read-only)


def self_loop():
    """Min location Z of rate 1: a loop ``x<=1`` resetting x at weight 0,
    and an exit ``y==1`` resetting y at weight 1.  From (0, 1/2) a loop of
    delay 1/4 returns to the same region-location at weight 1/4, so the
    game is not almost non-Zeno."""
    locs = [loc("Z", MIN, weight=1), loc("G", goal=True)]
    trans = [
        Transition("s", "Z", "Z", guards=(G(0, "<=", 1),),
                   resets=frozenset({0})),
        Transition("e", "Z", "G", guards=(G(1, "==", 1),),
                   resets=frozenset({1}), weight=1),
    ]
    return make_game(locs, trans, "Z", (0, 0))


def random_game(seed):
    """A seeded two-clock game of 1-3 locations with self-loops, weight-0
    edges and guards with constants 0 and 1; every guarded clock has an
    upper bound, which ``normalize_01`` requires."""
    rnd = random.Random(seed)
    n = rnd.randint(1, 3)
    names = [f"q{i}" for i in range(n)]
    locs = [loc(name, rnd.choice([MIN, MAX]), weight=rnd.choice([0, 1, 2]))
            for name in names] + [loc("G", goal=True)]
    trans = []
    for i in range(n + rnd.randint(1, 3)):
        guards = []
        for c in rnd.sample([0, 1], rnd.randint(0, 2)):
            guards.append(G(c, rnd.choice(["<", "<=", "=="]), rnd.randint(0, 1)))
            if rnd.random() < 0.3:
                guards.append(G(c, rnd.choice([">", ">="]), rnd.randint(0, 1)))
        trans.append(Transition(
            f"t{i}", names[i % n], rnd.choice(names + ["G"]),
            guards=tuple(guards),
            resets=frozenset(c for c in (0, 1) if rnd.random() < 0.5),
            weight=rnd.choice([0, 0, 1])))
    return make_game(locs, trans, "q0", (0, 0))


def checked_region_game(game):
    """The region game whose corner points ``prepare`` checks."""
    rg = prune_dead_rolls(build_region_wtg(normalize_01(game)))
    rg = prune_unreachable(rg, [rg.game.initial.location])
    return add_resets(prune_max_traps(trim(relax(rg))))


def checked_corner_point(game):
    """The corner-point graph that ``prepare`` checks."""
    return build_corner_point(checked_region_game(game))


def corner_path_weights(cp, tids):
    """Weights of the corner paths along a region walk, from any corner of
    its first region to any corner of its last."""
    first = cp.rg.game.transition_map()[tids[0]].src
    front = {(first, c): {0} for c in cp.rg.reg[first].corners()}
    for tid in tids:
        nxt = {}
        for u, v, weight in cp.by_tid.get(tid, []):
            for w in front.get(u, ()):
                nxt.setdefault(v, set()).add(w + weight)
        front = nxt
    return set().union(*front.values())


def replays(cp, report):
    """Is the witness a closed region walk of weight-0 transitions through
    a location of positive rate, with corner paths of both weights?"""
    game = cp.rg.game
    tmap = game.transition_map()
    ring = [tmap[tid] for tid in report.witness]
    lo, hi = report.witness_weights
    return (lo == 0 and hi >= 1
            and all(t.tgt == n.src for t, n in zip(ring, ring[1:] + ring[:1]))
            and all(t.weight == 0 for t in ring)
            and any(game.locations[t.src].weight > 0 for t in ring)
            and {lo, hi} <= corner_path_weights(cp, report.witness))


def differential_games():
    games = [(name, g) for name, g, _ in exact_corpus()]
    games += transformation_corpus()
    games += [("mixed_cycle", mixed_cycle()), ("self_loop", self_loop())]
    for workload in families.WORKLOADS:
        for seed in (1, 2, 3):
            games += [(f"{workload}-{seed}-{name}", game_from_dict(d))
                      for name, d, _ in families.workload(workload, seed)]
    games += [(f"random-{seed}", random_game(seed)) for seed in range(120)]
    return games


def test_product_search_agrees_with_the_enumerator():
    added = []
    for name, game in differential_games():
        cp = checked_corner_point(game)
        old = enumerate_almost_non_zeno(cp)
        new = check_almost_non_zeno(cp)
        assert old.verdict in (ANZ, VIOLATION), name
        if new.verdict == VIOLATION:
            assert replays(cp, new), name
            if old.verdict == ANZ:
                added.append(name)
        else:
            assert new.verdict == ANZ and old.verdict == ANZ, name
    # the self-loop game is the violation the enumerator misses
    assert "self_loop" in added


def test_tabulated_corner_edges_match_the_valuation_reference():
    """``build_corner_point`` reads corner moves from the region table; its
    edges are those of the valuation reference, transition by transition,
    in the same order and with the same data, on the trimmed region game
    and on the one ``prepare`` checks.  Its corners are int tuples."""
    games = differential_games() + [("three_clock_demo", three_clock_demo())]
    games += [(f"random-{seed}", random_game(seed))
              for seed in range(120, 400)]
    for name, game in games:
        for rg in (trim(build_region_wtg(normalize_01(game))),
                   checked_region_game(game)):
            got = build_corner_point(rg).by_tid
            assert got == anz_reference.build_corner_point(rg).by_tid, name
            assert all(type(x) is int for es in got.values()
                       for (_l, c), (_m, d), _data in es for x in c + d), name


def test_self_loop_game_is_rejected(tmp_path, capsys):
    with pytest.raises(NotAlmostNonZeno) as info:
        solve(self_loop())
    assert info.value.report.witness_weights == (0, 1)
    path = tmp_path / "self_loop.json"
    save_game(self_loop(), str(path))
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert "corner weights 0 and 1" in err


_WITNESS = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import families
from wtgsolve.gameio import game_from_dict
from wtgsolve.unfold import NotAlmostNonZeno, solve
try:
    solve(game_from_dict(families.random_game(0, 3, "zeno")))
except NotAlmostNonZeno as exc:
    print(json.dumps([exc.report.witness, exc.report.cycles_checked]))
"""


def test_witness_does_not_depend_on_the_hash_seed():
    script = _WITNESS.format(src=str(ROOT / "src"), bench=str(ROOT / "bench"))
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        outs.append(json.loads(run.stdout))
    assert outs[0] == outs[1]
    witness, built = outs[0]
    assert witness and built > 0
