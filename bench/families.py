"""Game families of the benchmark, as JSON-ready dicts.

Every generator is a pure function of its arguments: the same arguments,
seed included, give the same game.  The solver only ever sees the JSON files
written from these dicts.
"""
import random

CLOCKS = ["x", "y"]


def _game(locations, transitions, start, valuation=None):
    return {
        "clocks": list(CLOCKS),
        "locations": locations,
        "transitions": transitions,
        "initial": {"location": start,
                    "valuation": valuation or {"x": "0", "y": "0"}},
    }


def _edge(tid, src, tgt, guards, resets=(), weight=0):
    return {"id": tid, "from": src, "to": tgt, "guards": [list(g) for g in guards],
            "resets": list(resets), "weight": weight}


def chain(k, m):
    """k locations alternating Min (rate 1) and Max (rate 2); each has an
    edge ``x<=m`` resetting x at weight 0 and an edge ``y==m`` resetting y
    at weight 1 to the next location, the last one to the goal G."""
    locs = [{"id": f"c{i}", "owner": "min" if i % 2 == 0 else "max",
             "weight": 1 if i % 2 == 0 else 2} for i in range(k)]
    locs.append({"id": "G", "owner": "min", "goal": True})
    trans = []
    for i in range(k):
        nxt = f"c{i + 1}" if i + 1 < k else "G"
        trans.append(_edge(f"a{i}", f"c{i}", nxt, [("x", "<=", m)], ["x"], 0))
        trans.append(_edge(f"b{i}", f"c{i}", nxt, [("y", "==", m)], ["y"], 1))
    return _game(locs, trans, "c0")


def ring(k, m):
    """k locations alternating Min and Max with rate i%2.  Location i has an
    edge to location i+1 (mod k) guarded ``c<=m`` on clock c = i%2, resetting
    c at weight 1, and an edge to the goal guarded ``o==m`` on the other
    clock o, resetting o at weight 2."""
    locs = [{"id": f"r{i}", "owner": "min" if i % 2 == 0 else "max",
             "weight": i % 2} for i in range(k)]
    locs.append({"id": "G", "owner": "min", "goal": True})
    trans = []
    for i in range(k):
        c, o = CLOCKS[i % 2], CLOCKS[1 - i % 2]
        trans.append(_edge(f"n{i}", f"r{i}", f"r{(i + 1) % k}",
                           [(c, "<=", m)], [c], 1))
        trans.append(_edge(f"g{i}", f"r{i}", "G", [(o, "==", m)], [o], 2))
    return _game(locs, trans, "r0")


def kernel_chain(k):
    """k zero-weight loops of rate 0 in sequence.  Loop i is a_i --y==1,
    reset y--> b_i --x==1, reset x--> a_i at weight 0, with point exits
    ``y==1`` (weight 1) from a_i and ``x==1`` (weight 2) from b_i into a
    rate-1 hop h_i, which leaves at once (``y==0``, reset x) for a_{i+1}, or
    for the goal after the last loop.  The play starts at a_0 in (0, 1/2)."""
    locs, trans = [], []
    for i in range(k):
        locs += [{"id": f"a{i}", "owner": "min", "weight": 0},
                 {"id": f"b{i}", "owner": "min", "weight": 0},
                 {"id": f"h{i}", "owner": "min", "weight": 1}]
        nxt = f"a{i + 1}" if i + 1 < k else "G"
        trans += [
            _edge(f"ab{i}", f"a{i}", f"b{i}", [("y", "==", 1)], ["y"]),
            _edge(f"ba{i}", f"b{i}", f"a{i}", [("x", "==", 1)], ["x"]),
            _edge(f"ea{i}", f"a{i}", f"h{i}", [("y", "==", 1)], ["y"], 1),
            _edge(f"eb{i}", f"b{i}", f"h{i}", [("x", "==", 1)], ["x"], 2),
            _edge(f"hop{i}", f"h{i}", nxt, [("y", "==", 0)], ["x"]),
        ]
    locs.append({"id": "G", "owner": "min", "goal": True})
    return _game(locs, trans, "a0", {"x": "0", "y": "1/2"})


# Guard atoms of the random games.  Every guard bounds both clocks from
# above by 2 and uses only closed comparisons: transitions fire only with
# both clocks at most 2, below the clock bound 3 of a game whose largest
# constant is 2, and every supremum or infimum of a delay is attained.
_UPPER = [("<=", 2), ("<=", 2), ("<=", 2), ("<=", 1), ("<=", 1), ("==", 1), ("==", 2)]


def _random_guard(rnd):
    guards = []
    for c in CLOCKS:
        op, b = rnd.choice(_UPPER)
        if op == "<=" and b == 2 and rnd.random() < 0.3:
            guards.append((c, ">=", 1))
        guards.append((c, op, b))
    return guards


def random_game(seed, n, kind):
    """A seeded random two-clock game with n ordinary locations L0..L(n-1).

    Location Li has an edge to L(i+1) and one to the goal G (the last one
    only the latter), weighing 0..3.  One more edge leads back from some
    location to itself or a lower index and weighs 1..3, so every cycle
    weighs at least 1 and the game is almost non-Zeno.  The seed draws the
    owners, rates, guards, resets and weights and the back edge; the number
    of edges, which sets the size of the region product, is fixed.
    ``kind`` plants one more structure:

    - ``"plain"``: none; the value may be finite or +inf.
    - ``"inf"``: L0 is Max-owned and has an edge to a dead end D, which has
      no outgoing edge, so Max can refuse the goal forever: the value is +inf.
    - ``"zeno"``: L0 is Min-owned and has an edge resetting x into Z1, a
      Min location of rate 1 on the weight-0 loop Z1 --y==1, reset y--> Z2
      --x==1, reset x--> Z1, and Z2 exits to G.  Entered with
      0 = x < y < 1, the loop costs the time Z1 waits for y to reach 1: its
      corner weights are 0 and 1, so the game is not almost non-Zeno and
      must be rejected.
    """
    rnd = random.Random(seed)
    names = [f"L{i}" for i in range(n)]
    locs = [{"id": name, "owner": rnd.choice(["min", "max"]),
             "weight": rnd.choice([0, 1, 2])} for name in names]
    edges = []
    for i in range(n):
        targets = [i + 1, n] if i + 1 < n else [n]
        edges += [(i, j, rnd.randint(0, 3)) for j in targets]
    src = rnd.randrange(n)
    edges.append((src, rnd.randrange(src + 1), rnd.randint(1, 3)))
    trans = [_edge(f"t{e}", names[i], "G" if j == n else names[j],
                   _random_guard(rnd), [c for c in CLOCKS if rnd.random() < 0.5], w)
             for e, (i, j, w) in enumerate(edges)]
    if kind == "inf":
        locs[0]["owner"] = "max"
        locs.append({"id": "D", "owner": "min", "weight": 0})
        trans.append(_edge("dead", "L0", "D", [("x", "<=", 2), ("y", "<=", 2)]))
    elif kind == "zeno":
        locs[0]["owner"] = "min"
        locs += [{"id": "Z1", "owner": "min", "weight": 1},
                 {"id": "Z2", "owner": "min", "weight": 0}]
        trans += [
            _edge("to_z", "L0", "Z1", [("x", "<=", 2), ("y", "<=", 2)], ["x"]),
            _edge("z12", "Z1", "Z2", [("y", "==", 1)], ["y"]),
            _edge("z21", "Z2", "Z1", [("x", "==", 1)], ["x"]),
            _edge("z_out", "Z2", "G", [("x", "==", 1)], ["x"], 1),
        ]
    elif kind != "plain":
        raise ValueError(f"unknown kind {kind!r}")
    locs.append({"id": "G", "owner": "min", "goal": True})
    return _game(locs, trans, "L0")


def _shuffled(game, rnd):
    """The same game with its locations and transitions listed in a seeded
    order; values and verdicts do not depend on that order."""
    out = dict(game)
    out["locations"] = rnd.sample(game["locations"], len(game["locations"]))
    out["transitions"] = rnd.sample(game["transitions"], len(game["transitions"]))
    return out


def workload(name, seed):
    """The games of a workload as (name, game dict, expected) triples.

    ``chain`` and ``ring`` are fixed families whose listing order the seed
    shuffles; ``mixed`` draws its random games from the seed.  ``expected``
    is what is known without the oracle: ``("value", v)`` for a closed form
    (README.md derives each, +inf included), ``("oracle", None)`` when only
    the grid oracle knows, and ``("reject", None)`` for a game that is not
    almost non-Zeno by construction."""
    rnd = random.Random(f"{name}:{seed}")
    if name == "chain":
        return [(f"chain_{k}_{m}", _shuffled(chain(k, m), rnd),
                 ("value", (k // 2) * (m + 1)))
                for k, m in [(2, 3), (4, 2), (6, 2)]]
    if name == "ring":
        return [(f"ring_{k}_{m}", _shuffled(ring(k, m), rnd), ("value", 2))
                for k, m in [(4, 1), (3, 2), (7, 1)]]
    if name == "mixed":
        games = [(f"kernel_{k}", _shuffled(kernel_chain(k), rnd), ("value", k))
                 for k in (3, 4)]
        for kind, count, expected in [("plain", 6, ("oracle", None)),
                                      ("inf", 2, ("value", "inf")),
                                      ("zeno", 2, ("reject", None))]:
            for i in range(count):
                sub = rnd.randrange(2 ** 32)
                games.append((f"{kind}_{i}_{sub}", random_game(sub, 3, kind),
                              expected))
        return games
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("chain", "ring", "mixed")
