"""Cycle analyses on trimmed region games.

Corner-point abstraction, the zero-or-at-least-one cycle weight check,
green marking of zero-weight cycles, the weight-zero location split, kernel
extraction and the crude value upper bound W.
"""
from __future__ import annotations

from collections import deque, namedtuple
from fractions import Fraction

from .core import Guard, Location, StructuralError, Transition
from .graphs import strongly_connected_components
from .regions import RegionGame, _table, infer_guard_region, is_rollover

ANZ = "almost-non-zeno"
VIOLATION = "violation"


class CornerPointGraph(namedtuple("CornerPointGraph", "rg by_tid")):
    """Finite weighted graph over (region-location, closure corner) pairs.

    A transition edge from corner c bundles the delay to a corner c' of the
    transition's firing region (an integer 0 or 1, billed at the location
    rate) with the discrete jump, so every edge weight is a non-negative
    integer and run weights are sandwiched between corner path weights.
    An edge is a ``(u, v, weight)`` tuple; ``by_tid`` holds them all,
    grouped by transition id, for the region game ``rg``.
    """

    __slots__ = ()

    # ``graph`` and ``number_of_edges`` exist only for the benchmark's tracer,
    # which counts edges as ``cp.graph.number_of_edges()``.
    @property
    def graph(self) -> "CornerPointGraph":
        return self

    def number_of_edges(self) -> int:
        return sum(map(len, self.by_tid.values()))


#: The ANZ verdict, kappa, a witness cycle's transition ids and lowest and
#: highest corner weights, and the edges of the corner-path product P0.
AnzReport = namedtuple(
    "AnzReport", "verdict kappa witness witness_weights cycles_checked",
    defaults=(None, None, None, 0))

GreenMarking = namedtuple("GreenMarking", "locations transitions")


#: The kernel's strongly connected components, as sets of location names,
#: and the transitions that leave it.
Kernel = namedtuple("Kernel", "components output_edges")


def build_corner_point(rg: RegionGame) -> CornerPointGraph:
    """The corner edges of each transition, from the region table."""
    if not rg.trimmed:
        raise StructuralError("corner-point abstraction needs a trimmed game")
    game = rg.game
    table = _table(len(game.clocks))
    by_tid: dict[str, list] = {}
    for t in game.transitions:
        moves = table.corner_moves(rg.reg[t.src], infer_guard_region(rg, t),
                                   t.resets, rg.reg[t.tgt], t.tid)
        w_loc = game.locations[t.src].weight
        if moves:
            by_tid[t.tid] = [((t.src, c), (t.tgt, landed),
                              d * w_loc + t.weight) for c, landed, d in moves]
    return CornerPointGraph(rg, by_tid)


def _inner_edges(edges: list[tuple]) -> list[tuple]:
    """The ``(u, v, ...)`` edges whose ends share a strongly connected
    component: exactly the edges that lie on a cycle."""
    succ: dict = {}
    for u, v, *_rest in edges:
        succ.setdefault(u, []).append(v)
    comp_of = {n: i for i, comp in
               enumerate(strongly_connected_components(succ)) for n in comp}
    return [e for e in edges if comp_of[e[0]] == comp_of[e[1]]]


def _zero_product(cp: CornerPointGraph):
    """The product P0 of the corner-point graph with itself, restricted to
    pairs whose first corner edge weighs 0.  Only transitions inside a
    strongly connected component of the region graph can lie on a closed
    walk, and of those only the ones with a corner edge of weight 0, so P0
    is built on the components of the graph those transitions form.

    A node (l, c, c2) pairs two corners of region-location l.  Corner edges
    e: (l, c) -> (m, d) and e2: (l, c2) -> (m, d2) of one region transition
    give the edge (l, c, c2) -> (m, d, d2) when weight(e) = 0; it carries
    the transition id and weight(e2).  Returns the successor and the
    predecessor lists, each sorted, and the number of edges."""
    zero = [(edges[0][0][0], edges[0][1][0], tid, edges)
            for tid, edges in sorted(cp.by_tid.items())
            if any(w == 0 for _u, _v, w in edges)]
    succ: dict = {}
    pred: dict = {}
    built = 0
    for l, m, tid, edges in _inner_edges(zero):
        pairs = [(c, d, w) for (_l, c), (_m, d), w in edges]
        for c, d, w0 in pairs:
            if w0:
                continue
            for c2, d2, w in pairs:
                a, b = (l, c, c2), (m, d, d2)
                succ.setdefault(a, []).append((b, tid, w))
                pred.setdefault(b, []).append((a, tid, w))
                built += 1
    for adj in (succ, pred):
        for lst in adj.values():
            lst.sort()
    return succ, pred, built


def _search(starts, adj) -> dict:
    """Breadth-first search from ``starts`` along ``adj``: node -> (depth,
    the step that first reached it as (previous node, tid, weight), or None
    for a start)."""
    seen = {s: (0, None) for s in starts}
    queue = deque(starts)
    while queue:
        u = queue.popleft()
        depth = seen[u][0] + 1
        for v, tid, w in adj.get(u, ()):
            if v not in seen:
                seen[v] = (depth, (u, tid, w))
                queue.append(v)
    return seen


def _walk_through_positive(starts, succ, pred):
    """The shortest P0 walk from a node of ``starts`` back to one of them
    through an edge of positive second weight, as [(tid, weight)], or None."""
    fwd = _search(starts, succ)
    bwd = _search(starts, pred)
    best = None
    for u, (du, _step) in fwd.items():
        for v, tid, w in succ.get(u, ()):
            if w and v in bwd and (best is None or du + bwd[v][0] < best[0]):
                best = (du + bwd[v][0], u, v, tid, w)
    if best is None:
        return None
    _, u, v, tid, w = best
    return _steps(fwd, u)[::-1] + [(tid, w)] + _steps(bwd, v)


def _steps(tree: dict, node) -> list:
    """The (tid, weight) steps from ``node`` back to a start of ``tree``."""
    out = []
    while tree[node][1] is not None:
        node, tid, w = tree[node][1]
        out.append((tid, w))
    return out


def check_almost_non_zeno(cp: CornerPointGraph) -> AnzReport:
    """Every region cycle must weigh 0 on all corners or >= 1 on all of
    them; a mixed cycle realizes intermediate run weights in (0, 1).

    Run weights along a region walk lie between the weights of its corner
    paths, which may start and end at any corner.  So the game is not
    almost non-Zeno iff, for some region-location l, a walk of the product
    P0 (:func:`_zero_product`) leads from an l-node to an l-node through an
    edge whose second corner edge weighs more than 0.  One forward and one
    backward search per l find the shortest such walk; no cycle is
    enumerated.  Locations are taken in sorted order, and the first walk
    that does not begin with a rollover is the witness (else the first
    walk).  ``cycles_checked`` counts the edges of P0."""
    succ, pred, built = _zero_product(cp)
    nodes_at: dict = {}
    for n in sorted(succ.keys() | pred.keys()):
        nodes_at.setdefault(n[0], []).append(n)
    first = None
    for loc, starts in sorted(nodes_at.items()):
        walk = _walk_through_positive(starts, succ, pred)
        if walk is None:
            continue
        report = AnzReport(VIOLATION, witness=[t for t, _w in walk],
                           witness_weights=(0, sum(w for _t, w in walk)),
                           cycles_checked=built)
        if not is_rollover(walk[0][0]):
            return report
        first = first or report
    return first or AnzReport(ANZ, kappa=Fraction(1), cycles_checked=built)


def mark_green(rg: RegionGame, cp: CornerPointGraph) -> GreenMarking:
    """The locations and transitions on zero-weight corner cycles: the
    zero-weight edges inside a strongly connected component of the
    zero-weight corner graph."""
    zero = [(u, v, tid) for tid, edges in cp.by_tid.items()
            for u, v, w in edges if w == 0]
    inner = _inner_edges(zero)
    return GreenMarking(frozenset(u[0] for u, _v, _t in inner),
                        frozenset(tid for _u, _v, tid in inner))


def fix_weight_zero(rg: RegionGame,
                    marking: GreenMarking) -> tuple[RegionGame, GreenMarking]:
    """Split every positive-weight green location so green cycling happens
    at rate 0; the original keeps its non-green exits behind a zero-delay
    hop.  Identity when all green locations already have weight 0: the
    input is returned as it is.  Moves keep their order, and the hops come
    after them, by location."""
    game, green_tids = rg.game, marking.transitions
    split = [n for n in sorted(marking.locations) if game.locations[n].weight]
    if not split:
        return rg, marking
    guarded = {t.src for t in game.transitions if t.tid in green_tids
               and any(g.op == "==" and g.bound == 0 for g in t.guards)}
    for name in split:
        if not rg.reg[name].zeros:
            raise StructuralError(
                f"green location {name} has no clock pinned at 0")
        if name not in guarded:
            raise StructuralError(
                f"green location {name} (weight {game.locations[name].weight})"
                f" has no green exit guarded at 0")
    twin = {name: f"{name}~z0" for name in split}
    locations, reg = dict(game.locations), dict(rg.reg)
    transitions = []
    for t in game.transitions:
        src = twin.get(t.src, t.src) if t.tid in green_tids else t.src
        tgt = twin.get(t.tgt, t.tgt)
        transitions.append(t if (src, tgt) == (t.src, t.tgt)
                           else t._replace(src=src, tgt=tgt))
    for name in split:
        r = reg[twin[name]] = rg.reg[name]
        locations[twin[name]] = Location(twin[name], game.locations[name].owner,
                                         weight=0)
        transitions.append(Transition(f"__z0_{name}", twin[name], name,
                                      guards=(Guard(min(r.zeros), "==", 0),)))
    initial = game.initial
    if initial.location in twin:
        initial = type(initial)(twin[initial.location], initial.valuation)
    game2 = type(game)(game.clocks, locations, transitions, initial)
    green = marking.locations.difference(split).union(twin.values())
    return (rg._replace(game=game2, reg=reg),
            GreenMarking(green, green_tids))


def extract_kernel(rg: RegionGame, marking: GreenMarking) -> Kernel:
    succ: dict = {}
    for t in rg.game.transitions:
        if (t.tid in marking.transitions and t.src in marking.locations
                and t.tgt in marking.locations):
            succ.setdefault(t.src, []).append(t.tgt)
    comps = [frozenset(c) for c in strongly_connected_components(succ)
             if len(c) > 1 or c[0] in succ.get(c[0], ())]
    kernel_locs = frozenset().union(*comps) if comps else frozenset()
    outputs = [t for t in rg.game.transitions
               if t.src in kernel_locs
               and (t.tid not in marking.transitions
                    or t.tgt not in kernel_locs)]
    return Kernel(sorted(comps, key=sorted), outputs)


def compute_bounds(rg: RegionGame) -> tuple[Fraction, Fraction]:
    """(kappa, W): the cycle-weight granularity and a crude upper bound on
    any finite value, counted over every location.  An unreachable location
    could only raise the bound, and a prepared game has none:
    :func:`add_resets` prunes them, and the twin that :func:`fix_weight_zero`
    adds takes every move into the location it splits and hops back to it."""
    game = rg.game
    max_loc = max((l.weight for l in game.locations.values()), default=0)
    max_tr = max((t.weight for t in game.transitions), default=0)
    return Fraction(1), Fraction(len(game.locations) * (max_loc + max_tr + 1))
