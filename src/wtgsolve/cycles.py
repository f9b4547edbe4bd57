"""Cycle analyses on trimmed region games.

Corner-point abstraction, the zero-or-at-least-one cycle weight check,
green marking of zero-weight cycles, the weight-zero location split, kernel
extraction and the crude value upper bound W.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import Guard, Location, StructuralError, Transition, Valuation
from .graphs import reachable, strongly_connected_components
from .regions import Region, RegionGame

ANZ = "almost-non-zeno"
VIOLATION = "violation"


@dataclass
class CornerPointGraph:
    """Finite weighted graph over (region-location, closure corner) pairs.

    A transition edge from corner c bundles the delay to a corner c' of the
    transition's firing region (an integer 0 or 1, billed at the location
    rate) with the discrete jump, so every edge weight is a non-negative
    integer and run weights are sandwiched between corner path weights.
    An edge is a ``(u, v, data)`` tuple; ``by_tid`` holds them all, grouped
    by transition id.
    """

    rg: RegionGame
    by_tid: dict[str, list]

    def edges_for(self, tid: str):
        return self.by_tid.get(tid, [])

    # ``graph`` and ``number_of_edges`` exist only for the benchmark's tracer,
    # which counts edges as ``cp.graph.number_of_edges()``.
    @property
    def graph(self) -> "CornerPointGraph":
        return self

    def number_of_edges(self) -> int:
        return sum(map(len, self.by_tid.values()))


@dataclass
class AnzReport:
    verdict: str
    kappa: Optional[Fraction] = None
    witness: Optional[list[str]] = None
    witness_weights: Optional[tuple[int, int]] = None
    cycles_checked: int = 0        # edges of the corner-path product P0
    feasibility_calls: int = 0     # set by ``prepare`` on a rejection
    feasibility_distinct: int = 0


@dataclass
class GreenMarking:
    locations: frozenset[str]
    transitions: frozenset[str]


@dataclass
class Kernel:
    components: list[frozenset[str]]
    output_edges: list[Transition]

    @property
    def locations(self) -> frozenset[str]:
        return frozenset().union(*self.components) if self.components \
            else frozenset()


def _uniform_delay(c: Valuation, c2: Valuation) -> Optional[int]:
    diffs = {b - a for a, b in zip(c, c2)}
    if len(diffs) == 1:
        d = diffs.pop()
        if d in (0, 1):
            return int(d)
    return None


def build_corner_point(rg: RegionGame) -> CornerPointGraph:
    if not rg.trimmed:
        raise StructuralError("corner-point abstraction needs a trimmed game")
    game = rg.game
    by_tid: dict[str, list] = {}
    for t in game.transitions:
        fire = rg.guard_region[t.tid]
        landing = rg.reg[t.tgt].corners()
        w_loc = game.locations[t.src].weight
        for c in rg.reg[t.src].corners():
            for c2 in fire.corners():
                d = _uniform_delay(c, c2)
                if d is None:
                    continue
                landed = tuple(Fraction(0) if i in t.resets else v
                               for i, v in enumerate(c2))
                if landed not in landing:
                    raise StructuralError(
                        f"corner {landed} off the target region of {t.tid}")
                by_tid.setdefault(t.tid, []).append(
                    ((t.src, c), (t.tgt, landed),
                     {"tid": t.tid, "weight": d * w_loc + t.weight,
                      "delay": d}))
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
            if any(data["weight"] == 0 for _u, _v, data in edges)]
    succ: dict = {}
    pred: dict = {}
    built = 0
    for l, m, tid, edges in _inner_edges(zero):
        # corners are 0/1 vectors: int tuples hash far faster than Fractions
        pairs = [(tuple(map(int, c)), tuple(map(int, d)), data["weight"])
                 for (_l, c), (_m, d), data in edges]
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
        if not walk[0][0].startswith("__roll_"):
            return report
        first = first or report
    return first or AnzReport(ANZ, kappa=Fraction(1), cycles_checked=built)


def mark_green(rg: RegionGame, cp: CornerPointGraph) -> GreenMarking:
    """The locations and transitions on zero-weight corner cycles: the
    zero-weight edges inside a strongly connected component of the
    zero-weight corner graph."""
    zero = [(u, v, tid) for tid, edges in cp.by_tid.items()
            for u, v, data in edges if data["weight"] == 0]
    inner = _inner_edges(zero)
    return GreenMarking(frozenset(u[0] for u, _v, _t in inner),
                        frozenset(tid for _u, _v, tid in inner))


def fix_weight_zero(rg: RegionGame,
                    marking: GreenMarking) -> tuple[RegionGame, GreenMarking]:
    """Split every positive-weight green location so green cycling happens
    at rate 0; the original keeps its non-green exits behind a zero-delay
    hop.  Identity when all green locations already have weight 0."""
    game = rg.game
    locations = dict(game.locations)
    transitions = list(game.transitions)
    reg = dict(rg.reg)
    guard_region = dict(rg.guard_region)
    green_locs = set(marking.locations)
    green_tids = set(marking.transitions)
    for name in sorted(marking.locations):
        locobj = game.locations[name]
        if locobj.weight == 0:
            continue
        r = reg[name]
        if not r.zeros:
            raise StructuralError(
                f"green location {name} has no clock pinned at 0")
        green_out = [t for t in transitions
                     if t.src == name and t.tid in green_tids]
        if not any(any(g.op == "==" and g.bound == 0 for g in t.guards)
                   for t in green_out):
            raise StructuralError(
                f"green location {name} (weight {locobj.weight}) has no "
                f"green exit guarded at 0")
        twin = f"{name}~z0"
        locations[twin] = Location(twin, locobj.owner, weight=0,
                                   synthetic=True)
        reg[twin] = r
        out = []
        for t in transitions:
            src = twin if t.src == name and t.tid in green_tids else t.src
            tgt = twin if t.tgt == name else t.tgt
            if (src, tgt) != (t.src, t.tgt):
                t = Transition(t.tid, src, tgt, t.guards, t.resets,
                               t.weight, t.synthetic)
            out.append(t)
        transitions = out
        z = min(r.zeros)
        hop = Transition(f"__z0_{name}", twin, name,
                         guards=(Guard(z, "==", 0),), synthetic=True)
        transitions.append(hop)
        guard_region[hop.tid] = r
        green_locs.discard(name)
        green_locs.add(twin)
    initial = game.initial
    if f"{initial.location}~z0" in locations:
        initial = type(initial)(f"{initial.location}~z0", initial.valuation)
    game2 = type(game)(game.clocks, locations, transitions, initial)
    out_rg = RegionGame(game2, reg, guard_region, trimmed=rg.trimmed,
                        relaxed=rg.relaxed)
    return out_rg, GreenMarking(frozenset(green_locs), frozenset(green_tids))


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
    any finite value, counted over the part reachable from the initial
    location."""
    game = rg.game
    succ: dict = {}
    for t in game.transitions:
        succ.setdefault(t.src, []).append(t.tgt)
    reach = reachable(succ, [game.initial.location])
    max_loc = max((game.locations[n].weight for n in reach), default=0)
    max_tr = max((t.weight for t in game.transitions if t.src in reach),
                 default=0)
    w = Fraction(len(reach) * (max_loc + max_tr + 1))
    return Fraction(1), w
