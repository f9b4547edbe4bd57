"""References for the corner-point abstraction and the almost-non-Zeno
check.

``build_corner_point`` is the corner-point construction the solver used
before it read corner moves from the region table: it turns the int
corners of each transition's regions into ``Fraction`` valuations and
finds the uniform delays between them.
``wtgsolve.cycles.build_corner_point`` must give the same edges, in the
same order, with the same weights.

``enumerate_almost_non_zeno`` is the check the solver used before it
searched the corner-path product (``wtgsolve.cycles.check_almost_non_zeno``).
It enumerates every simple location cycle of the region game, branches on
parallel transitions, and compares the corner paths that leave and re-enter
the cycle's first location at the same corner.  It is exponential in the
size of the game and misses the cycles whose zero-weight and positive
corner paths do not close at their start corner, so it serves only as a
cross-check: whenever it reports a violation, the product search must
report one too.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional

import networkx as nx

from wtgsolve.core import StructuralError, Valuation
from wtgsolve.cycles import ANZ, VIOLATION, AnzReport, CornerPointGraph
from wtgsolve.regions import Region, RegionGame, infer_guard_region

BUDGET_EXCEEDED = "budget-exceeded"


def _uniform_delay(c: Valuation, c2: Valuation) -> Optional[int]:
    diffs = {b - a for a, b in zip(c, c2)}
    if len(diffs) == 1:
        d = diffs.pop()
        if d in (0, 1):
            return int(d)
    return None


def _corners(r: Region) -> list[Valuation]:
    return [tuple(map(Fraction, c)) for c in r.corners()]


def build_corner_point(rg: RegionGame) -> CornerPointGraph:
    if not rg.trimmed:
        raise StructuralError("corner-point abstraction needs a trimmed game")
    game = rg.game
    by_tid: dict[str, list] = {}
    for t in game.transitions:
        fire = infer_guard_region(rg, t)
        landing = _corners(rg.reg[t.tgt])
        w_loc = game.locations[t.src].weight
        for c in _corners(rg.reg[t.src]):
            for c2 in _corners(fire):
                d = _uniform_delay(c, c2)
                if d is None:
                    continue
                landed = tuple(Fraction(0) if i in t.resets else v
                               for i, v in enumerate(c2))
                if landed not in landing:
                    raise StructuralError(
                        f"corner {landed} off the target region of {t.tid}")
                by_tid.setdefault(t.tid, []).append(
                    ((t.src, c), (t.tgt, landed), d * w_loc + t.weight))
    return CornerPointGraph(rg, by_tid)


def _location_digraph(cp: CornerPointGraph) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(cp.rg.game.locations)
    for t in cp.rg.game.transitions:
        if cp.by_tid.get(t.tid, []):
            g.add_edge(t.src, t.tgt)
    return g


def _cycle_weight_range(cp: CornerPointGraph,
                        cycle: list[str]) -> Optional[tuple[int, int]]:
    """Min and max corner-path weight around a region-location cycle, or
    None when no corner realization exists."""
    rg = cp.rg
    tmap = rg.game.transition_map()
    start = tmap[cycle[0]].src
    best: Optional[tuple[int, int]] = None
    for c0 in rg.reg[start].corners():
        # (corner -> (min, max)) weight of partial corner paths
        front = {(start, c0): (0, 0)}
        for tid in cycle:
            nxt: dict = {}
            for node, (lo, hi) in front.items():
                for u, v, w in cp.by_tid.get(tid, []):
                    if u != node:
                        continue
                    cur = nxt.get(v)
                    if cur is None:
                        nxt[v] = (lo + w, hi + w)
                    else:
                        nxt[v] = (min(cur[0], lo + w), max(cur[1], hi + w))
            front = nxt
            if not front:
                break
        closed = front.get((start, c0))
        if closed is None:
            continue
        if best is None:
            best = closed
        else:
            best = (min(best[0], closed[0]), max(best[1], closed[1]))
    return best


def _edge_choices(cp: CornerPointGraph, ring: list[str]):
    """Transition-id tuples realizing a node cycle (parallel edges branch)."""
    per_hop = []
    for u, v in zip(ring, ring[1:]):
        tids = sorted({t.tid for t in cp.rg.game.outgoing(u)
                       if t.tgt == v and cp.by_tid.get(t.tid, [])})
        per_hop.append(tids)
    out = [[]]
    for tids in per_hop:
        out = [acc + [tid] for acc in out for tid in tids]
    return out


def enumerate_almost_non_zeno(cp: CornerPointGraph,
                              budget: int = 10 ** 6) -> AnzReport:
    """Every simple region cycle must weigh 0 on all corners or >= 1 on all
    of them; gives up with ``BUDGET_EXCEEDED`` after ``budget`` cycles."""
    count = 0
    for cycle_nodes in nx.simple_cycles(_location_digraph(cp)):
        count += 1
        if count > budget:
            return AnzReport(BUDGET_EXCEEDED, cycles_checked=count - 1)
        ring = cycle_nodes + [cycle_nodes[0]]
        for tids in _edge_choices(cp, ring):
            rng = _cycle_weight_range(cp, tids)
            if rng is None:
                continue
            lo, hi = rng
            if lo == 0 and hi > 0:
                return AnzReport(VIOLATION, witness=tids,
                                 witness_weights=rng, cycles_checked=count)
    return AnzReport(ANZ, cycles_checked=count)
