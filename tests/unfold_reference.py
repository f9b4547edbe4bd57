"""References that ``tests/test_unfold.py`` checks ``unfold.value_functions``
against: the explicit semi-unfolding, solved children first, and the global
Jacobi sweep that evaluates the same unfolding level by level over every
location at once; the re-scanning attractor that
``unfold.check_finite_value`` is checked against; and the one-step delay
optimization with a separate guard-region case analysis for point sources
(:func:`_value_at_point`) and for 1-D ones (:func:`_value_on_segment`),
costing a triangle guard region as a function of both clocks over the
triangle, which ``unfold._one_step`` is checked against for every kind of
source, since it costs every move from one plan, whatever the source.  The
one-step reference composes its own copies of the PLF1 helpers that
``unfold`` used before it read every cost along one affine view, so it runs
none of the code it checks, and turns the int corners of the regions into
``Fraction`` points itself (``_corners``), since its polygon code divides."""
import math

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from kernel_reference import (PLF2, Segment, clip_halfplane,
                              dedupe_polygon, fiber_extremum, make_ccw,
                              max_value, min_value, polygon_area2, restrict2,
                              segments, triangulate)
from plf_reference import point
from wtgsolve.core import (INF, MIN, DomainError, ExtRat, StructuralError,
                           Transition, Valuation, frac, reset)
from wtgsolve.cycles import Kernel
from wtgsolve.plf import PLF1, eval1, running_extremum
from wtgsolve.regions import Region, RegionGame, infer_guard_region
from wtgsolve.unfold import (NodeValue, _kernel_values, _param_axis,
                             _solve_plain, check_finite_value, prepare)

PLAIN, KERNEL, GOAL, STOPPED = "plain", "kernel", "goal", "stopped"
ZERO, ONE = Fraction(0), Fraction(1)


@dataclass
class UnfoldNode:
    kind: str
    loc: str
    children: dict[str, "UnfoldNode"] = field(default_factory=dict)
    component: Optional[frozenset] = None

    def size(self) -> int:
        """Number of distinct nodes (subtrees are shared, so a DAG)."""
        seen, stack = set(), [self]
        while stack:
            n = stack.pop()
            if id(n) in seen:
                continue
            seen.add(id(n))
            stack.extend(n.children.values())
        return len(seen)

    def depth(self) -> int:
        """Longest root-to-leaf path."""
        memo: dict[int, int] = {}
        expanded = set()
        stack = [(self, False)]
        while stack:
            n, ready = stack.pop()
            if ready:
                memo[id(n)] = 1 + max((memo[id(c)]
                                       for c in n.children.values()),
                                      default=0)
                continue
            if id(n) in expanded:
                continue
            expanded.add(id(n))
            stack.append((n, True))
            stack.extend((c, False) for c in n.children.values())
        return memo[id(self)]


def semi_unfold(rg: RegionGame, kernel: Kernel, w_bound: Fraction,
                kappa: Fraction, extra_visits: int = 0,
                node_budget: int = 2_000_000) -> UnfoldNode:
    """Unfold the region game into a finite tree, collapsing kernel entries
    into kernel nodes, and cutting any branch once a positive-weight
    location or transition has been visited W/kappa + 2 times."""
    threshold = w_bound / kappa + 2 + extra_visits
    game = rg.game
    loc2comp = {l: comp for comp in kernel.components for l in comp}
    out_by_comp: dict[frozenset, list[Transition]] = {
        comp: [] for comp in kernel.components}
    for t in kernel.output_edges:
        out_by_comp[loc2comp[t.src]].append(t)
    outgoing: dict[str, list[Transition]] = {n: [] for n in game.locations}
    for t in game.transitions:
        outgoing[t.src].append(t)

    def bump(counters, key):
        n = counters.get(key, 0) + 1
        out = dict(counters)
        out[key] = n
        return out, n

    # Subtrees are a deterministic function of (location, visit counters),
    # so share them: the unfolding is built as a DAG keyed by that state.
    memo: dict[tuple, UnfoldNode] = {}
    holder: dict[str, UnfoldNode] = {}
    # stack entries: (location, counters, children-dict to fill, key)
    stack = [(game.initial.location, {}, holder, "root")]
    while stack:
        loc, counters, sink, key = stack.pop()
        state = (loc, frozenset(counters.items()))
        hit = memo.get(state)
        if hit is not None:
            sink[key] = hit
            continue
        if len(memo) >= node_budget:
            raise StructuralError("semi-unfolding exceeded the node budget")
        if game.locations[loc].is_goal:
            sink[key] = memo[state] = UnfoldNode(GOAL, loc)
            continue
        if game.locations[loc].weight > 0:
            counters, n = bump(counters, ("l", loc))
            if n >= threshold:
                sink[key] = memo[state] = UnfoldNode(STOPPED, loc)
                continue
        comp = loc2comp.get(loc)
        if comp is not None:
            node = UnfoldNode(KERNEL, loc, component=comp)
            edges = out_by_comp[comp]
        else:
            node = UnfoldNode(PLAIN, loc)
            edges = outgoing[loc]
        sink[key] = memo[state] = node
        for t in edges:
            c2 = counters
            if t.weight > 0:
                c2, n = bump(c2, ("t", t.tid))
                if n >= threshold:
                    node.children[t.tid] = UnfoldNode(STOPPED, t.tgt)
                    continue
            stack.append((t.tgt, c2, node.children, t.tid))
    return holder["root"]


def _solve_kernel(rg: RegionGame, node: UnfoldNode,
                  child_values: dict[str, NodeValue],
                  out_edges: list[Transition]) -> tuple[NodeValue, int]:
    values, steps = _kernel_values(rg, node.component, child_values,
                                   out_edges, {})
    return values[node.loc], steps


def solve_node(node: UnfoldNode, rg: RegionGame, kernel: Kernel,
               _stats: Optional[dict] = None) -> NodeValue:
    """Value function of an unfold node, children first (iterative
    postorder over the shared DAG)."""
    memo: dict[int, NodeValue] = {}
    expanded: set[int] = set()
    stack: list[tuple[UnfoldNode, bool]] = [(node, False)]
    while stack:
        n, ready = stack.pop()
        if n.kind == GOAL:
            memo[id(n)] = NodeValue(rg.reg.get(n.loc), PLF1.constant(0))
            continue
        if n.kind == STOPPED:
            memo[id(n)] = NodeValue(rg.reg.get(n.loc), PLF1.infinite())
            continue
        if not ready:
            if id(n) in expanded:
                continue
            expanded.add(id(n))
            stack.append((n, True))
            stack.extend((c, False) for c in n.children.values())
            continue
        child_values = {tid: memo[id(c)]
                        for tid, c in n.children.items()}
        if n.kind == KERNEL:
            out = [t for t in kernel.output_edges
                   if t.src in n.component]
            nv, steps = _solve_kernel(rg, n, child_values, out)
            if _stats is not None:
                _stats["vi_steps"] = max(_stats.get("vi_steps", 0), steps)
            memo[id(n)] = nv
        else:
            ts = [t for t in rg.game.transitions if t.src == n.loc]
            memo[id(n)] = _solve_plain(rg, n.loc, ts, child_values, {})
    return memo[id(node)]


def jacobi_value_functions(rg: RegionGame, kernel: Kernel, w_bound: Fraction,
                           kappa: Fraction, extra_visits: int = 0,
                           _stats: Optional[dict] = None
                           ) -> dict[str, NodeValue]:
    """Exact value function of every region-location, by global Jacobi
    sweeps: the reference that ``unfold.value_functions`` is checked
    against.

    This evaluates the semi-unfolding level by level with all equal-depth
    subtrees shared: one sweep applies the one-step delay optimization to
    every plain location and re-solves each zero-weight component against
    the current values behind its output edges.  Sweep values decrease
    monotonically from +infinity and, because every cycle outside the
    components costs at least ``kappa``, they reach the unfolding's exact
    root value within (#positive elements * (W/kappa + 2) + 1) * (|L| + 1)
    sweeps -- the maximum depth of the counter-cut unfolding -- so iteration
    stops at stabilization or at that bound, whichever comes first."""
    game = rg.game
    threshold = w_bound / kappa + 2 + extra_visits
    npos = (sum(1 for l in game.locations.values() if l.weight > 0)
            + sum(1 for t in game.transitions if t.weight > 0))
    max_sweeps = math.ceil((npos * threshold + 1) * (len(game.locations) + 1))
    out_by_comp = {comp: [] for comp in kernel.components}
    loc2comp = {l: comp for comp in kernel.components for l in comp}
    for t in kernel.output_edges:
        out_by_comp[loc2comp[t.src]].append(t)
    outgoing: dict[str, list[Transition]] = {n: [] for n in game.locations}
    for t in game.transitions:
        outgoing[t.src].append(t)

    values = {n: NodeValue(rg.reg[n], PLF1.constant(0) if l.is_goal
                           else PLF1.infinite())
              for n, l in game.locations.items()}
    sweeps = 0
    for _ in range(max_sweeps):
        nxt = dict(values)
        for comp, out in out_by_comp.items():
            child = {t.tid: values[t.tgt] for t in out}
            kv, steps = _kernel_values(rg, comp, child, out, {})
            nxt.update(kv)
            if _stats is not None:
                _stats["vi_steps"] = max(_stats.get("vi_steps", 0), steps)
        for n, l in game.locations.items():
            if l.is_goal or n in loc2comp:
                continue
            child = {t.tid: values[t.tgt] for t in outgoing[n]}
            nxt[n] = _solve_plain(rg, n, outgoing[n], child, {})
        sweeps += 1
        if nxt == values:
            break
        values = nxt
    if _stats is not None:
        _stats["sweeps"] = sweeps
    return values


def deeper_root_value(game, extra_visits: int = 1):
    """Root value of the game when the unfolding allows ``extra_visits``
    more visits per positive element than ``unfold.solve`` does."""
    prep = prepare(game)
    rg = prep.rg
    if not check_finite_value(rg):
        return INF
    values = jacobi_value_functions(rg, prep.kernel, prep.w_bound,
                                    prep.kappa, extra_visits=extra_visits)
    return values[rg.game.initial.location].eval(rg.game.initial.valuation)


def rescan_finite_value(rg: RegionGame) -> bool:
    """True iff Min can force reaching a goal location from the initial
    region-location: the backward attractor, re-scanning every location
    until nothing changes."""
    game = rg.game
    succ: dict[str, list[str]] = {n: [] for n in game.locations}
    for t in game.transitions:
        succ[t.src].append(t.tgt)
    attr = {n for n, l in game.locations.items() if l.is_goal}
    changed = True
    while changed:
        changed = False
        for n, loc in game.locations.items():
            if n in attr or loc.is_goal or not succ[n]:
                continue
            if loc.owner == MIN:
                ok = any(m in attr for m in succ[n])
            else:
                ok = all(m in attr for m in succ[n])
            if ok:
                attr.add(n)
                changed = True
    return game.initial.location in attr


# -- the PLF1 manipulations that the one-step reference composes ------------

def _reparam(f: PLF1, u0: Fraction, u1: Fraction) -> PLF1:
    """g(s) = f(u0 + s*(u1 - u0)) over s in [0, 1]."""
    if f.is_infinite:
        return f
    if u0 == u1:
        return PLF1.constant(eval1(f, u0))
    pts = {ZERO: eval1(f, u0), ONE: eval1(f, u1)}
    for x, y in f.points:
        s = (x - u0) / (u1 - u0)
        if 0 < s < 1:
            pts[s] = y
    return PLF1(tuple(sorted(pts.items())))


def _map_domain(f: PLF1, x0: Fraction, x1: Fraction) -> PLF1:
    """Affinely stretch the domain of ``f`` from [lo, hi] onto [x0, x1]."""
    if f.is_infinite or f.is_point:
        return f
    lo, hi = f.lo, f.hi
    scale = (x1 - x0) / (hi - lo)
    return PLF1(tuple((x0 + (x - lo) * scale, y) for x, y in f.points))


def _add_affine(f: PLF1, slope, intercept) -> PLF1:
    if f.is_infinite:
        return f
    m, q = frac(slope), frac(intercept)
    return PLF1(tuple((x, y + m * x + q) for x, y in f.points))


def _ext_on(f: PLF1, lo: Fraction, hi: Fraction, direction: str) -> ExtRat:
    """Extremum of ``f`` over [lo, hi] (must meet the domain)."""
    if f.is_infinite:
        return INF
    lo, hi = max(lo, f.lo), min(hi, f.hi)
    if lo > hi:
        raise DomainError("extremum over an empty interval")
    vals = [eval1(f, lo), eval1(f, hi)]
    vals += [y for x, y in f.points if lo < x < hi]
    return min(vals) if direction == "inf" else max(vals)


def _fire_plf1(t: Transition, child: NodeValue, a: Valuation,
               b: Valuation) -> PLF1:
    """Cost-to-go after firing ``t`` at p(s) = a + s*(b-a), s in [0, 1],
    as a PLF1 in s (transition weight included)."""
    if child.is_infinite:
        return PLF1.infinite()
    i = _param_axis(child.region)
    u0 = reset(a, t.resets)[i]
    u1 = reset(b, t.resets)[i]
    return _add_affine(_reparam(child.plf, u0, u1), ZERO, t.weight)


def _suffix_profile(h: PLF1, direction: str) -> PLF1:
    """g(xi0) = ext of h over [xi0, 1] for xi0 in [0, 1]; h lives on a
    sub-interval of [0, 1] whose upper end must reach 1."""
    if h.is_infinite:
        return h
    if h.is_point:
        x, v = h.points[0]
        if x != ONE:
            raise StructuralError(
                "transition feasible on only part of its source region")
        return PLF1.constant(v)
    if h.hi != ONE:
        raise StructuralError(
            "transition feasible on only part of its source region")
    sfx = running_extremum(h, "suffix", direction)
    pts = list(sfx.points)
    if sfx.lo > ZERO:
        pts = [(ZERO, pts[0][1])] + pts
    return PLF1(tuple(pts))


def _corners(r: Region) -> tuple[Valuation, ...]:
    """The int corners of ``r`` as ``Fraction`` points, in their order: the
    geometry below divides."""
    return tuple(tuple(map(Fraction, c)) for c in r.corners())


def _sorted_corners(r: Region) -> list[Valuation]:
    return sorted(_corners(r))


def _polygon(r: Region):
    return make_ccw(dedupe_polygon(_corners(r)))


def _fire_plf2(t: Transition, child: NodeValue, poly) -> PLF2:
    """Cost-to-go after firing ``t`` anywhere in the guard polygon."""
    if child.is_infinite:
        return PLF2.infinite(poly)
    i = _param_axis(child.region)
    if i in t.resets:
        return PLF2.affine(poly, (ZERO, ZERO,
                                  eval1(child.plf, ZERO) + t.weight))
    cells = []
    for u1, u2, slope, icept in segments(child.plf):
        piece = poly
        # clip to u1 <= p[i] <= u2
        ax, ay = (ONE, ZERO) if i == 0 else (ZERO, ONE)
        piece = clip_halfplane(piece, -ax, -ay, -u1)
        piece = clip_halfplane(piece, ax, ay, u2)
        if len(piece) < 3 or polygon_area2(piece) <= 0:
            continue
        coef = ((slope, ZERO, icept + t.weight) if i == 0
                else (ZERO, slope, icept + t.weight))
        for tri in triangulate(piece):
            cells.append((tri, coef))
    if not cells:
        raise DomainError(f"{t.tid}: guard region escapes the child domain")
    return PLF2(tuple(cells))


def _fiber_range(poly, c0: Fraction):
    """[xi_min, xi_max] of the polygon's intersection with y = x + c0."""
    xs = []
    n = len(poly)
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        fp = p[1] - p[0] - c0
        fq = q[1] - q[0] - c0
        if fp == 0:
            xs.append(p[0])
        if fp * fq < 0:
            xs.append(p[0] + (q[0] - p[0]) * fp / (fp - fq))
    if not xs:
        return None
    return min(xs), max(xs)


def _value_at_point(rg: RegionGame, t: Transition, child: NodeValue,
                    nu: Valuation, direction: str) -> Optional[PLF1]:
    """ext over {delay d >= 0 : nu + d inside the closed guard region} of
    d*w(src) + w(t) + child(reset(nu + d)), as a point PLF1 at nu's x;
    None when no delay fits."""
    nu = tuple(map(Fraction, nu))  # a region corner is an int point
    value = _point_value(rg, t, child, nu, direction)
    if value is None:
        return None
    return PLF1.infinite() if value == INF else point(value, x=nu[0])


def _point_value(rg: RegionGame, t: Transition, child: NodeValue,
                 nu: Valuation, direction: str) -> Optional[ExtRat]:
    """The extremum of :func:`_value_at_point` as a number."""
    if child.is_infinite:
        return INF
    w0 = rg.game.locations[t.src].weight
    gr = infer_guard_region(rg, t)
    c0 = nu[1] - nu[0]
    xi0 = nu[0]
    corners = _sorted_corners(gr)
    if gr.dim == 0:
        p0 = corners[0]
        if p0[1] - p0[0] != c0 or p0[0] < xi0:
            return None
        return child.eval(reset(p0, t.resets)) + t.weight + w0 * (p0[0] - xi0)
    if gr.dim == 1:
        a, b = corners
        f1 = _fire_plf1(t, child, a, b)
        dxp, dcp = b[0] - a[0], (b[1] - a[1]) - (b[0] - a[0])
        if dcp == 0:  # guard segment parallel to the flow
            if a[1] - a[0] != c0:
                return None
            obj = _add_affine(f1, w0 * dxp, w0 * (a[0] - xi0))
            lo = max(ZERO, (xi0 - a[0]) / dxp)
            if lo > 1:
                return None
            return _ext_on(obj, lo, ONE, direction)
        s = (c0 - (a[1] - a[0])) / dcp
        if not 0 <= s <= 1:
            return None
        xi = a[0] + s * dxp
        if xi < xi0:
            return None
        return eval1(f1, s) + w0 * (xi - xi0)
    poly = _polygon(gr)
    span = _fiber_range(poly, c0)
    if span is None:
        return None
    xa, xb = max(span[0], xi0), span[1]
    if xa > xb:
        return None
    f2 = _fire_plf2(t, child, poly)
    if xa == xb:
        return f2.eval2((xa, xa + c0)) + w0 * (xa - xi0)
    h = restrict2(f2, Segment((xa, xa + c0), (xb, xb + c0)))
    obj = _add_affine(h, w0 * (xb - xa), w0 * (xa - xi0))
    return min_value(obj) if direction == "inf" else max_value(obj)


def _value_on_segment(rg: RegionGame, t: Transition, child: NodeValue,
                      src: Region, direction: str) -> PLF1:
    """Contribution of ``t`` over a 1-D source region, as a PLF1 in the
    region's free coordinate."""
    if child.is_infinite:
        return PLF1.infinite()
    w0 = rg.game.locations[t.src].weight
    gr = infer_guard_region(rg, t)
    a, b = _sorted_corners(src)
    dx, dy = b[0] - a[0], b[1] - a[1]
    gcorners = _sorted_corners(gr)
    if dx == dy:  # diagonal source: every point shares the flow line c = 0
        if gr.dim == 0:
            p0 = gcorners[0]
            if p0[1] != p0[0]:
                raise StructuralError(f"{t.tid}: guard corner off the flow")
            h = point(
                child.eval(reset(p0, t.resets)) + t.weight + w0 * p0[0],
                x=p0[0])
        elif gr.dim == 1:
            ga, gb = gcorners
            f1 = _fire_plf1(t, child, ga, gb)
            if gb[0] - ga[0] == gb[1] - ga[1]:  # diagonal guard segment
                if ga[1] != ga[0]:
                    raise StructuralError(f"{t.tid}: guard off the flow line")
                h = _add_affine(_map_domain(f1, ga[0], gb[0]), w0, ZERO)
            else:
                dcp = (gb[1] - ga[1]) - (gb[0] - ga[0])
                s = (ga[0] - ga[1]) / dcp
                if not 0 <= s <= 1:
                    raise StructuralError(f"{t.tid}: guard misses the flow")
                xi = ga[0] + s * (gb[0] - ga[0])
                h = point(eval1(f1, s) + w0 * xi, x=xi)
        else:
            poly = _polygon(gr)
            span = _fiber_range(poly, ZERO)
            if span is None:
                raise StructuralError(f"{t.tid}: guard misses the flow")
            xa, xb = span
            f2 = _fire_plf2(t, child, poly)
            if xa == xb:
                h = point(f2.eval2((xa, xa)) + w0 * xa, x=xa)
            else:
                h = restrict2(f2, Segment((xa, xa), (xb, xb)))
                h = _add_affine(_map_domain(h, xa, xb), w0, ZERO)
        return _add_affine(_suffix_profile(h, direction), -w0, ZERO)

    # Non-diagonal 1-D source: each point lies on its own flow line, and the
    # closed guard region sits forward in time on all of them, so the d >= 0
    # constraint is vacuous.
    c_a, c_b = a[1] - a[0], b[1] - b[0]
    if gr.dim == 0:
        raise StructuralError(
            f"{t.tid}: point guard region from a sliding source")
    if gr.dim == 1:
        ga, gb = gcorners
        dcp = (gb[1] - ga[1]) - (gb[0] - ga[0])
        if dcp == 0:
            raise StructuralError(
                f"{t.tid}: diagonal guard from a sliding source")
        f1 = _fire_plf1(t, child, ga, gb)
        s0 = (c_a - (ga[1] - ga[0])) / dcp
        s1 = (c_b - (ga[1] - ga[0])) / dcp
        g = _reparam(f1, s0, s1)
        gdx = gb[0] - ga[0]
        xi_slope = (s1 - s0) * gdx - dx
        xi_const = ga[0] + s0 * gdx - a[0]
        return _add_affine(g, w0 * xi_slope, w0 * xi_const)
    poly = _polygon(gr)
    f2 = _fire_plf2(t, child, poly)
    if f2.is_infinite:
        return PLF1.infinite()
    # coordinates (c, xi) = (y - x, x): extremum over each flow line
    cells = []
    for tri, (ca, cb, cc) in f2.cells:
        tri2 = make_ccw(tuple((p[1] - p[0], p[0]) for p in tri))
        if len(tri2) < 3:
            continue
        cells.append((tri2, (cb, ca + cb + w0, cc)))
    gc = fiber_extremum(PLF2(tuple(cells)), direction)
    g = _reparam(gc, c_a, c_b)
    return _add_affine(g, -w0 * dx, -w0 * a[0])
