"""End-to-end exact solver: the pipeline and its value computation.

The pipeline turns a raw two-clock game into a [0,1)-region game where every
transition resets a clock, certifies that every cycle has weight zero or at
least one, and collapses the zero-weight strongly connected components into
kernels.  :func:`value_functions` then evaluates the semi-unfolding of the
rest one strongly connected component at a time, successors first: plain
locations by exact one-step delay optimization over piecewise linear
successor values, kernels by value iteration (:mod:`.kernelvi`).
:func:`solve` is the one entry point that both the library and the CLI call.
"""

import math

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .core import (MIN, GameError, InputError, StructuralError,
                   DomainError, Transition, Valuation, WeightedTimedGame,
                   frac, frac_str, reset)
from .geometry import (clip_halfplane, dedupe_polygon, make_ccw,
                       polygon_area2, triangulate)
from .graphs import strongly_connected_components
from .plf import (ONE, ZERO, PLF1, PLF2, Segment, canonicalize, eval1,
                  pointwise_extremum, restrict2, fiber_extremum,
                  running_extremum)
from .regions import (Region, RegionGame, add_resets, build_region_wtg,
                      drop_dead_rolls, feasibility_counts, max_traps,
                      normalize_01, prune_unreachable, relax,
                      reset_feasibility_cache, restrict, trim)
from .cycles import (ANZ, AnzReport, Kernel, build_corner_point,
                     check_almost_non_zeno, compute_bounds, extract_kernel,
                     fix_weight_zero, mark_green)
from .kernelvi import (ON_X, ON_Y, POINT, UNIT_SQUARE, KernelGame,
                       OutputValue, iterate, value_at)

INF = float("inf")
ExtValue = Union[Fraction, float]


class MoreThanTwoClocks(InputError):
    """The exact solver handles exactly two clocks."""


class NotAlmostNonZeno(GameError):
    """Some region cycle has runs of weight strictly between 0 and 1: one
    of its corner paths weighs 0 and another more.  The check is complete,
    so this is a verdict on the game, not a search that gave up."""

    def __init__(self, report: AnzReport):
        self.report = report
        msg = f"not certified almost non-Zeno: {report.verdict}"
        if report.witness:
            lo, hi = report.witness_weights
            msg += (f" (witness cycle {' -> '.join(report.witness)}, "
                    f"corner weights {lo} and {hi})")
        super().__init__(msg)


# ---------------------------------------------------------------------------
# Node values: exact value functions over a region closure
# ---------------------------------------------------------------------------

@dataclass
class NodeValue:
    """Value function on the closure of a region-location's region.

    ``const`` holds the value for 0-dimensional regions (and for the one
    node that is only ever evaluated at a single anchor point: a root whose
    region is 2-dimensional).  ``plf`` holds a PLF1 over [0, 1] in the
    region's free coordinate for 1-dimensional regions.
    """

    region: Region
    const: Optional[ExtValue] = None
    plf: Optional[PLF1] = None
    anchor: Optional[Valuation] = None

    @classmethod
    def constant(cls, region: Region, value) -> "NodeValue":
        return cls(region, const=value if value == INF else frac(value))

    @classmethod
    def infinite(cls, region: Region) -> "NodeValue":
        return cls(region, const=INF)

    @classmethod
    def line(cls, region: Region, f: PLF1) -> "NodeValue":
        if f.is_infinite:
            return cls.infinite(region)
        return cls(region, plf=canonicalize(f))

    @property
    def is_infinite(self) -> bool:
        return self.const == INF

    def eval(self, v: Valuation) -> ExtValue:
        if self.const is not None:
            if self.anchor is not None and tuple(v) != tuple(self.anchor):
                raise DomainError("value known only at the anchor point")
            return self.const
        return eval1(self.plf, v[_param_axis(self.region)])


def _param_axis(r: Region) -> int:
    """The free coordinate of a 1-D region (x for the diagonal)."""
    if 0 in r.zeros:
        return 1
    return 0


def _sorted_corners(r: Region) -> list[Valuation]:
    return sorted(r.corners())


def _polygon(r: Region):
    return make_ccw(dedupe_polygon(r.corners()))


# ---------------------------------------------------------------------------
# Small PLF1 manipulations
# ---------------------------------------------------------------------------

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


def _ext_on(f: PLF1, lo: Fraction, hi: Fraction, direction: str) -> ExtValue:
    """Extremum of ``f`` over [lo, hi] (must meet the domain)."""
    if f.is_infinite:
        return INF
    lo, hi = max(lo, f.lo), min(hi, f.hi)
    if lo > hi:
        raise DomainError("extremum over an empty interval")
    vals = [eval1(f, lo), eval1(f, hi)]
    vals += [y for x, y in f.points if lo < x < hi]
    return min(vals) if direction == "inf" else max(vals)


# ---------------------------------------------------------------------------
# One transition: value contribution over the source region closure
# ---------------------------------------------------------------------------

def _fire_plf1(t: Transition, child: NodeValue, a: Valuation,
               b: Valuation) -> PLF1:
    """Cost-to-go after firing ``t`` at p(s) = a + s*(b-a), s in [0, 1],
    as a PLF1 in s (transition weight included)."""
    if child.is_infinite:
        return PLF1.infinite()
    if child.const is not None:
        return PLF1.constant(child.const + t.weight)
    i = _param_axis(child.region)
    u0 = reset(a, t.resets)[i]
    u1 = reset(b, t.resets)[i]
    return _reparam(child.plf, u0, u1).shift(t.weight)


def _fire_plf2(t: Transition, child: NodeValue, poly) -> PLF2:
    """Cost-to-go after firing ``t`` anywhere in the guard polygon."""
    if child.is_infinite:
        return PLF2.infinite(poly)
    if child.const is not None:
        return PLF2.affine(poly, (ZERO, ZERO, child.const + t.weight))
    i = _param_axis(child.region)
    if i in t.resets:
        return PLF2.affine(poly, (ZERO, ZERO,
                                  eval1(child.plf, ZERO) + t.weight))
    cells = []
    for u1, u2, slope, icept in child.plf.segments():
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
                    nu: Valuation, direction: str) -> Optional[ExtValue]:
    """ext over {delay d >= 0 : nu + d inside the closed guard region} of
    d*w(src) + w(t) + child(reset(nu + d)); None when no delay fits."""
    if child.is_infinite:
        return INF
    w0 = rg.game.locations[t.src].weight
    gr = rg.guard_region[t.tid]
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
    return obj.min_value() if direction == "inf" else obj.max_value()


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


def _value_on_segment(rg: RegionGame, t: Transition, child: NodeValue,
                      src: Region, direction: str) -> PLF1:
    """Contribution of ``t`` over a 1-D source region, as a PLF1 in the
    region's free coordinate."""
    if child.is_infinite:
        return PLF1.infinite()
    w0 = rg.game.locations[t.src].weight
    gr = rg.guard_region[t.tid]
    a, b = _sorted_corners(src)
    dx, dy = b[0] - a[0], b[1] - a[1]
    gcorners = _sorted_corners(gr)
    if dx == dy:  # diagonal source: every point shares the flow line c = 0
        if gr.dim == 0:
            p0 = gcorners[0]
            if p0[1] != p0[0]:
                raise StructuralError(f"{t.tid}: guard corner off the flow")
            h = PLF1.point(
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
                h = PLF1.point(eval1(f1, s) + w0 * xi, x=xi)
        else:
            poly = _polygon(gr)
            span = _fiber_range(poly, ZERO)
            if span is None:
                raise StructuralError(f"{t.tid}: guard misses the flow")
            xa, xb = span
            f2 = _fire_plf2(t, child, poly)
            if xa == xb:
                h = PLF1.point(f2.eval2((xa, xa)) + w0 * xa, x=xa)
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


# ---------------------------------------------------------------------------
# Reachability: can Min force the goal at all?
# ---------------------------------------------------------------------------

def prune_max_traps(rg: RegionGame) -> RegionGame:
    """Cut the outgoing edges of Max locations that can reach a cycle of
    Max-owned locations.

    From such a location Max keeps the play inside its own locations
    forever, so the value is +infinity; stripping the outgoing edges turns
    it into a blocked state, which the solver already values +infinity.
    Min-owned predecessors keep their edges into these traps (taking one is
    simply a bad move), and no Max-owned location outside the set has an
    edge into it, so no other value changes."""
    game = rg.game
    trapped = max_traps(game)
    if not trapped:
        return rg
    return restrict(rg, game.locations,
                    [t.tid for t in game.transitions if t.src not in trapped])


def prune_dead_rolls(rg: RegionGame) -> RegionGame:
    """Drop the rollovers that trimming left dead: it may have removed real
    transitions that :func:`normalize_01` counted on when it kept them (see
    :func:`regions.drop_dead_rolls`)."""
    game = rg.game
    transitions = drop_dead_rolls(game.transitions, game.locations)
    if len(transitions) == len(game.transitions):
        return rg
    return restrict(rg, game.locations, [t.tid for t in transitions])


def check_finite_value(rg: RegionGame) -> bool:
    """True iff Min can force reaching a goal location from the initial
    region-location (backward attractor on the region graph)."""
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


# ---------------------------------------------------------------------------
# Bottom-up solving
# ---------------------------------------------------------------------------

def _to_output(child: NodeValue, t: Transition) -> OutputValue:
    if child.is_infinite:
        return OutputValue(PLF2.infinite(UNIT_SQUARE))
    if child.const is not None:
        return OutputValue.constant(child.const + t.weight)
    f = child.plf.shift(t.weight)
    return OutputValue.on_x(f) if _param_axis(child.region) == 0 \
        else OutputValue.on_y(f)


def _shape_of(r: Region) -> str:
    if r.dim == 0:
        return POINT
    if 0 in r.zeros:
        return ON_Y
    if 1 in r.zeros:
        return ON_X
    raise StructuralError("kernel location not pinned to a clock axis")


def _kernel_values(rg: RegionGame, comp: frozenset,
                   child_values: dict[str, NodeValue],
                   out_edges: list[Transition],
                   k_cap: int) -> tuple[dict[str, NodeValue], int]:
    """Solve one zero-weight component given the values behind its output
    edges; returns the entrance value of every member location."""
    game = rg.game
    locations = {n: game.locations[n] for n in comp}
    shapes = {n: _shape_of(rg.reg[n]) for n in comp}
    out_tids = {t.tid for t in out_edges}
    transitions = []
    w_out: dict[str, OutputValue] = {}
    for t in game.transitions:
        if t.src not in comp:
            continue
        if t.tid in out_tids:
            goal = f"exit::{t.tid}"
            locations[goal] = type(game.locations[t.src])(
                goal, MIN, is_goal=True, synthetic=True)
            w_out[goal] = _to_output(child_values[t.tid], t)
            transitions.append(Transition(t.tid, t.src, goal, t.guards,
                                          t.resets, 0, t.synthetic))
        elif t.tgt in comp:
            transitions.append(t)
    kg = KernelGame(locations, transitions, shapes, w_out, next(iter(comp)))
    res = iterate(kg, k_cap=k_cap)
    values: dict[str, NodeValue] = {}
    for n in comp:
        r = rg.reg[n]
        f = res.functions[n]
        if shapes[n] == POINT:
            val = INF if f.is_infinite else value_at(res, n, r.corners()[0])
            values[n] = NodeValue.constant(r, val)
        elif f.is_infinite:
            values[n] = NodeValue.infinite(r)
        elif shapes[n] == ON_X:  # node parameter is x, kernel's is 1 - x
            values[n] = NodeValue.line(r, f.reversed_domain())
        else:
            values[n] = NodeValue.line(r, f)
    return values, res.steps


def _solve_plain(rg: RegionGame, loc_name: str,
                 child_values: dict[str, NodeValue]) -> NodeValue:
    game = rg.game
    loc = game.locations[loc_name]
    r = rg.reg[loc_name]
    direction = "inf" if loc.owner == MIN else "sup"
    ts = {t.tid: t for t in game.transitions if t.src == loc_name}
    if not ts:
        return NodeValue.infinite(r)
    if r.dim == 1:
        fs = [_value_on_segment(rg, t, child_values[tid], r, direction)
              for tid, t in ts.items()]
        return NodeValue.line(r, pointwise_extremum(fs, direction))
    if r.dim == 0:
        nu = r.corners()[0]
        anchor = None
    else:
        # 2-D source region: only the root can carry one (every transition
        # resets a clock), so the value is only ever needed at the initial
        # valuation.
        nu = game.initial.valuation
        anchor = nu
    vals = [v for t in ts.values()
            for v in [_value_at_point(rg, t, child_values[t.tid], nu,
                                      direction)]
            if v is not None]
    if not vals:
        return NodeValue.infinite(r)
    best = min(vals) if direction == "inf" else max(vals)
    out = NodeValue.constant(r, best) if best != INF else NodeValue.infinite(r)
    out.anchor = anchor
    return out


def value_functions(rg: RegionGame, kernel: Kernel, w_bound: Fraction,
                    kappa: Fraction, k_cap: int = 10000,
                    extra_visits: int = 0,
                    _stats: Optional[dict] = None) -> dict[str, NodeValue]:
    """Exact value function of every region-location.

    This evaluates the semi-unfolding with all equal-depth subtrees
    shared.  A unit is a zero-weight component, solved by value
    iteration against the values behind its output edges, or a plain
    location, solved by the one-step delay optimization.  Units are visited
    by strongly connected component, successors first: an acyclic unit is
    solved once against final values, and a cyclic one runs Jacobi sweeps
    over its members, recomputing a member only when the value of one of its
    successors changed in the previous sweep.  Sweep values decrease
    monotonically from +infinity and, because every cycle outside the
    components costs at least ``kappa``, they reach the unfolding's exact
    root value within (#positive elements * (W/kappa + 2) + 1) * (|L| + 1)
    sweeps -- the maximum depth of the counter-cut unfolding -- so each
    cyclic component stops at stabilization or at that bound, whichever
    comes first.  ``sweeps`` in ``_stats`` is the most any component took."""
    game = rg.game
    threshold = w_bound / kappa + 2 + extra_visits
    npos = (sum(1 for l in game.locations.values() if l.weight > 0)
            + sum(1 for t in game.transitions if t.weight > 0))
    max_sweeps = math.ceil((npos * threshold + 1) * (len(game.locations) + 1))
    loc2comp = {l: comp for comp in kernel.components for l in comp}
    edges: dict = {comp: [] for comp in kernel.components}
    for t in kernel.output_edges:
        edges[loc2comp[t.src]].append(t)
    for n, l in game.locations.items():
        if not l.is_goal and n not in loc2comp:
            edges[n] = []
    for t in game.transitions:
        if t.src in edges:
            edges[t.src].append(t)
    succ: dict = {u: set() for u in edges}
    pred: dict = {u: set() for u in edges}
    for u, ts in edges.items():
        for t in ts:
            if not game.locations[t.tgt].is_goal:
                v = loc2comp.get(t.tgt, t.tgt)
                succ[u].add(v)
                pred[v].add(u)

    values = {n: (NodeValue.constant(rg.reg[n], 0) if l.is_goal
                  else NodeValue.infinite(rg.reg[n]))
              for n, l in game.locations.items()}

    def solve_unit(u) -> dict[str, NodeValue]:
        child = {t.tid: values[t.tgt] for t in edges[u]}
        if isinstance(u, str):
            return {u: _solve_plain(rg, u, child)}
        kv, steps = _kernel_values(rg, u, child, edges[u], k_cap)
        if _stats is not None:
            _stats["vi_steps"] = max(_stats.get("vi_steps", 0), steps)
        return kv

    most = 0
    for scc in strongly_connected_components(succ):
        if len(scc) == 1 and scc[0] not in succ[scc[0]]:
            values.update(solve_unit(scc[0]))
            most = max(most, 1)
            continue
        todo = members = set(scc)
        for sweep in range(1, max_sweeps + 1):
            nxt = {}
            for u in todo:
                nxt.update(solve_unit(u))
            changed = [n for n, nv in nxt.items() if values[n] != nv]
            values.update(nxt)
            if not changed:
                break
            todo = {u for n in changed
                    for u in pred[loc2comp.get(n, n)]} & members
        most = max(most, sweep)
    if _stats is not None:
        _stats["sweeps"] = most
    return values


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------

@dataclass
class Prepared:
    """Everything the solver derives before unfolding."""

    rg: RegionGame
    kernel: Kernel
    anz: AnzReport
    kappa: Fraction
    w_bound: Fraction
    feasibility_calls: int = 0     # calls of the two feasibility predicates
    feasibility_distinct: int = 0  # of which distinct, each one FM run


@dataclass
class Verdict:
    value: ExtValue
    threshold: Optional[Fraction] = None
    decision: Optional[str] = None  # "at-most" | "exceeds"
    sweeps: int = 0  # the most sweeps any SCC of units took
    vi_steps: int = 0
    prepared: Optional[Prepared] = None
    # value function per region-location; empty when Min cannot force a goal
    values: dict[str, NodeValue] = field(default_factory=dict)

    def __str__(self):
        out = f"value = {frac_str(self.value)}"
        if self.threshold is not None:
            out += f"\ndecision(th={frac_str(self.threshold)}) = {self.decision}"
        return out


def prepare(game: WeightedTimedGame) -> Prepared:
    """Normalize, build the reset-complete region game, certify the cycle
    structure, and extract the kernel."""
    if len(game.clocks) > 2:
        raise MoreThanTwoClocks(
            f"exact solving supports two clocks, got {len(game.clocks)}")
    if len(game.clocks) != 2:
        raise InputError("the solver expects exactly two clocks")
    reset_feasibility_cache()
    g = normalize_01(game)
    rg = build_region_wtg(g)
    rg = trim(rg)
    rg = prune_dead_rolls(rg)
    rg = prune_unreachable(rg, [rg.game.initial.location])
    rg = relax(rg)
    rg = prune_max_traps(rg)
    rg = add_resets(rg)
    cp = build_corner_point(rg)
    report = check_almost_non_zeno(cp)
    if report.verdict != ANZ:
        report.feasibility_calls, report.feasibility_distinct = \
            feasibility_counts()
        raise NotAlmostNonZeno(report)
    marking = mark_green(rg, cp)
    rg, marking = fix_weight_zero(rg, marking)
    kernel = extract_kernel(rg, marking)
    kappa, w_bound = compute_bounds(rg)
    return Prepared(rg, kernel, report, kappa, w_bound, *feasibility_counts())


def solve(game: WeightedTimedGame, threshold=None, k_cap: int = 10000,
          extra_visits: int = 0) -> Verdict:
    """Exact value of the game from its initial configuration, with the
    prepared region game and the value functions behind it."""
    prep = prepare(game)
    rg = prep.rg
    verdict = Verdict(INF, prepared=prep)
    if check_finite_value(rg):
        stats: dict = {}
        verdict.values = value_functions(
            rg, prep.kernel, prep.w_bound, prep.kappa, k_cap=k_cap,
            extra_visits=extra_visits, _stats=stats)
        verdict.vi_steps = stats.get("vi_steps", 0)
        verdict.sweeps = stats.get("sweeps", 0)
        nv = verdict.values[rg.game.initial.location]
        verdict.value = nv.eval(rg.game.initial.valuation)
    if threshold is not None:
        th = frac(threshold)
        verdict.threshold = th
        verdict.decision = "at-most" if verdict.value <= th else "exceeds"
    return verdict


def decide(game: WeightedTimedGame, threshold, **kw) -> Verdict:
    """Is the value at most ``threshold``?"""
    return solve(game, threshold=threshold, **kw)
