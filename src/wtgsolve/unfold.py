"""End-to-end exact solver: the pipeline and its value computation.

The pipeline turns a raw two-clock game into a [0,1)-region game where every
transition resets a clock, certifies that every cycle has weight zero or at
least one, and collapses the zero-weight strongly connected components into
kernels.  Since every move resets a clock, the value of a region-location
is one piecewise-linear function of one clock (:class:`NodeValue`).
:func:`value_functions` evaluates the semi-unfolding of the rest one
strongly connected component at a time, successors first: plain locations
by exact one-step delay optimization, whose extremum over the moves is one
:func:`plf.pointwise_extremum`, kernels by iterating that same one-step
operator to its fixed point (:mod:`.kernelvi`).  One function,
:func:`_one_step`, costs every move, from the move's :func:`_plan`.
:func:`solve` is the one entry point that both the library and the CLI call.
"""

import functools
import math
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple, Optional

from .core import (INF, MAX, MIN, ExtRat, GameError, InputError,
                   StructuralError, DomainError, Transition, Valuation,
                   WeightedTimedGame, frac, frac_str)
from .graphs import reachable, strongly_connected_components
from .plf import (PLF1, eval1, pointwise_extremum, reparam,
                  running_extremum)
from .regions import (Region, RegionGame, add_resets, build_region_wtg,
                      infer_guard_region, is_rollover, normalize_01,
                      prune_unreachable, relax, restrict, trim)
from .cycles import (ANZ, AnzReport, Kernel, build_corner_point,
                     check_almost_non_zeno, compute_bounds, extract_kernel,
                     fix_weight_zero, mark_green)
from .kernelvi import KernelGame, iterate


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

class NodeValue(namedtuple("NodeValue", "region plf")):
    """Value function on the closure of a region-location's region.

    Every transition resets a clock, so ``plf`` is always one PLF1: over
    [0, 1] in the free coordinate of a 1-D region or of a goal (constant 0
    there), and a point function at the x of a point source: 0 at the
    origin, and the initial valuation's x for a 2-D region, which only the
    root can have and which is read only there.  +inf is
    ``PLF1.infinite()``.
    """

    __slots__ = ()

    @property
    def is_infinite(self) -> bool:
        return self.plf.is_infinite

    def __le__(self, other: "NodeValue") -> bool:
        """Pointwise order over one region, +inf on top."""
        return self.plf <= other.plf

    def eval(self, v: Valuation) -> ExtRat:
        return eval1(self.plf, v[_param_axis(self.region)])


def _param_axis(r: Region) -> int:
    """The clock a region's value function reads: the free one of a 1-D
    region (x for the diagonal), x on a 2-D region, y at the origin."""
    if 0 in r.zeros:
        return 1
    return 0


def _sorted_corners(r: Region) -> list[Valuation]:
    return sorted(r.corners())


# ---------------------------------------------------------------------------
# One transition: the child's value read along one affine view
# ---------------------------------------------------------------------------

def _chord(gr: Region, c0) -> Optional[tuple[Valuation, Valuation]]:
    """The lowest and highest points at which the flow line y - x = c0
    meets the closed guard region ``gr`` (the same point twice where it
    crosses a segment or touches a corner), or None when it misses it."""
    if gr.dim == 2:  # a triangle, met on a chord
        above = 0 in gr.blocks[1]  # 0 <= x <= y <= 1
        if not (0 <= c0 <= 1 if above else -1 <= c0 <= 0):
            return None
        return ((0, c0), (1 - c0, 1)) if above else ((-c0, 0), (1, 1 + c0))
    corners = _sorted_corners(gr)
    a, b = corners[0], corners[-1]
    dcp = (b[1] - a[1]) - (b[0] - a[0])
    if dcp:  # a guard segment across the flow, met at one point
        # A 1-D guard region across the flow runs along an axis, so dcp is
        # 1 or -1 and dividing by it is multiplying.
        s = (c0 - (a[1] - a[0])) * dcp
        if not 0 <= s <= 1:
            return None
        a = b = (a[0] + s * (b[0] - a[0]), a[1] + s * (b[1] - a[1]))
    if a[1] - a[0] != c0:
        return None
    return a, b


class _Plan(NamedTuple):
    """How a move is costed from its source, per unit of the source's rate
    w0.  Its cost is the child's value read along ``view`` = (u0, u1, slope,
    intercept), as ``reparam(child, u0, u1, w0*slope, w0*intercept +
    w(t))``; from a point source, whose x is ``at``, the extremum of that
    as a point PLF1 at ``at``; with a ``side``, the running extremum on that
    side of the result, read along ``then`` with (slope, intercept) scaled
    by w0 alone.  A plan without a view is a move that no delay fits, and
    ``error`` is instead the exception class and message (``{tid}`` naming
    the move) of a move that cannot be costed.  The numbers of a plan from
    a region are ints, read off its corners; only the valuation of a 2-D
    root brings ``Fraction`` ones in."""

    view: tuple = ()
    side: str = ""
    then: tuple = ()
    at: Optional[int | Fraction] = None
    error: tuple = ()


@functools.lru_cache(maxsize=None)
def _plan(src: Region | Valuation, gr: Region, resets: frozenset[int],
          axis: int) -> _Plan:
    """The :class:`_Plan` of a move from ``src``, firing in the closed guard
    region ``gr`` and resetting ``resets``, into a value that reads clock
    ``axis``.  ``src`` is a 1-D region, the origin, or the valuation of a
    2-D root, which :func:`_one_step` keeps out of the table."""
    def u(p: Valuation):  # the clock the child reads after p
        return 0 if axis in resets else p[axis]

    corners = _sorted_corners(src) if isinstance(src, Region) else [src]
    a, b = corners[0], corners[-1]
    dx, dy = b[0] - a[0], b[1] - a[1]
    if dx == dy:
        # A point or a diagonal source lies on one flow line y - x = c0,
        # which meets the closed guard region on a chord or misses it.
        chord = _chord(gr, a[1] - a[0])
        if a == b:  # a point: the extremum over the chord ahead of it
            if chord is None or chord[1][0] < a[0]:
                return _Plan()
            pa, pb = max(chord[0], a), chord[1]  # on one flow line: by x
            return _Plan((u(pa), u(pb), pb[0] - pa[0], pa[0] - a[0]),
                         at=a[0])
        # The diagonal's flow line c0 = 0 meets a region's closure in
        # (0, 0), in (1, 1) or between them.
        if chord is None:
            return _Plan(error=(StructuralError,
                                "{tid}: guard misses the flow line"))
        pa, pb = chord
        if pb[0] != 1:
            return _Plan(error=(
                StructuralError,
                "transition feasible on only part of its source region"))
        if pa == pb:
            return _Plan((u(pa), u(pa), -1, pa[0]))
        # firing at (xi, xi) costs k(xi) = child + w(t) + w0*xi; from the
        # source point at xi, the suffix extremum of k less w0*xi
        return _Plan((u(pa), u(pb), 1, 0), "suffix", (0, 1, -1, 0))

    # Non-diagonal 1-D source: each point lies on its own flow line, and the
    # closed guard region sits forward in time on all of them, so the d >= 0
    # constraint is vacuous.
    c_a, c_b = a[1] - a[0], b[1] - b[0]
    if gr.dim == 0:
        return _Plan(error=(
            StructuralError,
            "{tid}: point guard region from a sliding source"))
    if gr.dim == 1:
        ga, gb = _sorted_corners(gr)
        dcp = (gb[1] - ga[1]) - (gb[0] - ga[0])
        if dcp == 0:
            return _Plan(error=(
                StructuralError,
                "{tid}: diagonal guard from a sliding source"))
        # the source corners' flow lines cross the guard at s0 and s1 (dcp
        # is 1 or -1, as in :func:`_chord`)
        s0 = (c_a - (ga[1] - ga[0])) * dcp
        s1 = (c_b - (ga[1] - ga[0])) * dcp
        for s in (s0, s1):
            if not 0 <= s <= 1:
                return _Plan(error=(DomainError,
                                    f"PLF1 evaluated outside [0, 1]: {s}"))
        gdx = gb[0] - ga[0]
        ua, ub = u(ga), u(gb)
        return _Plan((ua + s0 * (ub - ua), ua + s1 * (ub - ua),
                      (s1 - s0) * gdx - dx, ga[0] + s0 * gdx - a[0]))
    # A triangle: the flow line y - x = c through the source point meets it
    # on a chord, x in [0, 1 - c] above the diagonal and in [-c, 1] below.
    # Firing on it, the child reads one clock u, x or y = x + c (take x when
    # it reads none), and the cost from the source is k(u) - w0*(c if u is
    # y) - w0*x_src, where k(u) = child(u) + w(t) + w0*u is also the cost of
    # firing at (u, u).  The chord's range of u starts at 0 or ends at 1, so
    # its extremum is a running extremum of k, read at the other end e(c).
    above = 0 in gr.blocks[1]
    reads_y = axis == 1 and 1 not in resets
    prefix = above != reads_y
    e0, sign = int(prefix), (1 if reads_y else -1)
    return _Plan((0, u((1, 1)), 1, 0),
                 "prefix" if prefix else "suffix",
                 (e0 + sign * c_a, e0 + sign * c_b,
                  -(reads_y * (c_b - c_a) + dx), -(reads_y * c_a + a[0])))


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
    edge into it, so no other value changes.  The trapped locations are
    the non-goal Max ones that reach a cycle of such locations; a game
    without them is returned as it is."""
    game = rg.game
    max_locs = {n for n, l in game.locations.items()
                if l.owner == MAX and not l.is_goal}
    succ: dict[str, list[str]] = {}
    back: dict[str, list[str]] = {}
    for t in game.transitions:
        if t.src in max_locs and t.tgt in max_locs:
            succ.setdefault(t.src, []).append(t.tgt)
            back.setdefault(t.tgt, []).append(t.src)
    on_cycle = [n for comp in strongly_connected_components(succ)
                if len(comp) > 1 or comp[0] in succ.get(comp[0], ())
                for n in comp]
    trapped = reachable(back, on_cycle)
    if not trapped:
        return rg
    return restrict(rg, game.locations,
                    [t.tid for t in game.transitions if t.src not in trapped])


def prune_dead_rolls(rg: RegionGame) -> RegionGame:
    """Drop the rollovers after which rollovers alone reach no real
    transition, found by one backward search over the rollovers (they
    leave and enter copies of one non-goal location, never a goal).
    :func:`normalize_01`'s ``tops`` count on every transition enabled in an
    integer copy, but the build keeps only the moves whose guard can hold
    after a delay from the region, so a rollover it keeps may lead nowhere.
    A game without such rollovers is returned as it is."""
    game = rg.game
    back: dict[str, list[str]] = {}
    for t in game.transitions:
        if is_rollover(t.tid):
            back.setdefault(t.tgt, []).append(t.src)
    live = reachable(back, [t.src for t in game.transitions
                            if not is_rollover(t.tid)])
    kept = [t.tid for t in game.transitions
            if not is_rollover(t.tid) or t.tgt in live]
    if len(kept) == len(game.transitions):
        return rg
    return restrict(rg, game.locations, kept)


def check_finite_value(rg: RegionGame) -> bool:
    """True iff Min can force reaching a goal location from the initial
    region-location (backward attractor on the region graph).

    Each edge is followed backwards once: a Min location joins the
    attractor with its first successor there, a Max location once no
    successor is left outside."""
    game = rg.game
    pred: dict[str, list[str]] = {n: [] for n in game.locations}
    outside = dict.fromkeys(game.locations, 0)
    for t in game.transitions:
        pred[t.tgt].append(t.src)
        outside[t.src] += 1
    todo = [n for n, l in game.locations.items() if l.is_goal]
    attr = set(todo)
    while todo:
        for n in pred[todo.pop()]:
            if n in attr:
                continue
            outside[n] -= 1
            if game.locations[n].owner == MIN or not outside[n]:
                attr.add(n)
                todo.append(n)
    return game.initial.location in attr


# ---------------------------------------------------------------------------
# Bottom-up solving
# ---------------------------------------------------------------------------

def _one_step(rg: RegionGame, t: Transition, child: NodeValue,
              direction: str, shared: dict):
    """The cost of ``t`` from its source region, given the value ``child``
    behind it, by the move's :func:`_plan`: a PLF1 in the free coordinate of
    a 1-D region, and otherwise a point PLF1 at the point source's x (the
    origin's or the root's), or None when no delay fits.  A 2-D source region can only be the root's (every
    transition resets a clock), so its value is only ever needed at the
    initial valuation.  ``shared`` holds the costs already computed, keyed
    by everything that they depend on."""
    r, gr = rg.reg[t.src], infer_guard_region(rg, t)
    key = (rg.game.locations[t.src].weight, gr, t.resets, t.weight, r,
           direction, child.region, child.plf)
    try:
        return shared[key]
    except KeyError:
        pass
    if child.is_infinite:
        shared[key] = cost = PLF1.infinite()
        return cost
    args = (gr, t.resets, _param_axis(child.region))
    # the root's plan depends on the input valuation: not tabulated
    plan = (_plan(r, *args) if r.dim < 2
            else _plan.__wrapped__(rg.game.initial.valuation, *args))
    if plan.error:
        cls, message = plan.error
        raise cls(message.format(tid=t.tid))
    cost = None
    if plan.view:
        w0 = rg.game.locations[t.src].weight
        u0, u1, m, q = plan.view
        cost = reparam(child.plf, u0, u1, w0 * m, w0 * q + t.weight)
        if plan.at is not None:
            y = (min if direction == "inf" else max)(cost.ys)
            cost = PLF1.point(Fraction(y, cost.den), x=plan.at)
        elif plan.side:
            v0, v1, m, q = plan.then
            cost = reparam(running_extremum(cost, plan.side, direction),
                           v0, v1, w0 * m, w0 * q)
    shared[key] = cost
    return cost


def _kernel_values(rg: RegionGame, comp: frozenset,
                   child_values: dict[str, NodeValue],
                   out_edges: list[Transition],
                   shared: dict) -> tuple[dict[str, NodeValue], int]:
    """Solve one zero-weight component given the values behind its output
    edges: iterate the one-step operator of :func:`_solve_plain`, which
    reads the current table behind the inner transitions.  Returns the value
    of every member location and the number of steps."""
    game = rg.game
    out_tids = {t.tid for t in out_edges}
    inner = [t for t in game.transitions if t.src in comp
             and t.tgt in comp and t.tid not in out_tids]
    moves = {n: [] for n in comp}
    for t in out_edges + inner:
        moves[t.src].append(t)

    def step(table: dict[str, NodeValue]) -> dict[str, NodeValue]:
        child = {**child_values, **{t.tid: table[t.tgt] for t in inner}}
        return {n: _solve_plain(rg, n, moves[n], child, shared) for n in comp}

    top = {n: NodeValue(rg.reg[n], PLF1.infinite()) for n in comp}
    res = iterate(KernelGame({n: game.locations[n] for n in comp}, inner,
                             top, step))
    return res.functions, res.steps


def _solve_plain(rg: RegionGame, loc_name: str, ts: list[Transition],
                 child_values: dict[str, NodeValue],
                 shared: dict) -> NodeValue:
    """The value function of a plain location from its outgoing transitions
    ``ts`` and the values behind them, with the one-step costs of
    ``shared``."""
    direction = "inf" if rg.game.locations[loc_name].owner == MIN else "sup"
    costs = [_one_step(rg, t, child_values[t.tid], direction, shared)
             for t in ts]
    costs = [c for c in costs if c is not None]
    return NodeValue(rg.reg[loc_name], pointwise_extremum(costs, direction)
                     if costs else PLF1.infinite())


def value_functions(rg: RegionGame, kernel: Kernel, w_bound: Fraction,
                    kappa: Fraction,
                    _stats: Optional[dict] = None) -> dict[str, NodeValue]:
    """Exact value function of every region-location.

    This evaluates the semi-unfolding with all equal-depth subtrees
    shared.  A unit is a zero-weight component, solved by value
    iteration against the values behind its output edges, or a plain
    location, solved by the one-step delay optimization.  Units are visited
    by strongly connected component, successors first, and each component
    runs Jacobi sweeps over its members, recomputing a member only when the
    value of one of its successors changed in the previous sweep, until
    none is left: an acyclic unit is solved once against final values.
    Sweep values decrease monotonically from +infinity and, because every
    cycle outside the components costs at least ``kappa``, they reach the
    unfolding's exact root value within (#positive elements * (W/kappa + 2)
    + 1) * (|L| + 1) sweeps -- the maximum depth of the counter-cut
    unfolding -- so each cyclic component stops at stabilization or at that
    bound, whichever comes first.  ``sweeps`` in ``_stats`` is the most any component took.
    Equal one-step questions, as integer-part copies and early-reset twins
    ask them, are answered once per call."""
    game = rg.game
    threshold = w_bound / kappa + 2
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

    values = {n: NodeValue(rg.reg[n], PLF1.constant(0) if l.is_goal
                           else PLF1.infinite())
              for n, l in game.locations.items()}
    shared: dict = {}

    def solve_unit(u) -> dict[str, NodeValue]:
        child = {t.tid: values[t.tgt] for t in edges[u]}
        if isinstance(u, str):
            return {u: _solve_plain(rg, u, edges[u], child, shared)}
        kv, steps = _kernel_values(rg, u, child, edges[u], shared)
        if _stats is not None:
            _stats["vi_steps"] = max(_stats.get("vi_steps", 0), steps)
        return kv

    most = 0
    for scc in strongly_connected_components(succ):
        todo = members = set(scc)
        sweep = 0
        while todo and sweep < max_sweeps:
            sweep += 1
            nxt = {}
            for u in todo:
                nxt.update(solve_unit(u))
            changed = [n for n, nv in nxt.items() if values[n] != nv]
            values.update(nxt)
            todo = {u for n in changed
                    for u in pred[loc2comp.get(n, n)]} & members
        most = max(most, sweep)
    if _stats is not None:
        _stats["sweeps"] = most
    return values


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------

#: Everything the solver derives before unfolding: the region game, its
#: kernel, the ANZ report, kappa and the value bound W.
Prepared = namedtuple("Prepared", "rg kernel anz kappa w_bound")


class Verdict:
    """The value of a game, and what :func:`solve` found on the way: the
    decision ("at-most" or "exceeds") against a threshold, the most sweeps
    any SCC of units took, the VI steps, the prepared game and the value
    function per region-location (empty when Min cannot force a goal)."""

    threshold = decision = None
    sweeps = vi_steps = 0

    def __init__(self, value: ExtRat, prepared: Optional[Prepared] = None):
        self.value, self.prepared = value, prepared
        self.values: dict[str, NodeValue] = {}

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
    g = normalize_01(game)
    rg = prune_dead_rolls(build_region_wtg(g))
    rg = prune_unreachable(rg, [rg.game.initial.location])
    rg = prune_max_traps(trim(relax(rg)))
    rg = add_resets(rg)
    cp = build_corner_point(rg)
    report = check_almost_non_zeno(cp)
    if report.verdict != ANZ:
        raise NotAlmostNonZeno(report)
    marking = mark_green(rg, cp)
    rg, marking = fix_weight_zero(rg, marking)
    kernel = extract_kernel(rg, marking)
    kappa, w_bound = compute_bounds(rg)
    return Prepared(rg, kernel, report, kappa, w_bound)


def solve(game: WeightedTimedGame, threshold=None) -> Verdict:
    """Exact value of the game from its initial configuration, with the
    prepared region game and the value functions behind it."""
    prep = prepare(game)
    rg = prep.rg
    verdict = Verdict(INF, prepared=prep)
    if check_finite_value(rg):
        stats: dict = {}
        verdict.values = value_functions(
            rg, prep.kernel, prep.w_bound, prep.kappa, _stats=stats)
        verdict.vi_steps = stats.get("vi_steps", 0)
        verdict.sweeps = stats.get("sweeps", 0)
        nv = verdict.values[rg.game.initial.location]
        verdict.value = nv.eval(rg.game.initial.valuation)
    if threshold is not None:
        th = frac(threshold)
        verdict.threshold = th
        verdict.decision = "at-most" if verdict.value <= th else "exceeds"
    return verdict


def decide(game: WeightedTimedGame, threshold) -> Verdict:
    """Is the value at most ``threshold``?"""
    return solve(game, threshold=threshold)
