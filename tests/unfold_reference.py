"""References that ``tests/test_unfold.py`` checks ``unfold.value_functions``
against: the explicit semi-unfolding, solved children first, and the global
Jacobi sweep that evaluates the same unfolding level by level over every
location at once; and the re-scanning attractor that
``unfold.check_finite_value`` is checked against."""
import math

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from wtgsolve.core import MIN, StructuralError, Transition
from wtgsolve.cycles import Kernel
from wtgsolve.regions import RegionGame
from wtgsolve.unfold import NodeValue, _kernel_values, _solve_plain

PLAIN, KERNEL, GOAL, STOPPED = "plain", "kernel", "goal", "stopped"


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
                  out_edges: list[Transition],
                  k_cap: int) -> tuple[NodeValue, int]:
    values, steps = _kernel_values(rg, node.component, child_values,
                                   out_edges, k_cap)
    return values[node.loc], steps


def solve_node(node: UnfoldNode, rg: RegionGame, kernel: Kernel,
               k_cap: int = 10000, _stats: Optional[dict] = None
               ) -> NodeValue:
    """Value function of an unfold node, children first (iterative
    postorder over the shared DAG)."""
    memo: dict[int, NodeValue] = {}
    expanded: set[int] = set()
    stack: list[tuple[UnfoldNode, bool]] = [(node, False)]
    while stack:
        n, ready = stack.pop()
        if n.kind == GOAL:
            memo[id(n)] = NodeValue.constant(rg.reg.get(n.loc), 0)
            continue
        if n.kind == STOPPED:
            memo[id(n)] = NodeValue.infinite(rg.reg.get(n.loc))
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
            nv, steps = _solve_kernel(rg, n, child_values, out, k_cap)
            if _stats is not None:
                _stats["vi_steps"] = max(_stats.get("vi_steps", 0), steps)
            memo[id(n)] = nv
        else:
            memo[id(n)] = _solve_plain(rg, n.loc, child_values)
    return memo[id(node)]


def jacobi_value_functions(rg: RegionGame, kernel: Kernel, w_bound: Fraction,
                           kappa: Fraction, k_cap: int = 10000,
                           extra_visits: int = 0,
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

    values = {n: (NodeValue.constant(rg.reg[n], 0) if l.is_goal
                  else NodeValue.infinite(rg.reg[n]))
              for n, l in game.locations.items()}
    sweeps = 0
    for _ in range(max_sweeps):
        nxt = dict(values)
        for comp, out in out_by_comp.items():
            child = {t.tid: values[t.tgt] for t in out}
            kv, steps = _kernel_values(rg, comp, child, out, k_cap)
            nxt.update(kv)
            if _stats is not None:
                _stats["vi_steps"] = max(_stats.get("vi_steps", 0), steps)
        for n, l in game.locations.items():
            if l.is_goal or n in loc2comp:
                continue
            child = {t.tid: values[t.tgt] for t in outgoing[n]}
            nxt[n] = _solve_plain(rg, n, child)
        sweeps += 1
        if nxt == values:
            break
        values = nxt
    if _stats is not None:
        _stats["sweeps"] = sweeps
    return values


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
