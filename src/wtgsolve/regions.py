"""Region machinery and the value-preserving game transformations.

A *region* partitions the clocks by fractional order: a (possibly empty)
block of clocks at exactly 0, a strictly increasing chain of non-empty
blocks strictly between 0 and 1, and a (possibly empty) block at exactly 1.
The pipeline built on top of regions takes a raw game to a form the kernel
value iteration can digest:

    normalize_01      -> all reachable clock values in [0, 1)
    build_region_wtg  -> one region per location, guards refined per region
    trim              -> drop unsatisfiable transitions and implied clauses
    relax             -> strict guards widened to their closure, re-trimmed
    add_resets        -> every non-goal transition resets at least one clock

Each transformation preserves the value of the game (checked externally
against the grid oracle on the test corpus).

After normalization every guard constant is 0 or 1, so a guard atom has one
truth value on a whole region, and the feasibility questions of trimming and
guard-region inference are region lookups over time successors and
closures.  ``restrict`` is the one way to cut a region game down to some of
its locations and transitions, and ``drop_dead_rolls`` the one liveness test
for rollovers.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Collection, Iterable, Mapping, Optional, Sequence

from .core import (
    MAX,
    MIN,
    Configuration,
    DomainError,
    Guard,
    InputError,
    Location,
    StructuralError,
    Transition,
    Valuation,
    WeightedTimedGame,
)
from .graphs import reachable, strongly_connected_components

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Region:
    """Ordered partition of the clock indices by fractional value.

    ``blocks[0]`` holds the clocks at exactly 0 (may be empty); blocks 1..p
    hold clocks sharing a value strictly between 0 and 1, in increasing
    order, and are never empty; ``ones`` holds the clocks at exactly 1.
    """

    blocks: tuple[frozenset[int], ...]
    ones: frozenset[int] = frozenset()

    def __post_init__(self):
        if not self.blocks:
            raise DomainError("region needs a zero block (possibly empty)")
        for b in self.blocks[1:]:
            if not b:
                raise InputError("interior region blocks must be non-empty")
        seen: set[int] = set()
        for b in (*self.blocks, self.ones):
            if b & seen:
                raise InputError("region blocks must be disjoint")
            seen |= b

    # -- structure ----------------------------------------------------------

    @property
    def zeros(self) -> frozenset[int]:
        return self.blocks[0]

    @property
    def interior(self) -> tuple[frozenset[int], ...]:
        return self.blocks[1:]

    @property
    def p(self) -> int:
        return len(self.blocks) - 1

    @property
    def dim(self) -> int:
        """Number of independent fractional values (dimension of the region)."""
        return self.p

    @property
    def clocks(self) -> frozenset[int]:
        out: set[int] = set(self.ones)
        for b in self.blocks:
            out |= b
        return frozenset(out)

    @property
    def fractional(self) -> bool:
        """True when no clock sits at exactly 1 (a [0,1)-region)."""
        return not self.ones

    @property
    def upclock(self) -> frozenset[int]:
        """The clocks of largest value in a [0,1)-region (top block)."""
        if self.ones:
            raise DomainError("upclock is defined on [0,1)-regions only")
        return self.blocks[-1]

    # -- membership and points ----------------------------------------------

    def contains(self, valuation: Valuation, closed: bool = False) -> bool:
        """Is ``valuation`` in the region (in its closure, if ``closed``)?"""
        if (any(valuation[x] != 0 for x in self.zeros)
                or any(valuation[x] != 1 for x in self.ones)):
            return False
        prev = ZERO
        for b in self.interior:
            vs = {valuation[x] for x in b}
            if len(vs) != 1:
                return False
            v = vs.pop()
            if not (prev <= v <= 1 if closed else prev < v < 1):
                return False
            prev = v
        return True

    def representative(self) -> Valuation:
        """One concrete valuation in the region (block i at i/(p+1))."""
        n = max(self.clocks, default=-1) + 1
        out = [ZERO] * n
        for x in self.ones:
            out[x] = ONE
        for i, b in enumerate(self.interior, start=1):
            for x in b:
                out[x] = Fraction(i, self.p + 1)
        return tuple(out)

    def corners(self) -> list[Valuation]:
        """Vertices of the topological closure, ordered bottom-up.

        Corner j sends the first j interior blocks to 0 and the rest to 1,
        so corner 0 is the all-high vertex and corner p the all-low one.
        """
        n = max(self.clocks, default=-1) + 1
        out = []
        for j in range(self.p + 1):
            v = [ZERO] * n
            for x in self.ones:
                v[x] = ONE
            for i, b in enumerate(self.interior, start=1):
                for x in b:
                    v[x] = ZERO if i <= j else ONE
            out.append(tuple(v))
        return out

    # -- operations ----------------------------------------------------------

    def reset(self, clocks: Iterable[int]) -> "Region":
        xs = frozenset(clocks)
        blocks = [self.zeros | xs]
        for b in self.interior:
            rest = b - xs
            if rest:
                blocks.append(rest)
        return Region(tuple(blocks), self.ones - xs)

    def time_successors(self) -> list["Region"]:
        """Regions reachable from here by letting time elapse (self first)."""
        if self.ones:
            raise DomainError("time successors are defined on [0,1)-regions")
        if not self.clocks:
            return [self]
        out = [self]
        shifted = (frozenset(),) + self.blocks if self.zeros else self.blocks
        if self.zeros:
            out.append(Region(shifted))
        # Top block reaches 1 while everything below stays interior.
        top = shifted[-1]
        rest = shifted[:-1] or (frozenset(),)
        out.append(Region(tuple(rest), top))
        return out

    def in_closure_of(self, other: "Region") -> bool:
        """True when this region lies inside the closure of ``other``."""
        rep = self.representative()
        n = max(other.clocks, default=-1) + 1
        return other.contains(
            tuple(rep[i] if i < len(rep) else ZERO for i in range(n)),
            closed=True)


def region_of(valuation: Valuation) -> Region:
    """The unique region containing ``valuation`` (entries must be in [0,1])."""
    zeros, ones = set(), set()
    groups: dict[Fraction, set[int]] = {}
    for x, v in enumerate(valuation):
        if not 0 <= v <= 1:
            raise DomainError(f"clock {x} out of [0,1]: {v}")
        if v == 0:
            zeros.add(x)
        elif v == 1:
            ones.add(x)
        else:
            groups.setdefault(v, set()).add(x)
    blocks = [frozenset(zeros)]
    for v in sorted(groups):
        blocks.append(frozenset(groups[v]))
    return Region(tuple(blocks), frozenset(ones))


@functools.lru_cache(maxsize=None)
def all_regions(n_clocks: int, include_ones: bool = True) -> tuple[Region, ...]:
    """Every region over clocks 0..n-1 (restricted to [0,1)-regions if asked)."""
    clocks = frozenset(range(n_clocks))

    def ordered_partitions(xs: frozenset[int]):
        if not xs:
            yield ()
            return
        items = sorted(xs)
        for first in _nonempty_subsets(items):
            rest = xs - frozenset(first)
            for tail in ordered_partitions(rest):
                yield (frozenset(first),) + tail

    out = []
    one_choices = _subsets(sorted(clocks)) if include_ones else [()]
    for ones in one_choices:
        rem = clocks - frozenset(ones)
        for zeros in _subsets(sorted(rem)):
            mid = rem - frozenset(zeros)
            for interior in ordered_partitions(mid):
                out.append(Region((frozenset(zeros),) + interior, frozenset(ones)))
    return tuple(out)


def _subsets(items):
    for k in range(len(items) + 1):
        yield from itertools.combinations(items, k)


def _nonempty_subsets(items):
    for k in range(1, len(items) + 1):
        yield from itertools.combinations(items, k)


@functools.lru_cache(maxsize=None)
def adherence(r: Region) -> tuple[Region, ...]:
    """All regions contained in the topological closure of ``r``."""
    n = max(r.clocks, default=-1) + 1
    return tuple(s for s in all_regions(n) if s.in_closure_of(r))


# ---------------------------------------------------------------------------
# Feasibility by region lookup
# ---------------------------------------------------------------------------

HALF = Fraction(1, 2)


@functools.lru_cache(maxsize=None)
def _elapsed_regions(r: Region, closure: bool) -> frozenset[Region]:
    """The regions of nu+delta inside [0,1]^X, for delta >= 0 and nu in r
    (or its closure); from a clock at 1 only delta = 0 stays inside."""
    out: set[Region] = set()
    for s in (adherence(r) if closure else (r,)):
        out.update(s.time_successors() if s.fractional else (s,))
    return frozenset(out)


def _holds(g: Guard, r: Region) -> bool:
    """The truth value of ``g`` on region r.  With the constant 0 or 1 it is
    one value on the whole region: an interior clock compares as 1/2 does."""
    return g.holds(ZERO if g.clock in r.zeros
                   else ONE if g.clock in r.ones else HALF)


def _check_01(guards: Iterable[Guard]) -> None:
    for g in guards:
        if g.bound not in (0, 1):
            raise StructuralError(f"guard constant {g.bound} is not 0 or 1")


def elapsed_region_feasible(src: Region, target: Region, guards: Sequence[Guard],
                            closure: bool = False) -> bool:
    """Is there nu in src (closure if asked) and delta >= 0 with nu+delta
    satisfying ``guards`` and lying in ``target``?

    Every guard constant must be 0 or 1, as after :func:`normalize_01`;
    anything else raises :class:`StructuralError`.  Answers are memoised
    until :func:`reset_feasibility_cache`.
    """
    return _elapsed_region_feasible(src, target, tuple(guards), closure)


@functools.lru_cache(maxsize=None)
def _elapsed_region_feasible(src: Region, target: Region,
                             guards: tuple[Guard, ...], closure: bool) -> bool:
    _check_01(guards)
    return (target in _elapsed_regions(src, closure)
            and all(_holds(g, target) for g in guards))


def delay_feasible(r: Region, guards: Sequence[Guard], closure: bool = False,
                   negate: Optional[Guard] = None) -> bool:
    """Is there nu in r (its closure if asked) and delta >= 0 with
    nu+delta inside [0,1]^X, satisfying ``guards`` and violating ``negate``?

    Each guard atom has one truth value on a whole region, so the answer is
    whether some region of those elapsed points satisfies them.  Constants
    and answers are as for :func:`elapsed_region_feasible`.
    """
    return _delay_feasible(r, tuple(guards), closure, negate)


@functools.lru_cache(maxsize=None)
def _delay_feasible(r: Region, guards: tuple[Guard, ...], closure: bool,
                    negate: Optional[Guard]) -> bool:
    _check_01(guards if negate is None else guards + (negate,))
    return any(all(_holds(g, s) for g in guards)
               and not (negate is not None and _holds(negate, s))
               for s in _elapsed_regions(r, closure))


_FEASIBILITY_CACHES = (_elapsed_region_feasible, _delay_feasible)


def reset_feasibility_cache() -> None:
    """Forget the memoised feasibility answers; ``prepare`` does so per solve."""
    for cached in _FEASIBILITY_CACHES:
        cached.cache_clear()


def feasibility_counts() -> tuple[int, int]:
    """(calls, distinct questions) of both predicates since the last reset."""
    infos = [cached.cache_info() for cached in _FEASIBILITY_CACHES]
    return sum(i.hits + i.misses for i in infos), sum(i.misses for i in infos)


# ---------------------------------------------------------------------------
# [0,1)-normalization
# ---------------------------------------------------------------------------

def clock_bound(game: WeightedTimedGame) -> int:
    """The integer bound M assumed on all clocks.

    Normally max guard constant + 1.  M is 1 only when the game is
    syntactically a [0,1)-game: every transition keeps every clock inside
    the unit cell when it fires -- clocks it does not reset are pinned
    strictly below 1, clocks it resets are pinned at most 1 (so '==1'
    guards always reset).  Anything weaker lets a clock sit at or beyond 1
    while another guard fires, which a single integer part cannot model.
    """
    m = game.max_constant()
    if m == 0:
        return 1

    def pinned(t: Transition, x: int, strict: bool) -> bool:
        for g in t.guards:
            if g.clock != x:
                continue
            if g.op == "<" and g.bound <= 1:
                return True
            if g.op in ("<=", "==") and g.bound <= (0 if strict else 1):
                return True
        return False

    if m == 1 and all(
            pinned(t, x, strict=x not in t.resets)
            for t in game.transitions for x in range(len(game.clocks))):
        return 1
    return m + 1


def _copy_name(name: str, nbar: tuple[int, ...]) -> str:
    return f"{name}#{','.join(map(str, nbar))}"


def drop_dead_rolls(transitions: Sequence[Transition],
                    locations: Mapping[str, Location]) -> list[Transition]:
    """The transitions without the rollovers after which no real transition
    and no goal is reachable through rollovers alone.

    A rollover ``__roll_*`` models pure waiting across an integer clock
    boundary, but a move of the game is a delay *plus* an enabled
    transition: a rollover leading nowhere would let a player "wait" into a
    deadlock that the source game does not have.
    """
    back: dict[str, list[str]] = {}
    for t in transitions:
        if t.tid.startswith("__roll_"):
            back.setdefault(t.tgt, []).append(t.src)
    live = reachable(back, [t.src for t in transitions
                            if not t.tid.startswith("__roll_")]
                     + [n for n, l in locations.items() if l.is_goal])
    return [t for t in transitions
            if not t.tid.startswith("__roll_") or t.tgt in live]


def normalize_01(game: WeightedTimedGame) -> WeightedTimedGame:
    """Fold clock integer parts into the locations.

    Location (l, n1..nk) with fractional valuation nu stands for l with
    valuation (n1+nu1, ..).  Guards are rewritten over fractional parts
    (constants 0/1 only); a guard x==1 always resets x and bumps the stored
    integer part.  Zero-weight "rollover" transitions let a clock cross an
    integer boundary mid-wait.  Clocks are assumed bounded by M = max guard
    constant + 1; guards that stay satisfiable at arbitrarily large clock
    values are rejected.
    """
    n = len(game.clocks)
    m = clock_bound(game)
    for t in game.transitions:
        by_clock: dict[int, list[str]] = {}
        for g in t.guards:
            by_clock.setdefault(g.clock, []).append(g.op)
        for x, ops in by_clock.items():
            if all(op in (">", ">=") for op in ops):
                raise InputError(
                    f"transition {t.tid}: clock {game.clocks[x]} only has lower "
                    "bounds, so it is not syntactically bounded")

    copies = list(itertools.product(range(m), repeat=n))
    locations: dict[str, Location] = {}
    for name, loc in game.locations.items():
        for nbar in copies:
            locations[_copy_name(name, nbar)] = replace(loc, name=_copy_name(name, nbar))

    transitions: list[Transition] = []

    def translate(g: Guard, nbar) -> Optional[list[Guard]]:
        """Clauses over the fractional clock, or None when unsatisfiable."""
        x, c, ni = g.clock, g.bound, nbar[g.clock]
        if g.op == "==":
            if ni == c:
                return [Guard(x, "==", 0)]
            if ni == c - 1:
                return [Guard(x, "==", 1)]
            return None
        if g.op == "<":
            return [] if ni <= c - 1 else None
        if g.op == "<=":
            if ni < c:
                return []
            if ni == c:
                return [Guard(x, "==", 0)]
            return None
        if g.op == ">":
            if ni > c:
                return []
            if ni == c:
                return [Guard(x, ">", 0)]
            return None
        # >=
        if ni >= c:
            return []
        if ni == c - 1:
            return [Guard(x, "==", 1)]
        return None

    for t in game.transitions:
        for nbar in copies:
            clauses: list[Guard] = []
            ok = True
            for g in t.guards:
                tr = translate(g, nbar)
                if tr is None:
                    ok = False
                    break
                clauses.extend(tr)
            if not ok:
                continue
            bump = {g.clock for g in clauses if g.op == "==" and g.bound == 1}
            pinned = bump | {g.clock for g in clauses if g.op == "==" and g.bound == 0}
            for x in range(n):
                if x not in pinned:
                    clauses.append(Guard(x, "<", 1))
            target = list(nbar)
            resets = set(t.resets) | bump
            for x in range(n):
                if x in t.resets:
                    target[x] = 0
                elif x in bump:
                    target[x] = nbar[x] + 1
            transitions.append(Transition(
                tid=f"{t.tid}#{','.join(map(str, nbar))}",
                src=_copy_name(t.src, nbar),
                tgt=_copy_name(t.tgt, tuple(target)),
                guards=tuple(dict.fromkeys(clauses)),
                resets=frozenset(resets),
                weight=t.weight,
                synthetic=t.synthetic,
            ))

    # Rollover: while waiting, the clocks of set S hit 1 together and wrap
    # into the next integer part.  Same physical state, corrected encoding.
    for name, loc in game.locations.items():
        if loc.is_goal:
            continue
        for nbar in copies:
            for size in range(1, n + 1):
                for s in itertools.combinations(range(n), size):
                    if any(nbar[x] >= m - 1 for x in s):
                        continue
                    guards = [Guard(x, "==", 1) for x in s]
                    guards += [Guard(y, "<", 1) for y in range(n) if y not in s]
                    target = tuple(nbar[x] + 1 if x in s else nbar[x] for x in range(n))
                    transitions.append(Transition(
                        tid=f"__roll_{name}#{','.join(map(str, nbar))}_{'_'.join(map(str, s))}",
                        src=_copy_name(name, nbar),
                        tgt=_copy_name(name, target),
                        guards=tuple(guards),
                        resets=frozenset(s),
                        synthetic=True,
                    ))

    transitions = drop_dead_rolls(transitions, locations)

    init = game.initial
    nbar0, frac0 = [], []
    for v in init.valuation:
        if not 0 <= v < m:
            raise InputError(f"initial clock value {v} out of [0,{m})")
        nbar0.append(int(v))
        frac0.append(v - int(v))
    initial = Configuration(_copy_name(init.location, tuple(nbar0)), tuple(frac0))
    return WeightedTimedGame(list(game.clocks), locations, transitions, initial)


# ---------------------------------------------------------------------------
# Region games
# ---------------------------------------------------------------------------

@dataclass
class RegionGame:
    """A game with one region per location plus transformation bookkeeping.

    ``guard_region`` maps each transition id to the region every guard-
    satisfying elapsed valuation lies in (within its closure, once relaxed).
    """

    game: WeightedTimedGame
    reg: dict[str, Region]
    guard_region: dict[str, Region]
    trimmed: bool = False
    relaxed: bool = False


def restrict(rg: RegionGame, locations: Collection[str],
             tids: Collection[str]) -> RegionGame:
    """The sub-game on ``locations`` with the transitions ``tids`` between
    them.  Regions, guard regions and flags carry over; orders are kept."""
    keep, kept_tids = set(locations), set(tids)
    transitions = [t for t in rg.game.transitions if t.tid in kept_tids
                   and t.src in keep and t.tgt in keep]
    game = WeightedTimedGame(
        list(rg.game.clocks),
        {n: l for n, l in rg.game.locations.items() if n in keep},
        transitions, rg.game.initial)
    guard_region = {t.tid: rg.guard_region[t.tid] for t in transitions
                    if t.tid in rg.guard_region}
    return RegionGame(game, {n: r for n, r in rg.reg.items() if n in keep},
                      guard_region, trimmed=rg.trimmed, relaxed=rg.relaxed)


class MaxControlledCycle(StructuralError):
    """Max fully controls a cycle: the value from it is +infinity."""


def region_constraint_guards(r: Region) -> list[Guard]:
    """The guard clauses pinning an elapsed valuation inside region r."""
    out = [Guard(x, "==", 0) for x in sorted(r.zeros)]
    out += [Guard(x, "==", 1) for x in sorted(r.ones)]
    for b in r.interior:
        for x in sorted(b):
            out += [Guard(x, ">", 0), Guard(x, "<", 1)]
    return out


def build_region_wtg(game: WeightedTimedGame) -> RegionGame:
    """Refine a [0,1)-game so every location carries a single region."""
    n = len(game.clocks)
    regions = all_regions(n, include_ones=False)

    def rloc(name: str, r: Region) -> str:
        tag = "|".join(
            ",".join(game.clocks[x] for x in sorted(b)) for b in r.blocks)
        return f"{name}@[{tag}]"

    locations: dict[str, Location] = {}
    reg: dict[str, Region] = {}
    for name, loc in game.locations.items():
        for r in regions:
            lname = rloc(name, r)
            locations[lname] = replace(loc, name=lname)
            reg[lname] = r

    transitions: list[Transition] = []
    guard_region: dict[str, Region] = {}
    for t in game.transitions:
        for r in regions:
            for k, r2 in enumerate(r.time_successors()):
                tgt_region = r2.reset(t.resets) if t.resets else r2
                if not tgt_region.fractional:
                    # A clock would stay at exactly 1, impossible in a
                    # [0,1)-game; such a move can never fire.
                    continue
                tid = f"{t.tid}@{rloc(t.src, r)}~{k}"
                guards = tuple(dict.fromkeys(
                    list(t.guards) + region_constraint_guards(r2)))
                transitions.append(Transition(
                    tid=tid, src=rloc(t.src, r), tgt=rloc(t.tgt, tgt_region),
                    guards=guards, resets=t.resets, weight=t.weight,
                    synthetic=t.synthetic))
                guard_region[tid] = r2

    init = game.initial
    r0 = region_of(init.valuation)
    if not r0.fractional:
        raise InputError("initial valuation not in [0,1)")
    initial = Configuration(rloc(init.location, r0), init.valuation)
    g = WeightedTimedGame(list(game.clocks), locations, transitions, initial)
    return RegionGame(g, reg, guard_region)


def trim(rg: RegionGame) -> RegionGame:
    """Drop unsatisfiable transitions and region-implied guard clauses.

    A transition survives when a guard-satisfying delay exists from the
    source region (from every region of its adherence, once relaxed); a
    clause survives when some admissible elapsed valuation violates it.
    """
    closure = rg.relaxed
    kept: list[Transition] = []
    guard_region = dict(rg.guard_region)
    for t in rg.game.transitions:
        r = rg.reg[t.src]
        sources = adherence(r) if closure else [r]
        if not all(delay_feasible(s, t.guards, closure=closure) for s in sources):
            guard_region.pop(t.tid, None)
            continue
        clauses = []
        for g in t.guards:
            # A clause is redundant when no admissible elapsed valuation
            # from the (closed) region can violate it.
            removable = not any(
                delay_feasible(s, (), closure=closure, negate=g)
                for s in sources)
            if not removable:
                clauses.append(g)
        kept.append(replace(t, guards=tuple(clauses)))
    game = WeightedTimedGame(list(rg.game.clocks), dict(rg.game.locations),
                             kept, rg.game.initial)
    return RegionGame(game, dict(rg.reg), guard_region, trimmed=True,
                      relaxed=rg.relaxed)


def relax(rg: RegionGame) -> RegionGame:
    """Widen strict guards to their closure and re-trim over adherences."""
    if not rg.trimmed:
        raise StructuralError("relax expects a trimmed region game")
    transitions = [replace(t, guards=tuple(g.closed() for g in t.guards))
                   for t in rg.game.transitions]
    game = WeightedTimedGame(list(rg.game.clocks), dict(rg.game.locations),
                             transitions, rg.game.initial)
    return trim(RegionGame(game, dict(rg.reg), dict(rg.guard_region),
                           trimmed=True, relaxed=True))


def infer_guard_region(rg: RegionGame, t: Transition) -> Region:
    """The region whose closure holds every guard-satisfying elapsed point."""
    src = rg.reg[t.src]
    feas = []
    for cand in all_regions(len(rg.game.clocks)):
        if any(elapsed_region_feasible(s, cand, t.guards, closure=rg.relaxed)
               for s in (adherence(src) if rg.relaxed else [src])):
            feas.append(cand)
    if not feas:
        raise StructuralError(f"{t.tid}: guard unsatisfiable from its region")
    best = max(feas, key=lambda r: r.dim)
    for other in feas:
        if not other.in_closure_of(best):
            raise StructuralError(
                f"{t.tid}: firing set spans incomparable regions")
    return best


# ---------------------------------------------------------------------------
# All-reset transformation
# ---------------------------------------------------------------------------

def max_traps(game: WeightedTimedGame) -> set[str]:
    """The non-goal Max locations from which Max can keep the play among
    such locations forever: those that reach a cycle of them."""
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
    return reachable(back, on_cycle)


_COMPOSE_CAP = 10_000


def add_resets(rg: RegionGame) -> RegionGame:
    """Make every non-goal transition reset at least one clock.

    Reset-free transitions are first given forced timing: urgent ones
    (guarded x==0) start resetting, same-player ones are short-circuited
    into their successors, and cross-player ones are pinned to fire when
    the top clocks reach 1 (which never changes what either player can
    secure, both locations being weight-free).  Every location is then
    doubled with an "early reset" twin whose top clocks are already back
    at zero, so the pinned transitions can reset on the spot.
    """
    if not (rg.trimmed and rg.relaxed):
        raise StructuralError("add_resets expects a relaxed trimmed game")
    game = rg.game
    trapped = max_traps(game)
    if trapped:
        raise MaxControlledCycle(
            f"Max-controlled cycle reached from {min(trapped)}")
    goals = {name for name, loc in game.locations.items() if loc.is_goal}

    transitions = [t for t in game.transitions
                   if not (t.src == t.tgt and not t.resets
                           and game.locations[t.src].owner == MIN)]

    def needs_prepass(t: Transition) -> bool:
        return (t.tgt not in goals and not t.resets
                and not any(g.op == "==" and g.bound == 1 for g in t.guards))

    counter = itertools.count()
    steps = 0
    while True:
        todo = next((t for t in transitions if needs_prepass(t)), None)
        if todo is None:
            break
        steps += 1
        if steps > _COMPOSE_CAP:
            raise StructuralError("reset-free composition did not terminate")
        zero_clocks = {g.clock for g in todo.guards
                       if g.op == "==" and g.bound == 0}
        same_player = (game.locations[todo.src].owner
                       == game.locations[todo.tgt].owner)
        transitions.remove(todo)
        if zero_clocks:
            transitions.append(replace(todo, resets=frozenset(zero_clocks)))
        elif same_player:
            for t2 in list(transitions):
                if t2.src != todo.tgt or t2.tgt == todo.src:
                    continue
                transitions.append(Transition(
                    tid=f"{todo.tid}>{t2.tid}#{next(counter)}",
                    src=todo.src, tgt=t2.tgt,
                    guards=tuple(dict.fromkeys(list(todo.guards) + list(t2.guards))),
                    resets=t2.resets,
                    weight=todo.weight + t2.weight,
                    synthetic=todo.synthetic or t2.synthetic))
        else:
            up = min(rg.reg[todo.src].upclock)
            transitions.append(replace(
                todo, guards=tuple(list(todo.guards) + [Guard(up, "==", 1)])))

    # Doubling: l_down stands for l at the instant its top clocks hit 1,
    # with those clocks already reset.
    def down(name: str) -> str:
        return f"{name}~dn"

    reg2: dict[str, Region] = dict(rg.reg)
    locations = dict(game.locations)
    for name, loc in game.locations.items():
        r = rg.reg[name]
        dn_region = (Region((r.zeros | r.blocks[-1],) + r.blocks[1:-1])
                     if r.interior else r)
        locations[down(name)] = replace(loc, name=down(name))
        reg2[down(name)] = dn_region

    def guard_down(guards: tuple[Guard, ...], up: frozenset[int]) -> tuple[Guard, ...]:
        out = [g for g in guards
               if not (g.clock in up and g.op == "==" and g.bound == 1)]
        out += [Guard(x, "==", 0) for x in sorted(up)]
        return tuple(dict.fromkeys(out))

    new_trans: list[Transition] = []
    for t in transitions:
        up = rg.reg[t.src].upclock
        cd = guard_down(t.guards, up)
        if t.tgt in goals:
            # The plain copy is unchanged.  The early-reset copy arrives at
            # the goal with the clocks of ``up`` not reset by t physically
            # at 1 yet stored at 0, so it lands in a per-source goal twin
            # whose region has them at 0.
            new_trans.append(t)
            ones = up - t.resets
            if ones:
                twin = f"{down(t.tgt)}${t.tid}"
                locations[twin] = replace(game.locations[t.tgt], name=twin)
                reg2[twin] = rg.reg[t.tgt].reset(ones)
                tgt_dn = twin
            else:
                tgt_dn = t.tgt
            new_trans.append(Transition(
                tid=f"{t.tid}%gd", src=down(t.src), tgt=tgt_dn,
                guards=cd, resets=t.resets, weight=t.weight,
                synthetic=t.synthetic))
        elif not t.resets:
            if not any(g.op == "==" and g.bound == 1 and g.clock in up
                       for g in t.guards):
                raise StructuralError(
                    f"{t.tid}: reset-free transition without a top x==1 guard")
            new_trans.append(Transition(
                tid=f"{t.tid}%p", src=t.src, tgt=down(t.tgt),
                guards=t.guards, resets=up, weight=t.weight,
                synthetic=t.synthetic))
            new_trans.append(Transition(
                tid=f"{t.tid}%pd", src=down(t.src), tgt=down(t.tgt),
                guards=cd, resets=up, weight=t.weight,
                synthetic=t.synthetic))
        else:
            new_trans.append(t)
            new_trans.append(Transition(
                tid=f"{t.tid}%d", src=down(t.src), tgt=t.tgt,
                guards=cd, resets=t.resets | up, weight=t.weight,
                synthetic=t.synthetic))

    # Resetting a clock that is guarded to be exactly 0 is a no-op, so do it:
    # it settles the "every ==0/==1 guard resets its clock" postcondition.
    new_trans = [
        replace(t, resets=t.resets | {g.clock for g in t.guards
                                      if g.op == "==" and g.bound == 0})
        for t in new_trans]

    initial = game.initial
    out_game = WeightedTimedGame(list(game.clocks), locations, new_trans, initial)
    out = RegionGame(out_game, reg2, {}, trimmed=False, relaxed=True)
    out = prune_unreachable(out, roots=[initial.location])
    out = trim(out)
    for t in out.game.transitions:
        out.guard_region[t.tid] = infer_guard_region(out, t)
    return out


def prune_unreachable(rg: RegionGame, roots: Sequence[str]) -> RegionGame:
    """Restrict to locations reachable in the location graph from roots."""
    adj: dict[str, list[str]] = {}
    for t in rg.game.transitions:
        adj.setdefault(t.src, []).append(t.tgt)
    seen = reachable(adj, [r for r in roots if r in rg.game.locations])
    return restrict(rg, seen, [t.tid for t in rg.game.transitions])
