"""Region machinery and the value-preserving game transformations.

A *region* partitions the clocks by fractional order: a (possibly empty)
block of clocks at exactly 0, a strictly increasing chain of non-empty
blocks strictly between 0 and 1, and a (possibly empty) block at exactly 1.
The pipeline built on top of regions takes a raw game to a form the kernel
value iteration can digest:

    normalize_01      -> the clock bound and the initial integer copy
    build_region_wtg  -> one forward walk over the reached (location, integer
                         parts, region): guards read over fractional parts
                         per integer copy, then refined per region, closed
                         and cut to the clauses the region does not imply
    relax             -> strict guards widened to their closure
    trim              -> drop unsatisfiable transitions and implied clauses
    add_resets        -> every non-goal transition resets at least one clock

The walk emits what ``trim(relax(.))`` would leave, so both return its
output as it is, and :func:`add_resets` emits its doubled game trimmed too.

Each transformation preserves the value of the game (checked externally
against the grid oracle on the test corpus).

After normalization every guard constant is 0 or 1, so a guard atom has one
truth value on a whole region, and the feasibility questions of the build,
trimming and guard-region inference are answered with sets of regions: the
regions elapsed from a region meet the regions on which each atom holds.
What depends on regions and 0/1 clauses alone, and not on the game, is
tabulated once per process and number of clocks (:class:`_Table`): those
sets, as int bitmasks, the corners and the pure :class:`Region` methods,
how an atom reads in an integer part, a move's clauses in an integer copy,
its firings from a region, the region it fires in
(:func:`infer_guard_region`: no game stores it) and its corner moves.
``restrict`` is the one way to cut a region game down to some of its
locations and transitions, and ``is_rollover`` the one test for what is a
rollover.
"""
from __future__ import annotations

import functools
import itertools
import operator
from collections import namedtuple
from typing import Collection, Iterable, Optional, Sequence

from .core import (
    MIN,
    OPS,
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
from .graphs import reachable


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------

class Region:
    """Ordered partition of the clock indices by fractional value.

    ``blocks[0]`` holds the clocks at exactly 0 (may be empty); blocks 1..p
    hold clocks sharing a value strictly between 0 and 1, in increasing
    order, and are never empty; ``ones`` holds the clocks at exactly 1.
    Equality is structural; the hash is computed once, at construction,
    since the region tables look regions up many times per solve.
    """

    def __init__(self, blocks: tuple[frozenset[int], ...],
                 ones: frozenset[int] = frozenset()):
        if not blocks:
            raise DomainError("region needs a zero block (possibly empty)")
        if not all(blocks[1:]):
            raise InputError("interior region blocks must be non-empty")
        if sum(map(len, blocks), len(ones)) != len(ones.union(*blocks)):
            raise InputError("region blocks must be disjoint")
        self.blocks, self.ones = blocks, ones
        self._hash = hash((blocks, ones))

    def __eq__(self, other):
        return (self.blocks == other.blocks and self.ones == other.ones
                if other.__class__ is Region else NotImplemented)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Region(blocks={self.blocks!r}, ones={self.ones!r})"

    # -- structure ----------------------------------------------------------

    @property
    def zeros(self) -> frozenset[int]:
        return self.blocks[0]

    @property
    def interior(self) -> tuple[frozenset[int], ...]:
        return self.blocks[1:]

    @property
    def dim(self) -> int:
        """Number of independent fractional values (dimension of the region)."""
        return len(self.blocks) - 1

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

    @functools.cached_property
    def n_clocks(self) -> int:
        """The number of clocks the region is over."""
        return max(self.ones.union(*self.blocks), default=-1) + 1

    # -- geometry ------------------------------------------------------------

    def corners(self) -> tuple[tuple[int, ...], ...]:
        """Vertices of the topological closure, as 0/1 int tuples, ordered
        bottom-up: the closure is the simplex on them.

        Corner j sends the first j interior blocks to 0 and the rest to 1,
        so corner 0 is the all-high vertex and corner dim the all-low one.
        """
        return _table(self.n_clocks).corners[self]

    # -- operations ----------------------------------------------------------

    def reset(self, clocks: Iterable[int]) -> "Region":
        return _table(self.n_clocks).reset[self, frozenset(clocks)]

    def time_successors(self) -> tuple["Region", ...]:
        """Regions reachable from here by letting time elapse (self first)."""
        if self.ones:
            raise DomainError("time successors are defined on [0,1)-regions")
        return _table(self.n_clocks).successors[self]


def region_of(valuation: Valuation) -> Region:
    """The unique region containing ``valuation`` (entries must be in [0,1])."""
    zeros, ones = set(), set()
    groups: dict = {}
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
def all_regions(n_clocks: int) -> tuple[Region, ...]:
    """Every region over clocks 0..n-1, the [0,1)-regions first."""
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
    for ones in _subsets(sorted(clocks)):
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


class _Table:
    """Every answer over n clocks that depends on regions and 0/1 clauses
    alone, computed once per process: the corners of each region, as 0/1
    int tuples, the results of the pure :class:`Region` methods, the
    clauses pinning a valuation to each region (``constraints``), the
    guards and resets of each set of clocks rolled over (``rolls``), each
    atom's :func:`_translate` row by how its constant compares with an
    integer part (``atoms``, ``spans``: see :func:`tops`), and, as ints
    whose bit i stands for region ``all_regions(n)[i]``, the regions
    elapsed from each region and those on which each atom with constant 0
    or 1 holds.  ``held`` (see :meth:`satisfying`), ``copies`` (see
    :func:`_copy_move`), ``candidates`` and ``questions`` (see
    :func:`build_region_wtg`), ``firing`` (see :func:`infer_guard_region`)
    and the corner moves of :meth:`corner_moves` fill in on first use."""

    def __init__(self, n: int):
        self.regions = regions = all_regions(n)
        canon = {r: r for r in regions}
        self.index = {r: i for i, r in enumerate(regions)}
        self.corners, self.successors, self.reset = {}, {}, {}
        self.constraints, self.firing, self._corner_moves = {}, {}, {}
        self.copies, self.candidates, self.held, self.questions = {}, {}, {}, {}
        # An atom x op c reads in integer part ni as x op (c - ni), alike for
        # all c - ni <= -1 and all c - ni >= 2; spans bound where it holds.
        self.atoms = {(x, op, d): _translate(Guard(x, op, d), 0)
                      for x in range(n) for op in OPS for d in range(-1, 3)}
        self.spans = {op: (min(ds), max(ds)) for op in OPS for ds in [[
            d for d in range(-1, 3)
            if _translate(Guard(0, op, d), 0) is not None]]}
        self.rolls = [("_".join(map(str, s)), [x in s for x in range(n)],
                       (*(Guard(x, "==", 1) for x in s),
                        *(Guard(y, "<", 1) for y in range(n) if y not in s)),
                       frozenset(s)) for s in _nonempty_subsets(range(n))]
        for r in regions:
            corners = [[int(x in r.ones) for x in range(n)]
                       for _ in range(r.dim + 1)]
            for i, b in enumerate(r.interior, start=1):
                for x in b:
                    for j, v in enumerate(corners):
                        v[x] = int(i > j)
            self.corners[r] = tuple(map(tuple, corners))
            self.constraints[r] = (
                *(Guard(x, "==", 0) for x in sorted(r.zeros)),
                *(Guard(x, "==", 1) for x in sorted(r.ones)),
                *(g for b in r.interior for x in sorted(b)
                  for g in (Guard(x, ">", 0), Guard(x, "<", 1))))
            if r.fractional:
                out = [r]
                shifted = (frozenset(),) + r.blocks if r.zeros else r.blocks
                if r.zeros:
                    out.append(Region(shifted))
                if n:  # the top block reaches 1, everything below interior
                    out.append(Region(shifted[:-1] or (frozenset(),),
                                      shifted[-1]))
                self.successors[r] = tuple(canon[s] for s in out)
            for xs in map(frozenset, _subsets(range(n))):
                blocks = [r.zeros | xs] + [b - xs for b in r.interior if b - xs]
                self.reset[r, xs] = canon[Region(tuple(blocks), r.ones - xs)]
        # The closure of r is the simplex on its corners, whose only 0/1
        # points are those corners: s lies in it when its corners do.
        sets = {r: set(c) for r, c in self.corners.items()}
        self.adherence = {r: tuple(s for s in regions if sets[s] <= sets[r])
                          for r in regions}
        self.elapsed = {r: self.mask(self.successors[r] if r.fractional
                                     else (r,)) for r in regions}
        # A clock reads 0, 1 or, in an interior block, a value between:
        # against twice the constant, 0, 2 or 1.
        self.sat = {g: self.mask(r for r in regions if Guard(
            g.clock, g.op, 2 * g.bound).holds(
            0 if g.clock in r.zeros else 2 if g.clock in r.ones else 1))
            for g in (Guard(x, op, c) for x in range(n) for op in OPS
                      for c in (0, 1))}

    def mask(self, regions: Iterable[Region]) -> int:
        return sum(1 << self.index[r] for r in regions)

    def decode(self, mask: int) -> tuple[Region, ...]:
        return tuple(r for i, r in enumerate(self.regions) if mask >> i & 1)

    def satisfying(self, guards: Iterable[Guard], mask: int) -> int:
        """The regions of ``mask`` on which every guard holds, by the mask
        kept per guards in ``held``.  A constant other than 0 or 1 has no
        single truth value on a region and raises :class:`StructuralError`."""
        guards = tuple(guards)
        if guards not in self.held:
            held = -1
            for g in guards:
                if g not in self.sat:
                    raise StructuralError(
                        f"guard constant {g.bound} is not 0 or 1")
                held &= self.sat[g]
            self.held[guards] = held
        return mask & self.held[guards]

    def corner_moves(self, src: Region, fire: Region, resets: frozenset[int],
                     tgt: Region, tid: str) -> list[tuple]:
        """The ``(corner, landed corner, delay)`` moves of a transition from
        ``src``, firing in ``fire`` and resetting ``resets`` into ``tgt``: a
        delay of 0 or 1 from a corner of src to one of fire, then the reset,
        over the corners of :meth:`Region.corners`.  ``tid`` only names the
        transition in the :class:`StructuralError` for a landed corner off
        tgt."""
        key = (src, fire, resets, tgt)
        moves = self._corner_moves.get(key)
        if moves is None:
            moves = []
            for c in self.corners[src]:
                for c2 in self.corners[fire]:
                    d = {b - a for a, b in zip(c, c2)}
                    if d not in ({0}, {1}):
                        continue
                    landed = tuple(0 if i in resets else v
                                   for i, v in enumerate(c2))
                    if landed not in self.corners[tgt]:
                        raise StructuralError(
                            f"corner {landed} off the target region of {tid}")
                    moves.append((c, landed, d.pop()))
            self._corner_moves[key] = moves
        return moves


@functools.lru_cache(maxsize=None)
def _table(n: int) -> _Table:
    return _Table(n)


# ---------------------------------------------------------------------------
# Feasibility by region sets
# ---------------------------------------------------------------------------

def elapsed_region_feasible(src: Region, target: Region,
                            guards: Sequence[Guard]) -> bool:
    """Is there nu in src and delta >= 0 with nu+delta satisfying
    ``guards`` and lying in ``target``?  Constants are as for
    :meth:`_Table.satisfying`."""
    table = _table(src.n_clocks)
    return bool(table.satisfying(guards, table.elapsed[src])
                >> table.index[target] & 1)


def delay_feasible(r: Region, guards: Sequence[Guard]) -> bool:
    """Is there nu in r and delta >= 0 with nu+delta inside [0,1]^X
    satisfying ``guards``?

    Each guard atom has one truth value on a whole region, so the answer is
    whether some region of those elapsed points satisfies them.  Constants
    are as for :meth:`_Table.satisfying`.
    """
    table = _table(r.n_clocks)
    return bool(table.satisfying(guards, table.elapsed[r]))


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
        return any(g.clock == x and (g.op == "<" and g.bound <= 1 or g.op in (
            "<=", "==") and g.bound <= (0 if strict else 1)) for g in t.guards)

    if m == 1 and all(
            pinned(t, x, strict=x not in t.resets)
            for t in game.transitions for x in range(len(game.clocks))):
        return 1
    return m + 1


def is_rollover(tid: str) -> bool:
    """Whether ``tid`` names a rollover: :func:`build_region_wtg` names them
    ``__roll_*``, the moves made from one keep the prefix, and
    :func:`normalize_01` rejects input ids that have it."""
    return tid.startswith("__roll_")


def _translate(g: Guard, ni: int) -> Optional[tuple[Guard, ...]]:
    """Clauses over the fractional clock of ``g`` in integer part ``ni``, or
    None when unsatisfiable.  The atom has one truth value at ni, one on
    (ni, ni + 1), read at ni + 1/2 (as 2ni + 1 against twice the bound), and
    one at ni + 1."""
    x = g.clock
    if Guard(x, g.op, 2 * g.bound).holds(2 * ni + 1):
        return () if g.holds(ni) else (Guard(x, ">", 0),)
    if g.holds(ni):
        return (Guard(x, "==", 0),)
    if g.holds(ni + 1):
        return (Guard(x, "==", 1),)
    return None


def _copy_move(table: _Table, t: Transition, nbar: tuple[int, ...]):
    """(number, guards, resets, target integer parts) of ``t`` in integer
    parts ``nbar``, or None when an atom fails there.  A clause x==1 resets
    x and bumps its integer part; a clock no clause pins to 0 or 1 stays
    below 1.  All but the target are kept, numbered, in ``table.copies`` per
    :func:`_translate` rows and resets; the target is nbar * keep + add."""
    trs = tuple([table.atoms[x, op, min(max(c - nbar[x], -1), 2)]
                 for x, op, c in t.guards])
    move = table.copies.get((trs, t.resets))
    if move is None:
        move = ()
        if None not in trs:
            clauses = [c for tr in trs for c in tr]
            bump = {g.clock for g in clauses if g.op == "==" and g.bound == 1}
            pinned = bump | {g.clock for g in clauses
                             if g.op == "==" and g.bound == 0}
            clauses += [Guard(x, "<", 1) for x in range(len(nbar))
                        if x not in pinned]
            keep = [int(x not in t.resets) for x in range(len(nbar))]
            move = (len(table.copies), tuple(dict.fromkeys(clauses)),
                    t.resets | bump, keep,
                    [k * (x in bump) for x, k in enumerate(keep)])
        table.copies[trs, t.resets] = move
    return move and (*move[:3], tuple(map(
        operator.add, map(operator.mul, nbar, move[3]), move[4])))


#: A game with clock integer parts folded out: copy (l, n1..nk) with
#: fractional valuation nu stands for l with valuation (n1+nu1, ..).  ``m``
#: is the clock bound and ``initial`` the initial copy and fractional
#: valuation; the walk translates the guards per copy it reaches.
Normalized = namedtuple("Normalized", "game m initial")


def tops(ng: Normalized, t: Transition) -> tuple[int, ...]:
    """Per clock, the highest integer part below ``ng.m`` at which every
    atom of ``t`` on that clock holds, or -1 when none does."""
    n = len(ng.game.clocks)
    lo, hi, spans = [0] * n, [ng.m - 1] * n, _table(n).spans
    for x, op, c in t.guards:
        dlo, dhi = spans[op]  # the atom holds in ni where c - ni spans these
        lo[x] = lo[x] if dhi == 2 else max(lo[x], c - dhi)
        hi[x] = hi[x] if dlo == -1 else min(hi[x], c - dlo)
    return tuple(h if l <= h else -1 for l, h in zip(lo, hi))


def normalize_01(game: WeightedTimedGame) -> Normalized:
    """Fold clock integer parts into the locations.

    Guards are rewritten over fractional parts (constants 0/1 only) by the
    walk, per copy it reaches; a guard x==1 always resets x and bumps the
    stored integer part.
    Zero-weight rollovers ``__roll_*`` let clocks cross an integer boundary
    mid-wait, so an input id with that prefix is rejected.  A move is a
    delay *plus* an enabled transition, so only the rollovers after which
    rollovers alone reach a real transition are live.  Rolling only raises
    integer parts, one clock at a time reaches every copy above, and a
    transition is enabled on a product of per-clock sets, so a copy of a
    non-goal location is live exactly when it lies, clock by clock, at or
    below the :func:`tops` of a transition leaving it.  Clocks are bounded by
    M = :func:`clock_bound`: a clock with only lower bounds is rejected.
    """
    m = clock_bound(game)
    for t in game.transitions:
        if is_rollover(t.tid):
            raise InputError(f"transition {t.tid}: ids starting with __roll_ "
                             "are kept for rollovers")
        upper = {x for x, op, _ in t.guards if op not in (">", ">=")}
        for x, _, _ in t.guards:
            if x not in upper:
                raise InputError(
                    f"transition {t.tid}: clock {game.clocks[x]} only has lower "
                    "bounds, so it is not syntactically bounded")

    nbar0, frac0 = [], []
    for v in game.initial.valuation:
        if not 0 <= v < m:
            raise InputError(f"initial clock value {v} out of [0,{m})")
        nbar0.append(int(v))
        frac0.append(v - int(v))
    return Normalized(game, m, (
        list(game.locations).index(game.initial.location), tuple(nbar0),
        tuple(frac0)))


# ---------------------------------------------------------------------------
# Region games
# ---------------------------------------------------------------------------

#: A game with one region per location plus transformation bookkeeping:
#: ``reg`` maps each location to its region.  The region a move fires in
#: is not stored: :func:`infer_guard_region` reads it from the table.
RegionGame = namedtuple("RegionGame", "game reg trimmed relaxed",
                        defaults=(False, False))


def restrict(rg: RegionGame, locations: Collection[str],
             tids: Collection[str]) -> RegionGame:
    """The sub-game on ``locations`` with the transitions ``tids`` between
    them.  Regions and flags carry over; orders are kept."""
    keep, kept_tids = set(locations), set(tids)
    transitions = [t for t in rg.game.transitions if t.tid in kept_tids
                   and t.src in keep and t.tgt in keep]
    game = WeightedTimedGame(
        list(rg.game.clocks),
        {n: l for n, l in rg.game.locations.items() if n in keep},
        transitions, rg.game.initial)
    return RegionGame(game, {n: r for n, r in rg.reg.items() if n in keep},
                      trimmed=rg.trimmed, relaxed=rg.relaxed)


def build_region_wtg(ng: Normalized) -> RegionGame:
    """Refine a normalized game so every location carries a single region.

    One forward walk expands each reached (location, integer parts, region)
    once.  A copy's moves are made on its first visit: its transitions
    whose atoms all hold there, then its live rollovers, those into a copy
    at or below, clock by clock, the :func:`tops` of a transition leaving a
    non-goal location (see :func:`normalize_01`).  A move from
    region r fires after the time successor k of r; it is kept when its
    target region is fractional and some delay from r satisfies its guard,
    the test :func:`trim` applies.  Its guard is emitted closed, without
    the clauses that hold after every delay from r: what :func:`relax` and
    then :func:`trim` would leave, so the game is flagged relaxed and
    trimmed.  The region table holds a move's clauses in a copy
    (:func:`_copy_move`) and its candidate firings (k, target region,
    emitted guards, guards) per (region, copy move); a call asks each
    feasibility question once, by its number, and finds the tops, the live
    copies and the region tags on first use.  Transitions come in the order
    (transition, integer parts, region, k), rollovers after them by
    (location, integer parts, clocks rolled, region, k), and locations by
    (location, integer parts, region): integer parts in
    ``itertools.product`` order, regions in :func:`all_regions` order.
    """
    game, table = ng.game, _table(len(ng.game.clocks))
    names, locs = list(game.locations), list(game.locations.values())
    index = {name: i for i, name in enumerate(names)}
    out_of: list[list[int]] = [[] for _ in names]
    for ti, t in enumerate(game.transitions):
        out_of[index[t.src]].append(ti)
    live, tags, named, feasible = {}, {}, {}, {}

    def copy_moves(li: int, nbar: tuple[int, ...]) -> list[tuple]:
        """(sort rank, id, target location, number, guards, resets, target
        integer parts, weight) per move: rollovers are numbered below 0."""
        part, out = ",".join(map(str, nbar)), []
        for ti in out_of[li]:
            t = game.transitions[ti]
            move = _copy_move(table, t, nbar)
            if move:
                out.append(((ti, nbar), f"{t.tid}#{part}", index[t.tgt],
                            *move, t.weight))
        if locs[li].is_goal:
            return out
        if li not in live:  # the copies of li at or below its tops
            live[li] = {c for ti in out_of[li] for c in itertools.product(
                *[range(h + 1) for h in tops(ng, game.transitions[ti])])}
        for si, (tag, bump, guards, resets) in enumerate(table.rolls):
            tgt = tuple(map(operator.add, nbar, bump))
            if tgt in live[li]:
                out.append(((len(game.transitions), li, nbar, si),
                            f"__roll_{names[li]}#{part}_{tag}", li, -1 - si,
                            guards, resets, tgt, 0))
        return out

    def rloc(key: tuple) -> str:
        li, nbar, ri = key
        if ri not in tags:
            tags[ri] = "|".join(",".join(game.clocks[x] for x in sorted(b))
                                for b in table.regions[ri].blocks)
        named[key] = f"{names[li]}#{','.join(map(str, nbar))}@[{tags[ri]}]"
        return named[key]

    def firings(ri: int, cid: int, guards0: tuple, resets) -> list[tuple]:
        """(k, target region index, emitted guards, (number, guards)) per
        candidate firing, with its feasibility question numbered per process."""
        r, cands = table.regions[ri], []
        for k, r2 in enumerate(r.time_successors()):
            r3 = table.reset[r2, resets] if resets else r2
            # A clock left at exactly 1 is impossible in a [0,1)-game.
            if not r3.ones:
                guards = tuple(dict.fromkeys((*guards0,
                                              *table.constraints[r2])))
                cands.append((k, table.index[r3], tuple(
                    g for g in map(Guard.closed, guards)
                    if table.elapsed[r] & ~table.sat[g]),
                    table.questions.setdefault(
                        (ri, guards), (len(table.questions), guards))))
        table.candidates[ri, cid] = cands
        return cands

    li0, nbar0, frac0 = ng.initial
    todo, moves, by_copy = [(li0, nbar0, table.index[region_of(frac0)])], [], {}
    initial = Configuration(rloc(todo[0]), frac0)
    while todo:
        li, nbar, ri = todo.pop()
        src = named[li, nbar, ri]
        if (li, nbar) not in by_copy:
            by_copy[li, nbar] = copy_moves(li, nbar)
        for rank, tid, lj, cid, guards0, resets, nbar2, w in by_copy[li, nbar]:
            cands = table.candidates.get((ri, cid))
            if cands is None:
                cands = firings(ri, cid, guards0, resets)
            for k, ri3, guards, (qi, full) in cands:
                if qi not in feasible:
                    feasible[qi] = delay_feasible(table.regions[ri], full)
                if not feasible[qi]:
                    continue
                tgt = (lj, nbar2, ri3)
                if tgt not in named:
                    todo.append(tgt)
                    rloc(tgt)
                moves.append(((rank, ri, k), Transition(
                    f"{tid}@{src}~{k}", src, named[tgt], guards, resets, w)))
    moves.sort(key=operator.itemgetter(0))
    keys = sorted(named)
    locations = {named[k]: Location(named[k], locs[k[0]].owner,
                                    locs[k[0]].is_goal, locs[k[0]].weight)
                 for k in keys}
    g = WeightedTimedGame(list(game.clocks), locations,
                          [t for _, t in moves], initial)
    return RegionGame(g, {named[k]: table.regions[k[2]] for k in keys},
                      trimmed=True, relaxed=True)


def trim(rg: RegionGame) -> RegionGame:
    """Drop unsatisfiable transitions and region-implied guard clauses.

    A transition survives when a guard-satisfying delay exists from the
    source region; a clause survives when some elapsed valuation violates
    it.  A game flagged trimmed is returned as it is: trimming it again
    changes nothing, and :func:`build_region_wtg` and :func:`add_resets`
    emit their moves trimmed, so no trim does work in the pipeline.
    Closing a guard keeps a satisfiable one satisfiable, and a clause
    implied by the region stays implied once closed, so one trim after
    closing drops all that a trim before it would.

    Once relaxed, the answers from r are those from its closure: relaxed
    guards are closed, so a delay that works from r works from every point
    of r's closure (a limit of bounded delays from points of r), and a
    clause that fails after some delay from the closure fails after one
    from r too, since a closed clause fails on an open set.
    """
    if rg.trimmed:
        return rg
    kept: list[Transition] = []
    table = _table(len(rg.game.clocks))
    for t in rg.game.transitions:
        elapsed = table.elapsed[rg.reg[t.src]]
        if not table.satisfying(t.guards, elapsed):
            continue
        # A clause is redundant when every elapsed valuation satisfies it.
        clauses = tuple(g for g in t.guards if elapsed & ~table.sat[g])
        kept.append(t if len(clauses) == len(t.guards)
                    else t._replace(guards=clauses))
    game = WeightedTimedGame(list(rg.game.clocks), dict(rg.game.locations),
                             kept, rg.game.initial)
    return RegionGame(game, dict(rg.reg), trimmed=True, relaxed=rg.relaxed)


def relax(rg: RegionGame) -> RegionGame:
    """Widen strict guards to their closure.  A game flagged relaxed, as
    :func:`build_region_wtg` emits, is returned as it is; otherwise the
    result is not trimmed: :func:`trim` it before :func:`add_resets`."""
    if rg.relaxed:
        return rg

    def closed(t: Transition) -> Transition:
        guards = tuple(g.closed() for g in t.guards)
        return t if guards == t.guards else t._replace(guards=guards)

    transitions = [closed(t) for t in rg.game.transitions]
    game = WeightedTimedGame(list(rg.game.clocks), dict(rg.game.locations),
                             transitions, rg.game.initial)
    return RegionGame(game, dict(rg.reg), relaxed=True)


def infer_guard_region(rg: RegionGame, t: Transition) -> Region:
    """The region ``t`` fires in: the one whose closure holds every
    guard-satisfying elapsed point, found once per (source region, guards)
    and kept in ``_Table.firing`` with why there is none, if so."""
    src = rg.reg[t.src]
    table = _table(src.n_clocks)
    fire = table.firing.get((src, t.guards))
    if fire is None:
        feas = table.decode(table.satisfying(t.guards, table.elapsed[src]))
        fire = max(feas, key=lambda r: r.dim, default=None)
        if fire is None:
            fire = "guard unsatisfiable from its region"
        elif not set(feas) <= set(table.adherence[fire]):
            fire = "firing set spans incomparable regions"
        table.firing[src, t.guards] = fire
    if isinstance(fire, str):
        raise StructuralError(f"{t.tid}: {fire}")
    return fire


# ---------------------------------------------------------------------------
# All-reset transformation
# ---------------------------------------------------------------------------

def add_resets(rg: RegionGame) -> RegionGame:
    """Make every non-goal transition reset at least one clock.

    Reset-free transitions are first given forced timing: urgent ones
    (guarded x==0) start resetting, same-player ones are short-circuited
    into their successors, and cross-player ones and moves into a dead end
    are pinned to fire when the top clocks reach 1 (which never changes
    what either player can secure: both locations of a cross-player move
    are weight-free, and a dead end is worth +inf whenever it is entered).
    Short-circuiting fires the parts at one instant, and it ends: a move
    equal (source, target, guards, resets, weight) to one composed before
    is not made again, nor is one still to short-circuit whose walk visits
    a location twice.  Such a loop costs Min no time and weight >= 0, and
    ``prune_max_traps`` leaves Max none, so the moves left to
    short-circuit follow simple paths, finitely many.  Every location is
    then doubled with an "early reset" twin whose top clocks are already
    back at zero, so the pinned transitions can reset on the spot.  Only
    what the initial location reaches in the doubled graph is built, found
    from names alone first.  The moves come out trimmed, as they went in,
    and :func:`infer_guard_region` refuses a guard no delay satisfies.
    """
    if not (rg.trimmed and rg.relaxed):
        raise StructuralError("add_resets expects a relaxed trimmed game")
    game = rg.game
    goals = {name for name, loc in game.locations.items() if loc.is_goal}

    transitions = [t for t in game.transitions
                   if not (t.src == t.tgt and not t.resets
                           and game.locations[t.src].owner == MIN)]

    def needs_prepass(t: Transition) -> bool:
        return (t.tgt not in goals and not t.resets
                and not any(g.op == "==" and g.bound == 1 for g in t.guards))

    # The locations each move walks through, and the composed moves made.
    walks = {t.tid: (t.src, t.tgt) for t in transitions}
    made: set[tuple] = set()
    while True:
        i = next((i for i, t in enumerate(transitions) if needs_prepass(t)),
                 None)
        if i is None:
            break
        todo = transitions[i]
        zero_clocks = {g.clock for g in todo.guards
                       if g.op == "==" and g.bound == 0}
        # A move into a dead end has no successors to compose with: pinned,
        # it survives, and its target stays a +inf sink.
        same_player = (game.locations[todo.src].owner
                       == game.locations[todo.tgt].owner
                       and any(t2.src == todo.tgt for t2 in transitions))
        del transitions[i]  # by place: Transitions compare field by field
        if zero_clocks:
            transitions.append(todo._replace(resets=frozenset(zero_clocks)))
        elif same_player:
            for t2 in list(transitions):
                if t2.src != todo.tgt or t2.tgt == todo.src:
                    continue
                t3 = Transition(
                    f"{todo.tid}>{t2.tid}#{len(made)}", todo.src, t2.tgt,
                    tuple(dict.fromkeys((*todo.guards, *t2.guards))),
                    t2.resets, todo.weight + t2.weight)
                key = (t3.src, t3.tgt, t3.guards, t3.resets, t3.weight)
                walk = walks[todo.tid] + walks[t2.tid][1:]
                if key in made or (needs_prepass(t3)
                                   and len(set(walk)) < len(walk)):
                    continue
                made.add(key)
                walks[t3.tid] = walk
                transitions.append(t3)
        else:
            up = min(rg.reg[todo.src].upclock)
            transitions.append(todo._replace(
                guards=(*todo.guards, Guard(up, "==", 1))))

    # Doubling: l_down stands for l at the instant its top clocks hit 1,
    # with those clocks already reset.
    def down(name: str) -> str:
        return f"{name}~dn"

    def guard_down(guards: tuple[Guard, ...], up: frozenset[int]) -> tuple[Guard, ...]:
        out = [g for g in guards
               if not (g.clock in up and g.op == "==" and g.bound == 1)]
        out += [Guard(x, "==", 0) for x in sorted(up)]
        return tuple(dict.fromkeys(out))

    # The moves each transition becomes, by name first: (transition, top
    # clocks of its source, id suffix, source, target, resets), where no
    # suffix keeps t as it is.  The early-reset copy of a move into a goal
    # arrives with the clocks of ``up`` not reset by t physically at 1 yet
    # stored at 0, so it lands in a per-source goal twin whose region has
    # them at 0.
    moves: list[tuple] = []
    for t in transitions:
        up, src_dn = rg.reg[t.src].upclock, down(t.src)
        if t.tgt in goals:
            tgt_dn = f"{down(t.tgt)}${t.tid}" if up - t.resets else t.tgt
            moves += [(t, up, "", t.src, t.tgt, t.resets),
                      (t, up, "%gd", src_dn, tgt_dn, t.resets)]
        elif not t.resets:
            if not any(g.op == "==" and g.bound == 1 and g.clock in up
                       for g in t.guards):
                raise StructuralError(
                    f"{t.tid}: reset-free transition without a top x==1 guard")
            moves += [(t, up, "%p", t.src, down(t.tgt), up),
                      (t, up, "%pd", src_dn, down(t.tgt), up)]
        else:
            moves += [(t, up, "", t.src, t.tgt, t.resets),
                      (t, up, "%d", src_dn, t.tgt, t.resets | up)]
    adj: dict[str, list[str]] = {}
    for *_, src, tgt, _ in moves:
        adj.setdefault(src, []).append(tgt)
    seen = reachable(adj, [game.initial.location])

    # Only what the initial location reaches is built: the originals, then
    # the early-reset twins, then the goal twins in the order of the moves.
    locations = {n: loc for n, loc in game.locations.items() if n in seen}
    reg2 = {n: r for n, r in rg.reg.items() if n in seen}
    for name, loc in game.locations.items():
        if down(name) in seen:
            r = rg.reg[name]
            locations[down(name)] = Location(name=down(name), owner=loc.owner,
                                             is_goal=loc.is_goal, weight=loc.weight)
            reg2[down(name)] = (Region((r.zeros | r.blocks[-1],) + r.blocks[1:-1])
                                if r.interior else r)

    # Resetting a clock that is guarded to be exactly 0 is a no-op, so do it:
    # it settles the "every ==0/==1 guard resets its clock" postcondition.
    new_trans: list[Transition] = []
    for t, up, suffix, src, tgt, resets in moves:
        if src not in seen:
            continue
        if tgt not in locations:  # a goal twin
            loc = game.locations[t.tgt]
            locations[tgt] = Location(name=tgt, owner=loc.owner,
                                      is_goal=loc.is_goal, weight=loc.weight)
            reg2[tgt] = rg.reg[t.tgt].reset(up - t.resets)
        guards = t.guards if src == t.src else guard_down(t.guards, up)
        zeros = {g.clock for g in guards if g.op == "==" and g.bound == 0}
        new_trans.append(t if not suffix and zeros <= resets else Transition(
            tid=t.tid + suffix, src=src, tgt=tgt, guards=guards,
            resets=resets | zeros, weight=t.weight))

    out_game = WeightedTimedGame(list(game.clocks), locations, new_trans,
                                 game.initial)
    return RegionGame(out_game, reg2, trimmed=True, relaxed=True)


def prune_unreachable(rg: RegionGame, roots: Sequence[str]) -> RegionGame:
    """Restrict to locations reachable in the location graph from roots;
    a game in which every location is reached is returned as it is."""
    adj: dict[str, list[str]] = {}
    for t in rg.game.transitions:
        adj.setdefault(t.src, []).append(t.tgt)
    seen = reachable(adj, [r for r in roots if r in rg.game.locations])
    if len(seen) == len(rg.game.locations):
        return rg
    return restrict(rg, seen, [t.tid for t in rg.game.transitions])
