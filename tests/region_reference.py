"""References that the region pipeline is checked against: the
materialising ``normalize_01``, which builds every integer copy of every
location and transition and the rollovers into the copies that the
backward search of ``live_copies`` finds live, and the forward
``build_region_wtg`` over the [0,1)-game it returns, which together give
what ``regions.build_region_wtg(regions.normalize_01(game))`` must give
field for field; the full region product, every [0,1)-region of every
location and every move whose target region is fractional, satisfiable or
not; and ``trim`` and ``infer_guard_region`` asking the feasibility
predicates region by region and clause by clause, over every region of a
relaxed source's closure (``adherence``), for the region-set versions in
``regions``; ``add_resets`` doubling every location and then cutting
the doubled game to what the initial location reaches and trimming it,
for the version in ``regions`` that builds only what it keeps and emits
it trimmed; and region membership of a valuation (``contains``) and one
valuation in each region (``representative``), which the region tables,
read off integer corners, are checked against."""
import itertools
from fractions import Fraction
from typing import Optional

from wtgsolve import regions
from wtgsolve.core import (MIN, Configuration, Guard, InputError, Location,
                           StructuralError, Transition, WeightedTimedGame)
from wtgsolve.regions import (Region, RegionGame, _table, all_regions,
                              clock_bound, delay_feasible,
                              elapsed_region_feasible, region_of)

# The atoms whose disjunction is the negation of a guard atom's operator.
COMPLEMENT = {"<": (">=",), "<=": (">",), "==": ("<", ">"), ">=": ("<",),
              ">": ("<=",)}


def adherence(r: Region) -> tuple[Region, ...]:
    """All regions contained in the topological closure of ``r``."""
    return _table(r.n_clocks).adherence[r]


def contains(r: Region, valuation, closed: bool = False) -> bool:
    """Is ``valuation`` in ``r`` (in its closure, if ``closed``)?"""
    if (any(valuation[x] != 0 for x in r.zeros)
            or any(valuation[x] != 1 for x in r.ones)):
        return False
    prev = 0
    for b in r.interior:
        vs = {valuation[x] for x in b}
        if len(vs) != 1:
            return False
        v = vs.pop()
        if not (prev <= v <= 1 if closed else prev < v < 1):
            return False
        prev = v
    return True


def representative(r: Region) -> tuple[Fraction, ...]:
    """One valuation in ``r``: interior block i at i/(dim+1)."""
    rep = [Fraction(x in r.ones) for x in range(r.n_clocks)]
    for i, b in enumerate(r.interior, start=1):
        for x in b:
            rep[x] = Fraction(i, r.dim + 1)
    return tuple(rep)


def _from(r: Region, closure: bool) -> tuple[Region, ...]:
    """The regions whose points make up ``r``, or its closure if asked: a
    question from the closure is answered as the union of the questions
    from them."""
    return adherence(r) if closure else (r,)


def _copy_name(name: str, nbar: tuple[int, ...]) -> str:
    return f"{name}#{','.join(map(str, nbar))}"


def translate(g: Guard, ni: int) -> Optional[list[Guard]]:
    """Clauses over the fractional clock of ``g`` in its integer copy
    ``ni``, or None when unsatisfiable.  The atom has one truth value at
    ni, one on (ni, ni + 1), read at ni + 1/2, and one at ni + 1."""
    x = g.clock
    if g.holds(ni + Fraction(1, 2)):
        return [] if g.holds(ni) else [Guard(x, ">", 0)]
    if g.holds(ni):
        return [Guard(x, "==", 0)]
    if g.holds(ni + 1):
        return [Guard(x, "==", 1)]
    return None


def live_copies(game: WeightedTimedGame,
                m: int) -> set[tuple[str, tuple[int, ...]]]:
    """The copies (location, integer parts) from which rollovers alone reach
    a copy in which some transition is enabled, found by one backward
    search over the integer copies 0..m-1: rolling the clocks of S ends in
    nbar from nbar - S, and one clock at a time reaches all of those
    copies.  A goal rolls nowhere."""
    live = set()
    for t in game.transitions:
        parts = [range(m)] * len(game.clocks)
        for g in t.guards:
            parts[g.clock] = [ni for ni in parts[g.clock]
                              if translate(g, ni) is not None]
        live.update((t.src, nbar) for nbar in itertools.product(*parts))
    todo = list(live)
    while todo:
        name, nbar = todo.pop()
        if game.locations[name].is_goal:
            continue
        for x, v in enumerate(nbar):
            copy = (name, (*nbar[:x], v - 1, *nbar[x + 1:]))
            if v and copy not in live:
                live.add(copy)
                todo.append(copy)
    return live


def normalize_01(game: WeightedTimedGame) -> WeightedTimedGame:
    """Fold clock integer parts into the locations.

    Location (l, n1..nk) with fractional valuation nu stands for l with
    valuation (n1+nu1, ..).  Guards are rewritten over fractional parts
    (constants 0/1 only); a guard x==1 always resets x and bumps the stored
    integer part.  Zero-weight "rollover" transitions let a clock cross an
    integer boundary mid-wait; only those into :func:`live_copies` are
    kept.  Clocks are assumed bounded by M = max guard constant + 1; guards
    that stay satisfiable at arbitrarily large clock values are rejected,
    and so are input ids with the rollovers' prefix.
    """
    n = len(game.clocks)
    m = clock_bound(game)
    for t in game.transitions:
        if t.tid.startswith("__roll_"):
            raise InputError(f"transition {t.tid}: ids starting with __roll_ "
                             "are kept for rollovers")
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
            locations[_copy_name(name, nbar)] = loc._replace(name=_copy_name(name, nbar))

    transitions: list[Transition] = []
    for t in game.transitions:
        by_copy = [[translate(g, ni) for ni in range(m)] for g in t.guards]
        for nbar in copies:
            trs = [row[nbar[g.clock]] for g, row in zip(t.guards, by_copy)]
            if None in trs:
                continue
            clauses = [c for tr in trs for c in tr]
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
            ))

    # Rollover: while waiting, the clocks of set S hit 1 together and wrap
    # into the next integer part.  Same physical state, corrected encoding.
    live = live_copies(game, m)
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
                    if (name, target) not in live:
                        continue
                    transitions.append(Transition(
                        tid=f"__roll_{name}#{','.join(map(str, nbar))}_{'_'.join(map(str, s))}",
                        src=_copy_name(name, nbar),
                        tgt=_copy_name(name, target),
                        guards=tuple(guards),
                        resets=frozenset(s),
                    ))

    init = game.initial
    nbar0, frac0 = [], []
    for v in init.valuation:
        if not 0 <= v < m:
            raise InputError(f"initial clock value {v} out of [0,{m})")
        nbar0.append(int(v))
        frac0.append(v - int(v))
    initial = Configuration(_copy_name(init.location, tuple(nbar0)), tuple(frac0))
    return WeightedTimedGame(list(game.clocks), locations, transitions, initial)


def build_region_wtg(game: WeightedTimedGame) -> RegionGame:
    """Refine a [0,1)-game so every location carries a single region.

    Only the region-locations reachable from the initial one are built.  A
    move of transition t from region r fires after the time successor k of
    r; it is kept when its target region is fractional and some delay from
    r satisfies its guard, the test :func:`trim` applies.  Locations and
    transitions come in product order: input location or transition, then
    region in :func:`all_regions` order, then k.
    """
    init = game.initial
    r0 = region_of(init.valuation)
    if not r0.fractional:
        raise InputError("initial valuation not in [0,1)")
    order = {r: i for i, r in enumerate(all_regions(len(game.clocks)))
             if r.fractional}
    pinned = _table(len(game.clocks)).constraints
    rank = {name: i for i, name in enumerate(game.locations)}

    def rloc(name: str, r: Region) -> str:
        tag = "|".join(
            ",".join(game.clocks[x] for x in sorted(b)) for b in r.blocks)
        return f"{name}@[{tag}]"

    out_of: dict[str, list[tuple[int, Transition]]] = {}
    for i, t in enumerate(game.transitions):
        out_of.setdefault(t.src, []).append((i, t))
    seen, todo, moves = {(init.location, r0)}, [(init.location, r0)], []
    while todo:
        name, r = todo.pop()
        src = rloc(name, r)
        for i, t in out_of.get(name, ()):
            for k, r2 in enumerate(r.time_successors()):
                tgt = (t.tgt, r2.reset(t.resets) if t.resets else r2)
                # A clock left at exactly 1 is impossible in a [0,1)-game.
                if not tgt[1].fractional:
                    continue
                guards = tuple(dict.fromkeys((*t.guards, *pinned[r2])))
                if not delay_feasible(r, guards):
                    continue
                moves.append(((i, order[r], k), Transition(
                    tid=f"{t.tid}@{src}~{k}", src=src,
                    tgt=rloc(*tgt), guards=guards, resets=t.resets,
                    weight=t.weight)))
                if tgt not in seen:
                    seen.add(tgt)
                    todo.append(tgt)
    moves.sort(key=lambda m: m[0])
    locations: dict[str, Location] = {}
    reg: dict[str, Region] = {}
    for n, r in sorted(seen, key=lambda nr: (rank[nr[0]], order[nr[1]])):
        reg[rloc(n, r)] = r
        locations[rloc(n, r)] = game.locations[n]._replace(name=rloc(n, r))
    g = WeightedTimedGame(list(game.clocks), locations, [t for _, t in moves],
                          Configuration(rloc(init.location, r0), init.valuation))
    return RegionGame(g, reg)


def full_region_wtg(game: WeightedTimedGame) -> RegionGame:
    """Refine a [0,1)-game so every location carries a single region."""
    n = len(game.clocks)
    regions = [r for r in all_regions(n) if r.fractional]

    def rloc(name: str, r: Region) -> str:
        tag = "|".join(
            ",".join(game.clocks[x] for x in sorted(b)) for b in r.blocks)
        return f"{name}@[{tag}]"

    locations: dict[str, Location] = {}
    reg: dict[str, Region] = {}
    for name, loc in game.locations.items():
        for r in regions:
            lname = rloc(name, r)
            locations[lname] = loc._replace(name=lname)
            reg[lname] = r

    transitions: list[Transition] = []
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
                    list(t.guards) + list(_table(n).constraints[r2])))
                transitions.append(Transition(
                    tid=tid, src=rloc(t.src, r), tgt=rloc(t.tgt, tgt_region),
                    guards=guards, resets=t.resets, weight=t.weight))

    init = game.initial
    r0 = region_of(init.valuation)
    if not r0.fractional:
        raise InputError("initial valuation not in [0,1)")
    initial = Configuration(rloc(init.location, r0), init.valuation)
    g = WeightedTimedGame(list(game.clocks), locations, transitions, initial)
    return RegionGame(g, reg)


def trim(rg: RegionGame) -> RegionGame:
    """Drop unsatisfiable transitions and region-implied guard clauses."""
    closure = rg.relaxed
    kept: list[Transition] = []
    for t in rg.game.transitions:
        r = rg.reg[t.src]
        sources = adherence(r) if closure else [r]
        if not all(any(delay_feasible(a, t.guards) for a in _from(s, closure))
                   for s in sources):
            continue
        clauses = []
        for g in t.guards:
            # A clause is redundant when no admissible elapsed valuation
            # from the (closed) region can violate it.
            removable = not any(
                delay_feasible(a, (Guard(g.clock, op, g.bound),))
                for s in sources for a in _from(s, closure)
                for op in COMPLEMENT[g.op])
            if not removable:
                clauses.append(g)
        kept.append(t._replace(guards=tuple(clauses)))
    game = WeightedTimedGame(list(rg.game.clocks), dict(rg.game.locations),
                             kept, rg.game.initial)
    return RegionGame(game, dict(rg.reg), trimmed=True, relaxed=rg.relaxed)


def infer_guard_region(rg: RegionGame, t: Transition) -> Region:
    """The region whose closure holds every guard-satisfying elapsed point."""
    src, closure = rg.reg[t.src], rg.relaxed
    feas = {cand for s in (adherence(src) if closure else [src])
            for cand in all_regions(len(rg.game.clocks))
            if any(elapsed_region_feasible(a, cand, t.guards)
                   for a in _from(s, closure))}
    if not feas:
        raise StructuralError(f"{t.tid}: guard unsatisfiable from its region")
    best = max(feas, key=lambda r: r.dim)
    for other in feas:
        if other not in adherence(best):
            raise StructuralError(
                f"{t.tid}: firing set spans incomparable regions")
    return best


def add_resets(rg: RegionGame) -> RegionGame:
    """Make every non-goal transition reset at least one clock.

    Reset-free transitions are first given forced timing: urgent ones
    (guarded x==0) start resetting, same-player ones are short-circuited
    into their successors, and cross-player ones and moves into a dead end
    are pinned to fire when the top clocks reach 1 (which never changes
    what either player can secure: both locations of a cross-player move
    are weight-free, and a dead end is worth +inf whenever it is entered).
    A composed move equal to one composed before (same source, target,
    guards, resets and weight) is not made again, and one that still needs
    short-circuiting is not made on a walk that visits a location twice.
    Every location is then doubled with an "early reset" twin whose top
    clocks are already back at zero, so the pinned transitions can reset on
    the spot, and the doubled game is cut to what the initial location
    reaches and trimmed.
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

    walks = {t.tid: [t.src, t.tgt] for t in transitions}
    made: list[Transition] = []
    while True:
        todo = next((t for t in transitions if needs_prepass(t)), None)
        if todo is None:
            break
        zero_clocks = {g.clock for g in todo.guards
                       if g.op == "==" and g.bound == 0}
        # A move into a dead end has no successors to compose with: pinned,
        # it survives, and its target stays a +inf sink.
        same_player = (game.locations[todo.src].owner
                       == game.locations[todo.tgt].owner
                       and any(t2.src == todo.tgt for t2 in transitions))
        transitions.remove(todo)
        if zero_clocks:
            transitions.append(Transition(
                tid=todo.tid, src=todo.src, tgt=todo.tgt, guards=todo.guards,
                resets=frozenset(zero_clocks), weight=todo.weight))
        elif same_player:
            for t2 in list(transitions):
                if t2.src != todo.tgt or t2.tgt == todo.src:
                    continue
                composed = Transition(
                    tid=f"{todo.tid}>{t2.tid}#{len(made)}",
                    src=todo.src, tgt=t2.tgt,
                    guards=tuple(dict.fromkeys(list(todo.guards) + list(t2.guards))),
                    resets=t2.resets,
                    weight=todo.weight + t2.weight)
                same = composed._replace(tid="")
                walk = walks[todo.tid] + walks[t2.tid][1:]
                if same in made or (needs_prepass(composed)
                                    and len(set(walk)) < len(walk)):
                    continue
                made.append(same)
                walks[composed.tid] = walk
                transitions.append(composed)
        else:
            up = min(rg.reg[todo.src].upclock)
            transitions.append(Transition(
                tid=todo.tid, src=todo.src, tgt=todo.tgt,
                guards=tuple(list(todo.guards) + [Guard(up, "==", 1)]),
                resets=todo.resets, weight=todo.weight))

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
        locations[down(name)] = Location(name=down(name), owner=loc.owner,
                                         is_goal=loc.is_goal, weight=loc.weight)
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
                loc = game.locations[t.tgt]
                locations[twin] = Location(name=twin, owner=loc.owner,
                                           is_goal=loc.is_goal, weight=loc.weight)
                reg2[twin] = rg.reg[t.tgt].reset(ones)
                tgt_dn = twin
            else:
                tgt_dn = t.tgt
            new_trans.append(Transition(
                tid=f"{t.tid}%gd", src=down(t.src), tgt=tgt_dn,
                guards=cd, resets=t.resets, weight=t.weight))
        elif not t.resets:
            if not any(g.op == "==" and g.bound == 1 and g.clock in up
                       for g in t.guards):
                raise StructuralError(
                    f"{t.tid}: reset-free transition without a top x==1 guard")
            new_trans.append(Transition(
                tid=f"{t.tid}%p", src=t.src, tgt=down(t.tgt),
                guards=t.guards, resets=up, weight=t.weight))
            new_trans.append(Transition(
                tid=f"{t.tid}%pd", src=down(t.src), tgt=down(t.tgt),
                guards=cd, resets=up, weight=t.weight))
        else:
            new_trans.append(t)
            new_trans.append(Transition(
                tid=f"{t.tid}%d", src=down(t.src), tgt=t.tgt,
                guards=cd, resets=t.resets | up, weight=t.weight))

    # Resetting a clock that is guarded to be exactly 0 is a no-op, so do it:
    # it settles the "every ==0/==1 guard resets its clock" postcondition.
    def settle(t: Transition) -> Transition:
        zeros = {g.clock for g in t.guards if g.op == "==" and g.bound == 0}
        return t if zeros <= t.resets else Transition(
            tid=t.tid, src=t.src, tgt=t.tgt, guards=t.guards,
            resets=t.resets | zeros, weight=t.weight)

    new_trans = [settle(t) for t in new_trans]

    initial = game.initial
    out_game = WeightedTimedGame(list(game.clocks), locations, new_trans, initial)
    out = RegionGame(out_game, reg2, trimmed=False, relaxed=True)
    out = regions.prune_unreachable(out, roots=[initial.location])
    return regions.trim(out)

