"""References that ``tests/test_regions.py`` checks the region pipeline
against: the full region product, every [0,1)-region of every location and
every move whose target region is fractional, satisfiable or not, for the
forward ``regions.build_region_wtg``; and ``trim`` and
``infer_guard_region`` asking the feasibility predicates region by region
and clause by clause, over every region of a relaxed source's closure
(``adherence``), for the region-set versions in ``regions``."""
from dataclasses import replace

from wtgsolve.core import (Configuration, Guard, InputError, Location,
                           StructuralError, Transition, WeightedTimedGame)
from wtgsolve.regions import (Region, RegionGame, _table, all_regions,
                              delay_feasible, elapsed_region_feasible,
                              region_of)

# The atoms whose disjunction is the negation of a guard atom's operator.
COMPLEMENT = {"<": (">=",), "<=": (">",), "==": ("<", ">"), ">=": ("<",),
              ">": ("<=",)}


def adherence(r: Region) -> tuple[Region, ...]:
    """All regions contained in the topological closure of ``r``."""
    return _table(r.n_clocks).adherence[r]


def _from(r: Region, closure: bool) -> tuple[Region, ...]:
    """The regions whose points make up ``r``, or its closure if asked: a
    question from the closure is answered as the union of the questions
    from them."""
    return adherence(r) if closure else (r,)


def full_region_wtg(game: WeightedTimedGame) -> RegionGame:
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
                    list(t.guards) + list(_table(n).constraints[r2])))
                transitions.append(Transition(
                    tid=tid, src=rloc(t.src, r), tgt=rloc(t.tgt, tgt_region),
                    guards=guards, resets=t.resets, weight=t.weight))
                guard_region[tid] = r2

    init = game.initial
    r0 = region_of(init.valuation)
    if not r0.fractional:
        raise InputError("initial valuation not in [0,1)")
    initial = Configuration(rloc(init.location, r0), init.valuation)
    g = WeightedTimedGame(list(game.clocks), locations, transitions, initial)
    return RegionGame(g, reg, guard_region)


def trim(rg: RegionGame) -> RegionGame:
    """Drop unsatisfiable transitions and region-implied guard clauses."""
    closure = rg.relaxed
    kept: list[Transition] = []
    guard_region = dict(rg.guard_region)
    for t in rg.game.transitions:
        r = rg.reg[t.src]
        sources = adherence(r) if closure else [r]
        if not all(any(delay_feasible(a, t.guards) for a in _from(s, closure))
                   for s in sources):
            guard_region.pop(t.tid, None)
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
        kept.append(replace(t, guards=tuple(clauses)))
    game = WeightedTimedGame(list(rg.game.clocks), dict(rg.game.locations),
                             kept, rg.game.initial)
    return RegionGame(game, dict(rg.reg), guard_region, trimmed=True,
                      relaxed=rg.relaxed)


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
        if not other.in_closure_of(best):
            raise StructuralError(
                f"{t.tid}: firing set spans incomparable regions")
    return best
