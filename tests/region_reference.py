"""The full region product that ``tests/test_regions.py`` checks the forward
``regions.build_region_wtg`` against: every [0,1)-region of every location,
and every move whose target region is fractional, satisfiable or not."""
from dataclasses import replace

from wtgsolve.core import (Configuration, InputError, Location, Transition,
                           WeightedTimedGame)
from wtgsolve.regions import (Region, RegionGame, all_regions,
                              region_constraint_guards, region_of)


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
