"""JSON (de)serialization for games and piecewise-linear functions."""
from __future__ import annotations

import json

from .core import (
    Configuration,
    Guard,
    InputError,
    Location,
    Transition,
    WeightedTimedGame,
    frac,
    frac_str,
)

_OP_ALIASES = {"<": "<", "<=": "<=", "=": "==", "==": "==", ">=": ">=", ">": ">"}


def _natural(value, what: str) -> int:
    """A JSON integer >= 0; anything else (1.5, true, "2", -1) is refused
    rather than truncated or coerced."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise InputError(f"{what}: expected a non-negative integer, got {value!r}")
    return value


def _array(value, what: str) -> list:
    """A JSON array; a string is refused rather than read as its characters."""
    if not isinstance(value, list):
        raise InputError(f"{what}: expected a JSON array, got {value!r}")
    return value


def _string(value, what: str) -> str:
    """A JSON string; a number is refused rather than used as a name."""
    if not isinstance(value, str):
        raise InputError(f"{what}: expected a JSON string, got {value!r}")
    return value


def game_from_dict(data: dict) -> WeightedTimedGame:
    """Build a game from its JSON form; malformed input raises InputError."""
    try:
        clocks = [_string(name, "clock name")
                  for name in _array(data["clocks"], "clocks")]
        index = {name: i for i, name in enumerate(clocks)}
        if len(index) != len(clocks):
            raise InputError("duplicate clock names")
        locations = {}
        for ld in data["locations"]:
            name = _string(ld["id"], "location id")
            goal = ld.get("goal", False)
            if not isinstance(goal, bool):
                raise InputError(f"location {name}: goal must be true or false")
            loc = Location(
                name=name,
                owner=ld["owner"],
                is_goal=goal,
                weight=_natural(ld.get("weight", 0), f"location {name} weight"),
            )
            if loc.name in locations:
                raise InputError(f"duplicate location {loc.name}")
            locations[loc.name] = loc
        transitions = []
        for i, td in enumerate(data["transitions"]):
            guards = []
            for clock, op, bound in td.get("guards", ()):
                if op not in _OP_ALIASES:
                    raise InputError(f"bad guard operator {op!r}")
                if clock not in index:
                    raise InputError(f"unknown clock {clock!r}")
                guards.append(Guard(index[clock], _OP_ALIASES[op],
                                    _natural(bound, f"transition {i} guard bound")))
            resets = []
            for clock in _array(td.get("resets", []), f"transition {i} resets"):
                if clock not in index:
                    raise InputError(f"unknown clock {clock!r}")
                resets.append(index[clock])
            transitions.append(
                Transition(
                    tid=_string(td.get("id", f"t{i}"), f"transition {i} id"),
                    src=td["from"],
                    tgt=td["to"],
                    guards=tuple(guards),
                    resets=frozenset(resets),
                    weight=_natural(td.get("weight", 0), f"transition {i} weight"),
                )
            )
        ini = data["initial"]
        vals = ini.get("valuation", {})
        if any(isinstance(v, bool) for v in vals.values()):
            raise InputError("initial valuation: expected rationals, got a boolean")
        for c in vals:
            if c not in index:
                raise InputError(f"initial valuation: unknown clock {c!r}")
        valuation = tuple(frac(vals.get(c, 0)) for c in clocks)
        initial = Configuration(ini["location"], valuation)
        return WeightedTimedGame(clocks, locations, transitions, initial)
    except KeyError as exc:
        raise InputError(f"missing field {exc}") from exc
    except (ValueError, TypeError, AttributeError, ZeroDivisionError) as exc:
        # a string where a number belongs, a list where an object does, ...
        raise InputError(f"malformed game: {exc}") from exc


def game_to_dict(game: WeightedTimedGame) -> dict:
    return {
        "clocks": list(game.clocks),
        "locations": [
            {"id": l.name, "owner": l.owner, "goal": l.is_goal, "weight": l.weight}
            for l in game.locations.values()
        ],
        "transitions": [
            {
                "id": t.tid,
                "from": t.src,
                "to": t.tgt,
                "guards": [[game.clocks[g.clock], g.op, g.bound] for g in t.guards],
                "resets": sorted(game.clocks[c] for c in t.resets),
                "weight": t.weight,
            }
            for t in game.transitions
        ],
        "initial": {
            "location": game.initial.location,
            "valuation": {
                c: frac_str(v) for c, v in zip(game.clocks, game.initial.valuation)
            },
        },
    }


def load_game(path: str) -> WeightedTimedGame:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise InputError(f"invalid JSON: {exc}") from exc
    return game_from_dict(data)


def save_game(game: WeightedTimedGame, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(game_to_dict(game), fh, indent=2)


def plf1_to_list(plf) -> object:
    if plf.is_infinite:
        return "+inf"
    return [[frac_str(x), frac_str(y)] for x, y in plf.points]
