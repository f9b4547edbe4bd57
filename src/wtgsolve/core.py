"""Core model: turn-based weighted timed games with non-negative integer weights.

Clock valuations are tuples of exact rationals (one entry per clock, in the
order fixed by the game's clock list).  A delayed transition first lets time
elapse in the source location (paying delay * location weight), then fires a
transition whose guard must hold at the elapsed valuation (paying the
transition weight) and resets a subset of the clocks.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Union

#: +infinity marker for extended values.  ``Fraction`` compares cleanly
#: against ``float('inf')`` so min/max work on mixed sequences.
INF = float("inf")

ExtRat = Union[Fraction, float]

MIN = "min"
MAX = "max"

OPS = ("<", "<=", "==", ">=", ">")


class GameError(Exception):
    """Base class for all structured errors raised by the solver."""


class StructuralError(GameError):
    """The game (or an intermediate artifact) violates a structural invariant."""


class DomainError(GameError):
    """A function was evaluated or combined outside its domain."""


class InvalidStep(GameError):
    """A delayed transition was attempted whose guard fails."""


class InputError(GameError):
    """Malformed game description."""


def frac(value) -> Fraction:
    """Parse a rational from an int, Fraction or a 'p/q' string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"malformed rational {value!r}") from None
    raise InputError(f"not a rational: {value!r}")


def frac_str(value: ExtRat) -> str:
    return "+inf" if value == INF else str(Fraction(value))


class Guard(tuple):
    """A single atomic clock constraint ``clock op bound``.

    It is the tuple ``(clock, op, bound)``, so that it hashes and compares
    in C: the region tables look guards up by value, many times per solve.
    """

    __slots__ = ()

    def __new__(cls, clock: int, op: str, bound: int):
        if op not in OPS:
            raise InputError(f"bad guard operator {op!r}")
        return tuple.__new__(cls, (clock, op, bound))

    clock = property(itemgetter(0))
    op = property(itemgetter(1))
    bound = property(itemgetter(2))

    def holds(self, value: Fraction) -> bool:
        if self.op == "<":
            return value < self.bound
        if self.op == "<=":
            return value <= self.bound
        if self.op == "==":
            return value == self.bound
        if self.op == ">=":
            return value >= self.bound
        return value > self.bound

    def closed(self) -> "Guard":
        """Non-strict version of the constraint (used on region closures)."""
        if self.op == "<":
            return Guard(self.clock, "<=", self.bound)
        if self.op == ">":
            return Guard(self.clock, ">=", self.bound)
        return self


class _Slotted:
    """Equality, hash, ``repr`` and a checked copy, ``_replace``, over the
    fields in ``__slots__``, which nothing assigns after ``__init__``."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        return (self._values() == other._values()
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__name__}{self._values()!r}"

    def _replace(self, **changes):
        return type(self)(**dict(zip(self.__slots__, self._values()),
                                 **changes))


class Location(_Slotted):
    """A location, owned by MIN or MAX, paying ``weight`` per time unit.
    The solver reads locations and transitions in its inner loops, so
    they are slotted classes, not tuples."""

    __slots__ = ("name", "owner", "is_goal", "weight")

    def __init__(self, name: str, owner: str, is_goal: bool = False,
                 weight: int = 0):
        if owner not in (MIN, MAX):
            raise InputError(f"location {name}: bad owner {owner!r}")
        self.name, self.owner, self.is_goal, self.weight = (
            name, owner, is_goal, weight)


class Transition(_Slotted):
    """A move from ``src`` to ``tgt`` under the conjunction ``guards``,
    resetting the clock indices ``resets`` and paying ``weight``."""

    __slots__ = ("tid", "src", "tgt", "guards", "resets", "weight")

    def __init__(self, tid: str, src: str, tgt: str,
                 guards: tuple[Guard, ...] = (),
                 resets: frozenset[int] = frozenset(), weight: int = 0):
        self.tid, self.src, self.tgt = tid, src, tgt
        self.guards, self.resets, self.weight = guards, resets, weight


Valuation = tuple[Fraction, ...]


def satisfies(valuation: Valuation, guards: Iterable[Guard]) -> bool:
    return all(g.holds(valuation[g.clock]) for g in guards)


def elapse(valuation: Valuation, delay: Fraction) -> Valuation:
    if delay < 0:
        raise InvalidStep("negative delay")
    return tuple(v + delay for v in valuation)


def reset(valuation: Valuation, clocks: frozenset[int]) -> Valuation:
    return tuple(Fraction(0) if i in clocks else v for i, v in enumerate(valuation))


Configuration = namedtuple("Configuration", "location valuation")


class WeightedTimedGame(namedtuple(
        "WeightedTimedGame", "clocks locations transitions initial")):
    """A deadlock-prone raw game: clock names, locations by name, transitions
    and initial configuration, checked by ``__new__`` and ``_replace``.
    ``_make`` does not check: the pipeline builds its games with it."""

    __slots__ = ()

    def __new__(cls, clocks, locations, transitions, initial):
        indices = frozenset(range(len(clocks)))
        for name, l in locations.items():
            if type(l.weight) is not int or l.weight < 0:
                raise InputError(f"location {name}: weight {l.weight!r} "
                                 "is not a natural number")
        for t in transitions:
            if t.src not in locations or t.tgt not in locations:
                raise InputError(f"transition {t.tid}: unknown endpoint")
            if type(t.weight) is not int or t.weight < 0:
                raise InputError(f"transition {t.tid}: weight {t.weight!r} "
                                 "is not a natural number")
            for clock, _op, bound in t.guards:
                if clock not in indices:
                    raise InputError(f"transition {t.tid}: unknown clock index")
                if type(bound) is not int or bound < 0:
                    raise InputError(f"transition {t.tid}: guard bound "
                                     f"{bound!r} is not a natural number")
            if not indices.issuperset(t.resets):
                raise InputError(f"transition {t.tid}: resets an unknown "
                                 "clock index")
        if initial.location not in locations:
            raise InputError("unknown initial location")
        if len(initial.valuation) != len(clocks):
            raise InputError("initial valuation arity mismatch")
        if len({t.tid for t in transitions}) != len(transitions):
            raise InputError("duplicate transition ids")
        return super().__new__(cls, clocks, locations, transitions, initial)

    def _replace(self, **changes):
        return WeightedTimedGame(**{**self._asdict(), **changes})

    # -- basic semantics ---------------------------------------------------

    def transition_map(self) -> dict[str, Transition]:
        return {t.tid: t for t in self.transitions}

    def outgoing(self, loc: str) -> list[Transition]:
        return [t for t in self.transitions if t.src == loc]

    def max_constant(self) -> int:
        return max((g.bound for t in self.transitions for g in t.guards), default=0)

    def step(self, conf: Configuration, delay: Fraction, tid: str) -> tuple[Configuration, Fraction]:
        """Apply one delayed transition; returns (new configuration, weight)."""
        t = self.transition_map().get(tid)
        if t is None or t.src != conf.location:
            raise InvalidStep(f"transition {tid} not available at {conf.location}")
        mid = elapse(conf.valuation, delay)
        if not satisfies(mid, t.guards):
            raise InvalidStep(f"guard of {tid} fails after delay {delay}")
        w = delay * self.locations[conf.location].weight + t.weight
        return Configuration(t.tgt, reset(mid, t.resets)), w

