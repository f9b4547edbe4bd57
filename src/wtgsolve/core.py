"""Core model: turn-based weighted timed games with non-negative integer weights.

Clock valuations are tuples of exact rationals (one entry per clock, in the
order fixed by the game's clock list).  A delayed transition first lets time
elapse in the source location (paying delay * location weight), then fires a
transition whose guard must hold at the elapsed valuation (paying the
transition weight) and resets a subset of the clocks.
"""
from __future__ import annotations

from dataclasses import dataclass
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
    if value == INF:
        return "+inf"
    v = Fraction(value)
    return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)


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


@dataclass(frozen=True)
class Location:
    name: str
    owner: str  # MIN or MAX
    is_goal: bool = False
    weight: int = 0

    def __post_init__(self):
        if self.owner not in (MIN, MAX):
            raise InputError(f"location {self.name}: bad owner {self.owner!r}")
        if self.weight < 0:
            raise InputError(f"location {self.name}: negative weight")


@dataclass(frozen=True)
class Transition:
    tid: str
    src: str
    tgt: str
    guards: tuple[Guard, ...] = ()
    resets: frozenset[int] = frozenset()
    weight: int = 0

    def __post_init__(self):
        if self.weight < 0:
            raise InputError(f"transition {self.tid}: negative weight")


Valuation = tuple[Fraction, ...]


def satisfies(valuation: Valuation, guards: Iterable[Guard]) -> bool:
    return all(g.holds(valuation[g.clock]) for g in guards)


def elapse(valuation: Valuation, delay: Fraction) -> Valuation:
    if delay < 0:
        raise InvalidStep("negative delay")
    return tuple(v + delay for v in valuation)


def reset(valuation: Valuation, clocks: frozenset[int]) -> Valuation:
    return tuple(Fraction(0) if i in clocks else v for i, v in enumerate(valuation))


@dataclass(frozen=True)
class Configuration:
    location: str
    valuation: Valuation


@dataclass
class WeightedTimedGame:
    """A deadlock-prone raw game."""

    clocks: list[str]
    locations: dict[str, Location]
    transitions: list[Transition]
    initial: Configuration

    def __post_init__(self):
        names = set(self.locations)
        for t in self.transitions:
            if t.src not in names or t.tgt not in names:
                raise InputError(f"transition {t.tid}: unknown endpoint")
            for g in t.guards:
                if not 0 <= g.clock < len(self.clocks):
                    raise InputError(f"transition {t.tid}: unknown clock index")
        if self.initial.location not in names:
            raise InputError("unknown initial location")
        if len(self.initial.valuation) != len(self.clocks):
            raise InputError("initial valuation arity mismatch")
        tids = [t.tid for t in self.transitions]
        if len(set(tids)) != len(tids):
            raise InputError("duplicate transition ids")

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

