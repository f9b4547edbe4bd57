"""Discretized backward-induction oracle.

This deliberately plays a *different*, simpler game than the solver: delays
and valuations are multiples of 1/N, clocks are capped at an integer bound,
and Min must reach a goal within a bounded number of steps.  On instances
whose optimal delays are grid-aligned the oracle is exact; elsewhere it is
used within an explicit tolerance.  Values are stored as scaled int64 numpy
arrays with a large sentinel for +infinity, and the delay alternative is
folded into a diagonal chain recurrence (waiting one tick keeps the play in
the same location), so each horizon layer is a few vectorized passes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .core import (
    INF,
    MAX,
    MIN,
    Configuration,
    ExtRat,
    Guard,
    InputError,
    InvalidStep,
    Valuation,
    WeightedTimedGame,
)

INF_I = np.int64(2) ** 62

WOutFn = Callable[[Valuation], Fraction]


def grid_tolerance(max_loc_weight: int, max_out_slope: Fraction,
                   horizon: int, n_grid: int) -> Fraction:
    """Error bound between grid and continuous play: one tick of rounding
    per step, each worth at most the steepest rate in the game."""
    s = (Fraction(max_loc_weight) + abs(Fraction(max_out_slope))) * (horizon + 1)
    return 2 * s / n_grid


class GridOracle:
    """Bounded-horizon values of the grid-restricted game.

    ``value_at(loc, valuation, k)`` is the value when Min must reach a goal
    within k grid steps, each step being any number of 1/N waiting ticks
    followed by one transition.
    """

    def __init__(self, game: WeightedTimedGame, n_grid: int, horizon: int,
                 clock_cap: Optional[int] = None,
                 w_out: Optional[Mapping[str, WOutFn]] = None,
                 keep_layers: bool = True):
        if n_grid < 2:
            raise InputError("grid resolution must be at least 2")
        self.game = game
        self.n_grid = n_grid
        self.horizon = horizon
        self.n = len(game.clocks)
        self.cap = clock_cap if clock_cap is not None else max(
            1, game.max_constant())
        self.ticks = self.cap * n_grid  # max tick per clock
        self.shape = (self.ticks + 1,) * self.n
        self.w_out = dict(w_out or {})
        for v in game.initial.valuation:
            if (v * n_grid).denominator != 1:
                raise InputError(
                    f"initial valuation {v} not on the 1/{n_grid} grid")

        self._goal_layers, self.scale = self._build_goal_layers()
        self._layers: list[dict[str, np.ndarray]] = []
        self.trace: list[ExtRat] = []
        layer = self._layer_zero()
        if keep_layers:
            self._layers.append(layer)
        self.trace.append(self._read(layer, game.initial))
        for _ in range(horizon):
            layer = self._step(layer)
            if keep_layers:
                self._layers.append(layer)
            self.trace.append(self._read(layer, game.initial))
        self._final = layer
        self.keep_layers = keep_layers

    # -- construction   -----------------------------------------------------

    def _grid_points(self):
        return np.ndindex(self.shape)

    def _build_goal_layers(self):
        values: dict[str, list] = {}
        denom = 1
        for name, loc in self.game.locations.items():
            if not loc.is_goal:
                continue
            fn = self.w_out.get(name)
            if fn is None:
                values[name] = None
                continue
            vals = []
            for idx in self._grid_points():
                v = fn(tuple(Fraction(i, self.n_grid) for i in idx))
                if v == INF:
                    vals.append(INF)
                else:
                    v = Fraction(v)
                    denom = denom * v.denominator // math.gcd(denom, v.denominator)
                    vals.append(v)
            values[name] = vals
        scale = self.n_grid * denom
        layers = {}
        for name, vals in values.items():
            if vals is None:
                layers[name] = np.zeros(self.shape, dtype=np.int64)
            else:
                arr = np.fromiter(
                    (INF_I if v == INF else int(v * scale) for v in vals),
                    dtype=np.int64, count=len(vals)).reshape(self.shape)
                layers[name] = arr
        return layers, scale

    def _layer_zero(self) -> dict[str, np.ndarray]:
        layer = {}
        for name, loc in self.game.locations.items():
            if loc.is_goal:
                layer[name] = self._goal_layers[name]
            else:
                layer[name] = np.full(self.shape, INF_I, dtype=np.int64)
        return layer

    def _guard_mask(self, guards: Sequence[Guard]) -> np.ndarray:
        mask = np.ones(self.shape, dtype=bool)
        for g in guards:
            ax = np.arange(self.ticks + 1)
            b = g.bound * self.n_grid
            ops = {"<": ax < b, "<=": ax <= b, "==": ax == b,
                   ">=": ax >= b, ">": ax > b}
            m1 = ops[g.op]
            shape = [1] * self.n
            shape[g.clock] = self.ticks + 1
            mask &= m1.reshape(shape)
        return mask

    def _reset_view(self, arr: np.ndarray, resets) -> np.ndarray:
        out = arr
        for d in sorted(resets):
            out = out.take([0], axis=d)
        return np.broadcast_to(out, self.shape)

    def _step(self, prev: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        nxt: dict[str, np.ndarray] = {}
        for name, loc in self.game.locations.items():
            if loc.is_goal:
                nxt[name] = self._goal_layers[name]
                continue
            is_min = loc.owner == MIN
            bottom = INF_I if is_min else -INF_I
            ext = np.minimum if is_min else np.maximum
            t_arr = np.full(self.shape, bottom, dtype=np.int64)
            for t in self.game.outgoing(name):
                base = self._reset_view(prev[t.tgt], t.resets)
                cand = np.where(base >= INF_I, INF_I,
                                base + t.weight * self.scale)
                cand = np.where(self._guard_mask(t.guards), cand, bottom)
                t_arr = ext(t_arr, cand)
            nxt[name] = self._wait_chain(t_arr, loc.weight, is_min)
        return nxt

    def _wait_chain(self, t_arr: np.ndarray, loc_weight: int,
                    is_min: bool) -> np.ndarray:
        """Fold "wait one tick, then do the best from there" into t_arr."""
        step = loc_weight * self.scale // self.n_grid
        ext = np.minimum if is_min else np.maximum
        a = t_arr.copy()
        if self.n == 1:
            for i in range(self.ticks - 1, -1, -1):
                w = self._waited(a[i + 1], step)
                a[i] = ext(a[i], w)
        else:
            inner = (slice(0, self.ticks),) * (self.n - 1)
            shifted = (slice(1, None),) * (self.n - 1)
            for i in range(self.ticks - 1, -1, -1):
                w = self._waited(a[i + 1][shifted], step)
                a[i][inner] = ext(a[i][inner], w)
        if not is_min:
            # A stuck play never reaches a goal: worth +inf, which suits Max.
            a = np.where(a <= -INF_I, INF_I, a)
        return a

    @staticmethod
    def _waited(nxt, step):
        return np.where(nxt >= INF_I, INF_I,
                        np.where(nxt <= -INF_I, nxt, nxt + step))

    # -- reading -------------------------------------------------------------

    def _ticks_of(self, valuation: Valuation) -> tuple[int, ...]:
        out = []
        for v in valuation:
            tv = Fraction(v) * self.n_grid
            if tv.denominator != 1 or not 0 <= tv <= self.ticks:
                raise InputError(f"valuation entry {v} not on the grid")
            out.append(int(tv))
        return tuple(out)

    def _read(self, layer, conf: Configuration) -> ExtRat:
        raw = layer[conf.location][self._ticks_of(conf.valuation)]
        return INF if raw >= INF_I else Fraction(int(raw), self.scale)

    def value_at(self, loc: str, valuation: Valuation,
                 k: Optional[int] = None) -> ExtRat:
        if k is None:
            layer = self._final
        else:
            if not self.keep_layers:
                raise InputError("layers were not kept")
            layer = self._layers[k]
        return self._read(layer, Configuration(loc, tuple(map(Fraction, valuation))))

    @property
    def value(self) -> ExtRat:
        """Bounded value at the initial configuration, full horizon."""
        return self.trace[-1]

    # -- strategies and play ---------------------------------------------------

    def moves(self, loc: str, ticks: tuple[int, ...], k: int):
        """All (delay ticks, transition, resulting value) triples at a state
        with k steps remaining (k >= 1)."""
        if not self.keep_layers:
            raise InputError("layers were not kept")
        prev = self._layers[k - 1]
        w = self.game.locations[loc].weight
        out = []
        max_d = self.ticks - max(ticks, default=0)
        for d in range(max_d + 1):
            moved = tuple(i + d for i in ticks)
            val = tuple(Fraction(i, self.n_grid) for i in moved)
            for t in self.game.outgoing(loc):
                if not all(g.holds(val[g.clock]) for g in t.guards):
                    continue
                landed = tuple(0 if c in t.resets else i
                               for c, i in enumerate(moved))
                raw = prev[t.tgt][landed]
                if raw >= INF_I:
                    res: ExtRat = INF
                else:
                    res = (Fraction(int(raw), self.scale)
                           + Fraction(d, self.n_grid) * w + t.weight)
                out.append((d, t, res))
        return out

    def greedy_move(self, loc: str, ticks: tuple[int, ...], k: int):
        """The table-consistent move (smallest delay, then transition id)."""
        options = self.moves(loc, ticks, k)
        if not options:
            return None
        best = (min if self.game.locations[loc].owner == MIN else max)(
            o[2] for o in options)
        chosen = min((o for o in options if o[2] == best),
                     key=lambda o: (o[0], o[1].tid))
        return chosen

    def play(self, strategy_min=None, strategy_max=None,
             start: Optional[Configuration] = None):
        """Run the grid game; strategies map (loc, ticks, k) -> (d, tid),
        defaulting to the greedy table strategy.  Returns (run, weight)."""
        conf = start or self.game.initial
        ticks = self._ticks_of(conf.valuation)
        total = Fraction(0)
        run = [conf]
        tmap = self.game.transition_map()
        for k in range(self.horizon, 0, -1):
            loc = conf.location
            if self.game.locations[loc].is_goal:
                break
            owner = self.game.locations[loc].owner
            strat = strategy_min if owner == MIN else strategy_max
            if strat is None:
                move = self.greedy_move(loc, ticks, k)
                if move is None:
                    break
                d, t, _ = move
                tid = t.tid
            else:
                choice = strat.get((loc, ticks, k))
                if choice is None:
                    raise InvalidStep(
                        f"strategy undefined at {loc}, {ticks}, k={k}")
                d, tid = choice
            conf, w = self.game.step(conf, Fraction(d, self.n_grid), tid)
            total += w
            ticks = tuple(0 if c in tmap[tid].resets else i + d
                          for c, i in enumerate(ticks))
            run.append(conf)
        return run, total
