"""Fourier-Motzkin feasibility over the rationals, for any guard constants:
the reference that ``test_regions.py`` checks the region lookups of
``regions.delay_feasible`` and ``elapsed_region_feasible`` against."""
from fractions import Fraction
from typing import Iterable, Optional

from wtgsolve.core import Guard, StructuralError
from wtgsolve.regions import Region

ZERO, ONE = Fraction(0), Fraction(1)

# A constraint is (coeffs: dict var->Fraction, bound: Fraction, strict: bool)
# meaning sum(coeffs[v] * v) <= bound (or < bound when strict).
LinCon = tuple[dict[int, Fraction], Fraction, bool]


def _fm_feasible(constraints: list[LinCon], variables: list[int]) -> bool:
    cons = [(dict(c), Fraction(b), s) for c, b, s in constraints]
    for v in variables:
        lows, highs, rest = [], [], []
        for c, b, s in cons:
            a = c.get(v, ZERO)
            if a == 0:
                rest.append((c, b, s))
            elif a > 0:
                highs.append((c, b, s, a))
            else:
                lows.append((c, b, s, a))
        new = rest
        for cl, bl, sl, al in lows:
            for ch, bh, sh, ah in highs:
                # combine: eliminate v between lower bound (al<0) and upper.
                coeffs: dict[int, Fraction] = {}
                for cc, scale in ((cl, ah), (ch, -al)):
                    for k, val in cc.items():
                        if k == v:
                            continue
                        coeffs[k] = coeffs.get(k, ZERO) + scale * val
                bound = ah * bl + (-al) * bh
                coeffs = {k: val for k, val in coeffs.items() if val != 0}
                new.append((coeffs, bound, sl or sh))
        cons = new
    for c, b, s in cons:
        if c:
            raise StructuralError("unexpected leftover variable")
        if s and not ZERO < b:
            return False
        if not s and not ZERO <= b:
            return False
    return True


_DELTA = -1  # variable index for the elapsed delay


def _region_constraints(r: Region, closure: bool) -> tuple[list[LinCon], dict[int, tuple]]:
    """Constraints pinning a valuation to r (or its closure).

    Returns (constraints, expr) where expr[x] describes clock x as either
    ('const', value) or ('var', block index).  Block values are variables
    0..p-1 (block i uses variable i-1).
    """
    cons: list[LinCon] = []
    expr: dict[int, tuple] = {}
    for x in r.zeros:
        expr[x] = ("const", ZERO)
    for x in r.ones:
        expr[x] = ("const", ONE)
    strict = not closure
    prev: Optional[int] = None
    for i, b in enumerate(r.interior):
        var = i
        for x in b:
            expr[x] = ("var", var)
        if prev is None:
            cons.append(({var: Fraction(-1)}, ZERO, strict))  # var > 0 (>= 0)
        else:
            cons.append(({prev: ONE, var: Fraction(-1)}, ZERO, strict))
        prev = var
    if prev is not None:
        cons.append(({prev: ONE}, ONE, strict))  # var < 1 (<= 1)
    return cons, expr


def _clock_terms(expr_entry) -> tuple[dict[int, Fraction], Fraction]:
    """Linear form (coeffs, constant) of a clock value given its expr entry."""
    kind, val = expr_entry
    if kind == "const":
        return {}, val
    return {val: ONE}, ZERO


def _guard_constraints(guards: Iterable[Guard], expr, negate: Optional[Guard] = None,
                       box: bool = True, n_clocks: int = 0) -> list[list[LinCon]]:
    """Constraint alternatives for "nu+delta satisfies guards and violates
    ``negate``".  Returns a list of disjuncts, each a conjunction."""

    base: list[LinCon] = [({_DELTA: Fraction(-1)}, ZERO, False)]  # delta >= 0
    if box:
        for x in range(n_clocks):
            coeffs, const = _clock_terms(expr[x])
            c = dict(coeffs)
            c[_DELTA] = c.get(_DELTA, ZERO) + ONE
            base.append((c, ONE - const, False))  # x + delta <= 1

    def atom(g: Guard, flip: bool) -> list[LinCon]:
        coeffs, const = _clock_terms(expr[g.clock])
        c = dict(coeffs)
        c[_DELTA] = c.get(_DELTA, ZERO) + ONE
        b = Fraction(g.bound) - const
        op = g.op
        if flip:
            table = {"<": (">=",), "<=": (">",), ">": ("<=",), ">=": ("<",)}
            if op == "==":
                raise ValueError("handled by caller")
            op = table[op][0]
        if op == "<":
            return [(c, b, True)]
        if op == "<=":
            return [(c, b, False)]
        if op == ">":
            return [({k: -v for k, v in c.items()}, -b, True)]
        if op == ">=":
            return [({k: -v for k, v in c.items()}, -b, False)]
        return [(c, b, False), ({k: -v for k, v in c.items()}, -b, False)]

    conj = list(base)
    for g in guards:
        conj.extend(atom(g, False))
    if negate is None:
        return [conj]
    if negate.op == "==":
        lo = conj + [_lt_con(negate, expr)]
        hi = conj + [_gt_con(negate, expr)]
        return [lo, hi]
    return [conj + atom(negate, True)]


def _lt_con(g: Guard, expr) -> LinCon:
    coeffs, const = _clock_terms(expr[g.clock])
    c = dict(coeffs)
    c[_DELTA] = c.get(_DELTA, ZERO) + ONE
    return (c, Fraction(g.bound) - const, True)


def _gt_con(g: Guard, expr) -> LinCon:
    coeffs, const = _clock_terms(expr[g.clock])
    c = {k: -v for k, v in coeffs.items()}
    c[_DELTA] = c.get(_DELTA, ZERO) - ONE
    return (c, const - Fraction(g.bound), True)


def _elapsed_membership(target: Region, expr) -> list[LinCon]:
    """Constraints stating that nu+delta lies exactly in ``target``."""
    def shifted(x: int) -> tuple[dict[int, Fraction], Fraction]:
        coeffs, const = _clock_terms(expr[x])
        c = dict(coeffs)
        c[_DELTA] = c.get(_DELTA, ZERO) + ONE
        return c, const

    def le(xa, xb, strict: bool) -> LinCon:
        # value(xa) <= value(xb), where each is (coeffs, const) of nu_x+delta
        ca, ka = xa
        cb, kb = xb
        coeffs = dict(ca)
        for k, v in cb.items():
            coeffs[k] = coeffs.get(k, ZERO) - v
        coeffs = {k: v for k, v in coeffs.items() if v != 0}
        return (coeffs, kb - ka, strict)

    cons: list[LinCon] = []
    for x in target.zeros:
        v = shifted(x)
        cons.append(le(v, ({}, ZERO), False))
        cons.append(le(({}, ZERO), v, False))
    for x in target.ones:
        v = shifted(x)
        cons.append(le(v, ({}, ONE), False))
        cons.append(le(({}, ONE), v, False))
    prev = ({}, ZERO)
    for b in target.interior:
        xs = sorted(b)
        rep = shifted(xs[0])
        for other in xs[1:]:
            v = shifted(other)
            cons.append(le(rep, v, False))
            cons.append(le(v, rep, False))
        cons.append(le(prev, rep, True))
        prev = rep
    if target.interior:
        cons.append(le(prev, ({}, ONE), True))
    return cons


def elapsed_region_feasible(src: Region, target: Region,
                            guards: tuple[Guard, ...], closure: bool) -> bool:
    """Is there nu in src (closure if asked) and delta >= 0 with nu+delta
    satisfying ``guards`` and lying in ``target``?"""
    rc, expr = _region_constraints(src, closure)
    cons = rc + [({_DELTA: Fraction(-1)}, ZERO, False)]
    cons += _elapsed_membership(target, expr)
    for g in guards:
        for d in _guard_constraints([g], expr, None, box=False, n_clocks=0):
            cons += [c for c in d if c[0]]
            break
    variables = list(range(src.dim)) + [_DELTA]
    return _fm_feasible(cons, variables)


def delay_feasible(r: Region, guards: tuple[Guard, ...], n_clocks: int,
                   closure: bool, negate: Optional[Guard], box: bool) -> bool:
    """Is there nu in r (its closure if asked) and delta >= 0 with nu+delta
    satisfying ``guards`` and violating ``negate``, and, when ``box`` is
    set, inside [0,1] on clocks 0..n_clocks-1?"""
    rc, expr = _region_constraints(r, closure)
    variables = list(range(r.dim)) + [_DELTA]
    for disjunct in _guard_constraints(guards, expr, negate, box, n_clocks):
        if _fm_feasible(rc + disjunct, variables):
            return True
    return False
