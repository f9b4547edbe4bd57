"""Acceptance suite: each test exercises one release criterion end to end
and prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure)."""
import functools
import random
import time
from fractions import Fraction as F

import numpy as np

from acceptance_corpus import (
    exact_corpus,
    kernel_corpus,
    kernel_to_wtg,
    max_out_wait,
    mixed_cycle,
    normalization_fixtures,
    out_slope,
    shape_points,
    transformation_corpus,
)
from corpus import three_clock_demo
import region_reference
from kernel_reference import ON_X, PLF2, delta, equals, fiber_extremum
from test_plf import check_running_extremum_structure
from unfold_reference import deeper_root_value
from wtgsolve.core import INF, Configuration
from wtgsolve.cycles import (
    ANZ,
    VIOLATION,
    build_corner_point,
    check_almost_non_zeno,
    fix_weight_zero,
    mark_green,
)
from wtgsolve.kernelvi import iterate
from wtgsolve.oracle import GridOracle
from wtgsolve.plf import PLF1, canonicalize, eval1, running_extremum
from wtgsolve.regions import (
    add_resets,
    build_region_wtg,
    clock_bound,
    normalize_01,
    prune_unreachable,
    relax,
    trim,
)
from wtgsolve.unfold import decide, prune_dead_rolls, prune_max_traps, solve


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"{label}: FAIL")
                raise
            print(f"{label}: PASS")

        return wrapper

    return deco


def region_pipeline(game):
    rg = trim(build_region_wtg(normalize_01(game)))
    rg = prune_dead_rolls(rg)
    return prune_unreachable(rg, [rg.game.initial.location])


def fixed_point_value(res, shape, loc, v):
    """Evaluate a kernel fixed point at a boundary valuation.  The origin
    belongs to both axes, so for x-axis shapes the parameter is taken as
    1 - x directly instead of going through delta()."""
    f = res.functions[loc]
    if f.is_point:
        return f.points[0][1]
    return eval1(f, 1 - v[0] if shape == ON_X else delta(v))


@criterion("AC1 kernel value iteration terminates and matches the oracle")
def test_ac1_kernel_vi():
    n = 64
    t0 = time.time()
    games = kernel_corpus()
    assert len(games) >= 20
    for name, kg in games:
        res = iterate(kg.kernel_game())
        assert res.steps <= 200, name
        s_max = max((out_slope(ov) for ov in kg.w_out.values()), default=F(0))
        eps = 2 * s_max / n
        oracle = GridOracle(kernel_to_wtg(kg), n, res.steps + 5,
                            w_out={g: ov.eval for g, ov in kg.w_out.items()},
                            keep_layers=False)
        for loc, shape in kg.shapes.items():
            for v in shape_points(shape, n):
                want = fixed_point_value(res, shape, loc, v)
                got = oracle._read(oracle._final, Configuration(loc, v))
                if want == INF or got == INF:
                    assert want == got, (name, loc, v)
                else:
                    assert abs(want - got) <= eps, (name, loc, v, want, got)
    assert time.time() - t0 < 60


def check_round_by_round_approach(trace, n):
    """The bounded start values of ``three_clock_demo`` on the 1/n grid
    (see its docstring): one round costs two steps, so values come in equal
    pairs; each extra round strictly lowers the value until the grid floor
    1 + 1/n, which the trace reaches within its horizon."""
    floor = 1 + F(1, n)
    for k in range(len(trace) - 1):
        assert trace[k + 1] <= trace[k], (k, trace[k:k + 2])
    for k in range(len(trace) - 2):
        if floor < trace[k] < INF:
            assert trace[k + 2] < trace[k], (k, trace[k:k + 3])
    assert trace[-1] == floor, (n, trace[-1])


@criterion("AC2 three-clock demo: ANZ verdict and oracle approach to 1")
def test_ac2_three_clock_demo():
    g = three_clock_demo()
    rg = region_pipeline(g)
    rg = add_resets(prune_max_traps(trim(relax(rg))))
    report = check_almost_non_zeno(build_corner_point(rg))
    assert report.verdict == ANZ and report.kappa == 1

    o12 = GridOracle(g, 12, 20, clock_cap=2, keep_layers=False)
    for v in o12.trace:
        assert v >= 1 - F(2, 12)
    check_round_by_round_approach(o12.trace, 12)

    o24 = GridOracle(g, 24, 40, clock_cap=2, keep_layers=False)
    assert F(1) <= o24.value <= F(115, 100)
    check_round_by_round_approach(o24.trace, 24)


@criterion("AC3 transformations preserve the oracle value")
def test_ac3_transformation_stages():
    games = transformation_corpus()
    assert len(games) >= 10
    for name, g in games:
        def val(game, cap=None):
            return GridOracle(game, 8, 30, clock_cap=cap,
                              keep_layers=False).value

        reference = val(g, cap=clock_bound(g))
        # The oracle plays the materialised [0,1)-game, which the walk of
        # build_region_wtg equals field for field (test_regions.py).
        norm = region_reference.normalize_01(g)
        rg = region_pipeline(g)
        relaxed = trim(relax(rg))
        with_resets = add_resets(prune_max_traps(relaxed))
        fixed, _ = fix_weight_zero(
            with_resets, mark_green(with_resets,
                                    build_corner_point(with_resets)))
        stages = {
            "normalized": val(norm),
            "strict": val(rg.game),
            "relaxed": val(relaxed.game),
            "all-reset": val(with_resets.game),
            "weight-zero-split": val(fixed.game),
        }
        for stage, v in stages.items():
            assert v == reference, (name, stage, v, reference)


@criterion("AC4 hand-derived games solved exactly; decide correct around the value")
def test_ac4_exact_values():
    games = exact_corpus()
    assert len(games) >= 5
    for name, g, expected in games:
        verdict = solve(g)
        assert verdict.value == expected, (name, verdict.value)
        assert GridOracle(g, 8, 30, clock_cap=clock_bound(g),
                          keep_layers=False).value == expected, name
        assert decide(g, expected - F(1, 10)).decision == "exceeds", name
        assert decide(g, expected).decision == "at-most", name
        assert decide(g, expected + F(1, 10)).decision == "at-most", name


def random_plf1(rng):
    n = rng.randint(2, 6)
    xs = [F(0)] + sorted(F(x, 32) for x in rng.sample(range(1, 32), n - 2)) + [F(1)]
    ys = [F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in xs]
    return PLF1(list(zip(xs, ys)))


def random_plf2(rng):
    """Two triangles over the unit square, continuous across the diagonal."""
    a1, b1 = F(rng.randint(-8, 8), 8), F(rng.randint(-8, 8), 8)
    c = F(rng.randint(-8, 8), 8)
    a2 = F(rng.randint(-8, 8), 8)
    b2 = a1 + b1 - a2
    lower = ((F(0), F(0)), (F(1), F(0)), (F(1), F(1)))
    upper = ((F(0), F(0)), (F(1), F(1)), (F(0), F(1)))
    return PLF2([(lower, (a1, b1, c)), (upper, (a2, b2, c))])


def brute_fiber(plf2, x, direction, steps=1000):
    """Float extremum of f(x, .) over the 1/steps grid of the unit fiber."""
    ys = np.linspace(0.0, 1.0, steps + 1)
    xf = float(x)
    best = None
    for tri, (a, b, c) in plf2.cells:
        (x0, y0), (x1, y1), (x2, y2) = [(float(p), float(q)) for p, q in tri]
        d = (y1 - y2) * (x0 - x2) + (x2 - x1) * (y0 - y2)
        l0 = ((y1 - y2) * (xf - x2) + (x2 - x1) * (ys - y2)) / d
        l1 = ((y2 - y0) * (xf - x2) + (x0 - x2) * (ys - y2)) / d
        l2 = 1.0 - l0 - l1
        inside = (l0 >= -1e-9) & (l1 >= -1e-9) & (l2 >= -1e-9)
        if not inside.any():
            continue
        vals = float(a) * xf + float(b) * ys[inside] + float(c)
        ext = vals.min() if direction == "inf" else vals.max()
        best = ext if best is None else (
            min(best, ext) if direction == "inf" else max(best, ext))
    return best


@criterion("AC5 property suites (monotonicity, canonical PLFs, extremum laws, stability)")
def test_ac5_properties():
    # (a) bounded values only improve with more steps allowed
    for name, g in transformation_corpus():
        o = GridOracle(g, 8, 20, clock_cap=clock_bound(g), keep_layers=False)
        assert all(b <= a for a, b in zip(o.trace, o.trace[1:])), name

    # (b) every emitted kernel fixed point is continuous and canonical
    for name, kg in kernel_corpus():
        res = iterate(kg.kernel_game())
        assert res.steps <= 200, name
        for f in res.functions.values():
            if f.is_infinite:
                continue
            xs = [x for x, _ in f.points]
            assert xs == sorted(set(xs)), name
            assert equals(canonicalize(f), f), name
            assert canonicalize(canonicalize(f)).points == canonicalize(f).points

    # (c) running extremum: structural law on 200 random functions
    rng = random.Random(20260826)
    for _ in range(200):
        # structure is stated against the canonical pieces of the input
        f = canonicalize(random_plf1(rng))
        side = rng.choice(["suffix", "prefix"])
        direction = rng.choice(["inf", "sup"])
        check_running_extremum_structure(
            f, running_extremum(f, side, direction), direction)

    # (d) fiber extremum vs. a 1/1000-grid brute force
    for _ in range(100):
        f2 = random_plf2(rng)
        slope = max(abs(b) for _, (_, b, _) in f2.cells)
        for direction in ("inf", "sup"):
            g1 = fiber_extremum(f2, direction)
            for x in (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)):
                brute = brute_fiber(f2, x, direction)
                assert abs(float(eval1(g1, x)) - brute) <= float(slope) / 1000 + 1e-6

    # (e) unfolding threshold stability: one extra visit allowance per
    # positive element never changes the solved value
    for name, g in transformation_corpus():
        assert solve(g).value == deeper_root_value(g), name
    assert solve(max_out_wait()).value == deeper_root_value(max_out_wait())


@criterion("AC6 cycle certification: violation witness, ANZ corpus, copy counts")
def test_ac6_anz_checker():
    # crafted mixed cycle: violation with a replayable witness
    cp = build_corner_point(region_pipeline(mixed_cycle()))
    report = check_almost_non_zeno(cp)
    assert report.verdict == VIOLATION
    assert report.witness_weights == (0, 1)
    tmap = cp.rg.game.transition_map()
    ring = [tmap[tid] for tid in report.witness]
    for t, nxt in zip(ring, ring[1:] + ring[:1]):
        assert t.tgt == nxt.src

    # every corpus game certifies almost non-Zeno with unit gap
    for name, g in transformation_corpus():
        rg = add_resets(prune_max_traps(trim(relax(region_pipeline(g)))))
        rep = check_almost_non_zeno(build_corner_point(rg))
        assert rep.verdict == ANZ and rep.kappa == 1, name

    # the materialising normalization makes one location copy per unit
    # cell; normalize_01 keeps tables over the same M
    for name, g in normalization_fixtures():
        m = clock_bound(g)
        norm = region_reference.normalize_01(g)
        assert len(norm.locations) == len(g.locations) * m ** 2, name
        assert normalize_01(g).m == m, name
