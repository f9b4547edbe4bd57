from fractions import Fraction as F

import pytest

from wtgsolve.core import (
    MAX,
    MIN,
    Configuration,
    DomainError,
    Guard,
    Location,
    StructuralError,
    Transition,
    WeightedTimedGame,
)
from wtgsolve.kernelvi import (
    ON_X,
    ON_Y,
    POINT,
    KernelGame,
    OutputValue,
    delta,
    iterate,
    project_output,
    step_transition,
    value_at,
)
from wtgsolve.oracle import GridOracle, grid_tolerance
from wtgsolve.plf import PLF1, PLF2, equals

XY = OutputValue(PLF2.affine(
    ((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))), (1, 1, 0)))


def T(tid, src, tgt, guards=(), resets=()):
    return Transition(tid, src, tgt,
                      guards=tuple(Guard(c, op, b) for c, op, b in guards),
                      resets=frozenset(resets))


class TestDelta:
    def test_on_y(self):
        assert delta((F(0), F(3, 10))) == F(3, 10)

    def test_on_x(self):
        assert delta((F(3, 10), F(0))) == F(7, 10)

    def test_origin(self):
        assert delta((F(0), F(0))) == 0

    def test_interior_rejected(self):
        with pytest.raises(DomainError):
            delta((F(1, 2), F(1, 2)))


class TestOutputValue:
    def test_eval(self):
        assert XY.eval((F(1, 4), F(1, 2))) == F(3, 4)

    def test_constant(self):
        w = OutputValue.constant(F(5, 2))
        assert w.eval((F(1, 3), F(2, 3))) == F(5, 2)

    def test_on_y_extension(self):
        w = OutputValue.on_y(PLF1.from_pairs([(0, 1), (F(1, 2), 0), (1, 1)]))
        assert w.eval((F(3, 4), F(1, 4))) == F(1, 2)
        assert w.eval((F(0), F(1, 2))) == 0


class TestProjectOutput:
    def test_min_on_y(self):
        t = T("t", "a", "g")
        f = project_output(t, XY, ON_Y, MIN)
        assert equals(f, PLF1.from_pairs([(0, 0), (1, 1)]))

    def test_max_on_y(self):
        t = T("t", "a", "g")
        f = project_output(t, XY, ON_Y, MAX)
        assert equals(f, PLF1.from_pairs([(0, 2), (1, 1)]))

    def test_point_min(self):
        t = T("t", "a", "g")
        f = project_output(t, XY, POINT, MIN)
        assert f.is_point and f.points[0][1] == 0

    def test_pinned_delay(self):
        # guard y == 1 from {(0,y)} forces delay 1 - Delta; exit pays x + y
        t = T("t", "a", "g", guards=[(1, "==", 1)])
        f = project_output(t, XY, ON_Y, MIN)
        assert equals(f, PLF1.from_pairs([(0, 2), (1, 1)]))

    def test_reset_before_paying(self):
        t = T("t", "a", "g", guards=[(1, "==", 1)], resets={1})
        f = project_output(t, XY, ON_Y, MIN)
        assert equals(f, PLF1.from_pairs([(0, 1), (1, 0)]))


class TestStepTransition:
    target = PLF1.from_pairs([(0, 1), (F(1, 2), 0), (1, 1)])

    def test_suffix_min(self):
        t = T("t", "a", "b", resets={1})
        f = step_transition(t, self.target, ON_Y, MIN)
        assert equals(f, PLF1.from_pairs([(0, 0), (F(1, 2), 0), (1, 1)]))

    def test_suffix_max_constant(self):
        t = T("t", "a", "b", resets={1})
        f = step_transition(t, self.target, ON_Y, MAX)
        assert equals(f, PLF1.constant(1))

    def test_preserving_guard_is_identity(self):
        t = T("t", "a", "b", guards=[(0, "==", 0)], resets={0})
        assert step_transition(t, self.target, ON_Y, MIN) is self.target

    def test_prefix_min(self):
        t = T("t", "a", "b", resets={0})
        f = step_transition(t, self.target, ON_X, MIN)
        assert equals(f, PLF1.from_pairs([(0, 1), (F(1, 2), 0), (1, 0)]))

    def test_double_reset(self):
        t = T("t", "a", "b", resets={0, 1})
        f = step_transition(t, self.target, ON_Y, MIN)
        assert equals(f, PLF1.constant(1))

    def test_infinite_target(self):
        t = T("t", "a", "b", resets={1})
        assert step_transition(t, PLF1.infinite(), ON_Y, MIN).is_infinite


def single_exit_kernel():
    locs = {
        "k": Location("k", MIN),
        "g": Location("g", MIN, is_goal=True),
    }
    trans = [T("out", "k", "g")]
    return KernelGame(locs, trans, {"k": ON_Y}, {"g": XY}, "k")


def two_location_kernel(w1, w2):
    locs = {
        "k1": Location("k1", MIN),
        "k2": Location("k2", MAX),
        "g1": Location("g1", MIN, is_goal=True),
        "g2": Location("g2", MIN, is_goal=True),
    }
    trans = [
        T("a", "k1", "k2", resets={1}),
        T("b", "k2", "k1", resets={0}),
        T("e1", "k1", "g1"),
        T("e2", "k2", "g2"),
    ]
    return KernelGame(locs, trans, {"k1": ON_Y, "k2": ON_X},
                      {"g1": w1, "g2": w2}, "k1")


def kernel_to_wtg(kg: KernelGame, start_loc, start_val):
    locations = {}
    for name, loc in kg.locations.items():
        locations[name] = loc
    return WeightedTimedGame(
        clocks=["x", "y"],
        locations=locations,
        transitions=list(kg.transitions),
        initial=Configuration(start_loc, tuple(F(v) for v in start_val)),
    )


class TestIterate:
    def test_single_exit(self):
        res = iterate(single_exit_kernel())
        assert res.steps == 1
        assert equals(res.functions[res.entrance],
                      PLF1.from_pairs([(0, 0), (1, 1)]))

    def test_fixed_point_is_fixed(self):
        kg = two_location_kernel(
            OutputValue.on_y(PLF1.from_pairs([(0, 1), (F(1, 2), 0), (1, 1)])),
            OutputValue.constant(F(3, 4)))
        res = iterate(kg)
        res2 = iterate(kg, k_cap=res.steps + 1)
        for name, f in res.functions.items():
            assert equals(f, res2.functions[name])

    def test_matches_grid_oracle(self):
        w1 = OutputValue.on_y(PLF1.from_pairs([(0, 1), (F(1, 2), 0), (1, 1)]))
        w2 = OutputValue.on_x(PLF1.from_pairs([(0, F(1, 2)), (1, 1)]))
        kg = two_location_kernel(w1, w2)
        res = iterate(kg)
        n = 64
        game = kernel_to_wtg(kg, "k1", (0, 0))
        oracle = GridOracle(game, n, res.steps + 5,
                            w_out={"g1": w1.eval, "g2": w2.eval},
                            keep_layers=False)
        eps = grid_tolerance(0, 1, res.steps + 5, n)
        for i in range(n + 1):
            d = F(i, n)
            got = oracle._read(oracle._final,
                               Configuration("k1", (F(0), d)))
            want = value_at(res, "k1", (F(0), d))
            assert abs(got - want) <= eps

    def test_value_at(self):
        res = iterate(single_exit_kernel())
        assert value_at(res, "k", (F(0), F(1, 2))) == F(1, 2)

    def test_value_at_point_domain(self):
        locs = {
            "k": Location("k", MIN),
            "g": Location("g", MIN, is_goal=True),
        }
        kg = KernelGame(locs, [T("out", "k", "g")], {"k": POINT},
                        {"g": XY}, "k")
        res = iterate(kg)
        assert value_at(res, "k", (F(0), F(0))) == 0

    def test_entrance_copy_added_for_cycles(self):
        kg = two_location_kernel(OutputValue.constant(1),
                                 OutputValue.constant(2))
        res = iterate(kg)
        # Max prefers the costlier exit; Min can't do better than 2 anywhere
        # except by exiting herself at cost 1.
        assert equals(res.functions["k1"], PLF1.constant(1))

    def test_k_cap_guard(self):
        kg = two_location_kernel(XY, OutputValue.constant(F(1, 2)))
        with pytest.raises(StructuralError):
            iterate(kg, k_cap=0)
