"""Tests of the benchmark's generators, references, checks and tracer.

    PYTHONPATH=src python -m pytest -q bench
"""
import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import families  # noqa: E402
from references import (GRIDS, INF, check_value, check_witness,  # noqa: E402
                        format_value, oracle_value, reference)
from wtgsolve.gameio import game_from_dict  # noqa: E402
from wtgsolve.unfold import NotAlmostNonZeno, solve  # noqa: E402


def _dump(games):
    return json.dumps(games, sort_keys=True)


@pytest.mark.parametrize("name", families.WORKLOADS)
def test_workload_is_a_function_of_its_seed(name):
    assert _dump(families.workload(name, 7)) == _dump(families.workload(name, 7))
    assert _dump(families.workload(name, 7)) != _dump(families.workload(name, 8))


def test_random_games_are_functions_of_their_seed():
    for kind in ("plain", "inf", "zeno"):
        assert (_dump(families.random_game(5, 3, kind))
                == _dump(families.random_game(5, 3, kind)))
        assert (_dump(families.random_game(5, 3, kind))
                != _dump(families.random_game(6, 3, kind)))


def test_shuffling_keeps_the_closed_form():
    for name, game, expected in families.workload("chain", 3)[:1]:
        assert expected == ("value", 4)
        assert solve(game_from_dict(game)).value == 4


def _off_by_one_tick(value):
    return [value + Fraction(1, n) for n in GRIDS] + [value - Fraction(1, n) for n in GRIDS]


def test_value_check_fails_when_the_reference_is_off():
    ref = reference(families.kernel_chain(1), ("value", 1))
    assert ref == {"expect": "value", "value": "1"}
    assert check_value(Fraction(1), ref)
    for wrong in _off_by_one_tick(Fraction(1)):
        assert not check_value(Fraction(1), {"expect": "value",
                                             "value": format_value(wrong)})
        assert not check_value(wrong, ref)


def test_value_check_fails_when_infinity_is_flipped():
    assert check_value(INF, {"expect": "value", "value": "inf"})
    assert not check_value(Fraction(3), {"expect": "value", "value": "inf"})
    assert not check_value(INF, {"expect": "value", "value": "3"})
    assert not check_value(Fraction(3), {"expect": "reject"})


def test_a_closed_form_that_disagrees_with_the_oracle_is_refused():
    game = families.chain(2, 2)
    assert oracle_value(game) == 3
    with pytest.raises(RuntimeError):
        reference(game, ("value", 3 + Fraction(1, 12)))


def test_oracle_extrapolation_recovers_a_value_the_grids_miss():
    # Min pays rate 1 until it leaves through x > 0: the infimum 0 is not
    # attained, and on the 1/N grid the value is 1/N.
    game = {"clocks": ["x", "y"],
            "locations": [{"id": "a", "owner": "min", "weight": 1},
                          {"id": "G", "owner": "min", "goal": True}],
            "transitions": [{"id": "t", "from": "a", "to": "G",
                             "guards": [["x", ">", 0], ["x", "<=", 1]]}],
            "initial": {"location": "a", "valuation": {"x": "0", "y": "0"}}}
    assert solve(game_from_dict(game)).value == 0
    assert oracle_value(game) == 0


def test_rejection_witness_check():
    game = families.random_game(0, 3, "zeno")
    with pytest.raises(NotAlmostNonZeno) as info:
        solve(game_from_dict(game))
    report = info.value.report
    assert check_witness(report, game)
    # wrong weights
    report_0 = type(report)(report.verdict, witness=report.witness,
                            witness_weights=(0, 0))
    assert not check_witness(report_0, game)
    # a ring that does not close
    report_1 = type(report)(report.verdict, witness=report.witness[:1],
                            witness_weights=report.witness_weights)
    assert not check_witness(report_1, game)
    # a planted loop that weighs 1 is no witness
    heavy = json.loads(json.dumps(game))
    for t in heavy["transitions"]:
        if t["id"] == "z12":
            t["weight"] = 1
    assert not check_witness(report, heavy)


def test_a_wrong_reference_fails_the_run():
    from run import Runner
    game = families.kernel_chain(1)
    loaded = game_from_dict(game)
    good = Runner([("k", game, loaded)], {"k": {"expect": "value", "value": "1"}})
    good.solve_pass({})
    assert not good.wrong and not good.errors
    bad = Runner([("k", game, loaded)],
                 {"k": {"expect": "value", "value": format_value(1 + Fraction(1, 12))}})
    bad.solve_pass({})
    assert len(bad.wrong) == 1


def test_tracer_counts_and_restores():
    import wtgsolve.regions
    import wtgsolve.unfold
    from tracing import SELF_TIMES, Tracer
    originals = (wtgsolve.regions.trim, wtgsolve.unfold.trim,
                 wtgsolve.unfold.iterate, wtgsolve.unfold.solve)
    tracer = Tracer()
    game = game_from_dict(families.kernel_chain(1))
    counts = []
    for _ in range(2):
        tracer.install()
        try:
            tracer.begin_pass()
            tracer.game = "k"
            assert wtgsolve.unfold.solve(game).value == 1
        finally:
            tracer.uninstall()
        counts.append(tracer.pass_counts())
        times = tracer.pass_self_times()
        assert set(times) == set(SELF_TIMES)
        assert all(t >= 0 for t in times.values())
    assert counts[0] == counts[1]
    assert counts[0]["kernelvi.iterate_calls"] > 0
    assert 0 < counts[0]["regions.feasibility_distinct"] <= counts[0]["regions.feasibility_calls"]
    assert (wtgsolve.regions.trim, wtgsolve.unfold.trim,
            wtgsolve.unfold.iterate, wtgsolve.unfold.solve) == originals


def test_self_time_subtracts_direct_children():
    from tracing import Tracer
    tracer = Tracer()
    tracer.begin_pass()
    tracer.spans = [("unfold.solve", 0.0, 10.0, -1, "g"),
                    ("regions.trim", 1.0, 5.0, 0, "g"),
                    ("regions.delay_feasible", 2.0, 3.0, 1, "g"),
                    ("regions.delay_feasible", 3.0, 4.5, 1, "g")]
    times = tracer.pass_self_times()
    assert times["regions.trim_s"] == pytest.approx(1.5)
    assert times["regions.feasibility_s"] == pytest.approx(2.5)
