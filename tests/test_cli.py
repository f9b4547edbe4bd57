"""End-to-end tests of the ``wtg`` command line."""
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import test_anz
import wtgsolve
from wtgsolve import cli
from wtgsolve.cli import main
from wtgsolve.core import MIN, Transition
from wtgsolve.gameio import game_to_dict, save_game

from acceptance_corpus import max_dead_end, zero_kernel_free_exit
from corpus import G, loc, make_game, three_clock_demo


def min_wait():
    locs = [loc("a", MIN, weight=1), loc("G", goal=True)]
    trans = [Transition("t1", "a", "G", guards=(G(0, "==", 1),),
                        resets=frozenset({0}), weight=0)]
    return make_game(locs, trans, "a", (0, 0))


def no_goal_path():
    locs = [loc("a", MIN), loc("b", MIN), loc("G", goal=True)]
    trans = [
        Transition("t1", "a", "b", guards=(G(0, "==", 1),),
                   resets=frozenset({0})),
        Transition("t2", "b", "a", guards=(G(0, "==", 1),),
                   resets=frozenset({0})),
    ]
    return make_game(locs, trans, "a", (0, 0))


def mixed_cycle():
    locs = [loc("a", MIN, weight=1), loc("b", MIN), loc("G", goal=True)]
    trans = [
        Transition("t1", "a", "b", guards=(G(1, "==", 1),),
                   resets=frozenset({1})),
        Transition("t2", "b", "a", guards=(G(0, "==", 1),),
                   resets=frozenset({0})),
        Transition("t3", "b", "G", guards=(G(0, "==", 1),),
                   resets=frozenset({0}), weight=1),
    ]
    return make_game(locs, trans, "a", (0, F(1, 2)))


@pytest.fixture
def game_file(tmp_path):
    def write(game, name="game.json"):
        path = tmp_path / name
        save_game(game, str(path))
        return str(path)

    return write


class TestSolve:
    def test_value_line(self, game_file, capsys):
        assert main(["solve", game_file(min_wait())]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "value = 1"

    def test_threshold_at_most(self, game_file, capsys):
        assert main(["solve", game_file(min_wait()),
                     "--threshold", "3/2"]) == 0
        out = capsys.readouterr().out
        assert "decision(th=3/2) = at-most" in out

    def test_threshold_exceeds(self, game_file, capsys):
        assert main(["solve", game_file(min_wait()),
                     "--threshold", "1/2"]) == 0
        out = capsys.readouterr().out
        assert "decision(th=1/2) = exceeds" in out

    def test_a_goal_with_a_zero_reset_loop(self, game_file, capsys):
        locs = [loc("a", MIN, goal=True)]
        trans = [Transition("t", "a", "a", guards=(G(1, "<=", 1),),
                            resets=frozenset({1}))]
        assert main(["solve", game_file(make_game(locs, trans, "a",
                                                  (0, 0)))]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "value = 0"

    def test_infinite_value(self, game_file, capsys):
        assert main(["solve", game_file(no_goal_path())]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "value = +inf"

    def test_kernel_exit_with_a_fixed_landing(self, game_file, capsys):
        assert main(["solve", game_file(zero_kernel_free_exit())]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "value = 1"

    def test_max_move_into_a_dead_end(self, game_file, capsys):
        assert main(["solve", game_file(max_dead_end())]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "value = +inf"

    def test_diagnostics_line(self, game_file, capsys):
        main(["solve", game_file(min_wait())])
        out = capsys.readouterr().out
        assert "kappa = " in out and "sweeps = " in out


class TestDiagnosticModes:
    def test_check_anz(self, game_file, capsys):
        assert main(["solve", game_file(min_wait()), "--check-anz"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("anz: ok")
        assert "value =" not in out

    def test_dump_regions(self, game_file, capsys):
        assert main(["solve", game_file(min_wait()), "--dump-regions"]) == 0
        lines = capsys.readouterr().out.splitlines()
        region_lines = [l for l in lines if l.startswith("region ")]
        assert region_lines
        assert all("owner=" in l for l in region_lines)

    def test_dump_value_functions(self, game_file, tmp_path, capsys):
        out_path = tmp_path / "values.json"
        assert main(["solve", game_file(min_wait()),
                     "--dump-value-functions", str(out_path)]) == 0
        data = json.loads(out_path.read_text())
        assert data
        for entry in data.values():
            assert "region" in entry
            assert (entry["value"] == "+inf"
                    or isinstance(entry["value"], (str, list)))
        assert any(name.startswith("a") for name in data)


class TestOracle:
    def test_oracle_value(self, game_file, capsys):
        assert main(["solve", game_file(min_wait()), "--oracle",
                     "--grid", "8", "--horizon", "10"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "value = 1"

    def test_oracle_dump(self, game_file, tmp_path, capsys):
        out_path = tmp_path / "layer.csv"
        assert main(["solve", game_file(min_wait()), "--oracle",
                     "--grid", "4", "--horizon", "6",
                     "--oracle-dump", str(out_path)]) == 0
        with open(out_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["location", "c0", "c1", "value"]
        by_key = {(r[0], r[1], r[2]): r[3] for r in rows[1:]}
        # a single grid cell per clock: 4 ticks plus both endpoints
        assert len(rows) - 1 == 2 * 5 * 5
        assert by_key[("G", "0", "0")] == "0"
        assert by_key[("a", "0", "0")] == "1"

    def test_oracle_dump_implies_oracle(self, game_file, tmp_path, capsys):
        out_path = tmp_path / "layer.csv"
        assert main(["solve", game_file(min_wait()),
                     "--grid", "4", "--horizon", "6",
                     "--oracle-dump", str(out_path)]) == 0
        assert out_path.exists()


class TestErrors:
    def test_three_clocks_rejected(self, game_file, capsys):
        assert main(["solve", game_file(three_clock_demo())]) == 3
        assert "error:" in capsys.readouterr().err

    def test_not_anz(self, game_file, capsys):
        assert main(["solve", game_file(mixed_cycle())]) == 2
        err = capsys.readouterr().err
        assert "almost non-Zeno" in err

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve", str(path)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "absent.json")]) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["abc", "1/0"])
    def test_bad_threshold_exits_3_before_solving(self, threshold, game_file,
                                                  capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the threshold was parsed")

        monkeypatch.setattr(cli, "solve", no_solve)
        monkeypatch.setattr(cli, "prepare", no_solve)
        assert main(["solve", game_file(min_wait()),
                     "--threshold", threshold]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and threshold in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_negative_horizon_exits_3(self, game_file, capsys):
        assert main(["solve", game_file(min_wait()), "--oracle",
                     "--horizon", "-1"]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "horizon" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""



class TestMalformedInput:
    """Each malformed description exits 3 with a one-line error, never with
    a traceback and never after truncating a number."""

    # probe -> (path to a field of a valid description, bad value,
    #           fragment of the error message)
    PROBES = {
        "fractional_bound": (("transitions", 0, "guards", 0, 2), 1.9,
                             "guard bound"),
        "negative_bound": (("transitions", 0, "guards", 0, 2), -1,
                           "guard bound"),
        "string_bound": (("transitions", 0, "guards", 0, 2), "abc",
                         "guard bound"),
        "fractional_weight": (("transitions", 0, "weight"), 1.5, "weight"),
        "boolean_weight": (("locations", 0, "weight"), True, "weight"),
        "negative_weight": (("transitions", 0, "weight"), -2, "weight"),
        "goal_not_a_boolean": (("locations", 0, "goal"), "no", "goal"),
        "locations_not_a_list": (("locations",), 5, "malformed"),
        "valuation_boolean": (("initial", "valuation", "c0"), True,
                              "boolean"),
        "valuation_division_by_zero": (("initial", "valuation", "c0"), "1/0",
                                       "malformed"),
        "valuation_not_an_object": (("initial", "valuation"), [0, 0],
                                    "malformed"),
        "valuation_unknown_clock": (("initial", "valuation", "z"), "7",
                                    "unknown clock 'z'"),
        # a number where a name belongs: ids are JSON strings
        "location_id_a_number": (("locations", 0, "id"), 7,
                                 "location id: expected a JSON string"),
        "transition_id_a_number": (("transitions", 0, "id"), 5,
                                   "transition 0 id: expected a JSON string"),
        "clock_name_a_number": (("clocks", 0), 0,
                                "clock name: expected a JSON string"),
    }

    @pytest.mark.parametrize("probe", sorted(PROBES))
    def test_probe_exits_3(self, probe, tmp_path, capsys):
        (*parents, last), value, fragment = self.PROBES[probe]
        data = game_to_dict(min_wait())
        node = data
        for key in parents:
            node = node[key]
        node[last] = value
        path = tmp_path / "game.json"
        path.write_text(json.dumps(data))
        assert main(["solve", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and fragment in captured.err
        assert "Traceback" not in captured.err
        assert "value =" not in captured.out

    # probe -> (clocks, resets of the one edge): a string where an array
    # belongs used to be read as the list of its characters
    STRINGS = {
        "clocks_a_string": ("xy", ["x"]),
        "resets_a_string": (["x", "y"], "x"),
        "resets_a_clock_name_string": (["c0", "c1"], "c0"),
    }

    @pytest.mark.parametrize("probe", sorted(STRINGS))
    def test_string_for_an_array_exits_3(self, probe, tmp_path, capsys):
        clocks, resets = self.STRINGS[probe]
        first = clocks[0]
        data = {"clocks": clocks,
                "locations": [{"id": "a", "owner": "min", "weight": 1},
                              {"id": "G", "owner": "min", "goal": True}],
                "transitions": [{"id": "t", "from": "a", "to": "G",
                                 "guards": [[first, "==", 1]],
                                 "resets": resets}],
                "initial": {"location": "a", "valuation": {}}}
        path = tmp_path / "game.json"
        path.write_text(json.dumps(data))
        assert main(["solve", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "array" in captured.err
        assert "value =" not in captured.out

    def test_top_level_array(self, tmp_path, capsys):
        path = tmp_path / "game.json"
        path.write_text(json.dumps([game_to_dict(min_wait())]))
        assert main(["solve", str(path)]) == 3
        assert capsys.readouterr().err.startswith("error: malformed game")


def json_paths(node, prefix=()):
    """The path (keys and list indices) to every field inside ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    return [p for key, child in items
            for p in [(*prefix, key), *json_paths(child, (*prefix, key))]]


# Small valid games: values 1, 0, 6 and +inf, and one not almost non-Zeno.
MUTATED = [game_to_dict(min_wait())] + [
    game_to_dict(test_anz.random_game(s)) for s in (1, 2, 5, 6)]
REPLACEMENTS = st.one_of(
    st.integers(0, 7), st.integers(-3, -1), st.floats(), st.booleans(),
    st.none(), st.text(max_size=3),
    st.sampled_from(["c0", "c1", "q0", "G", "max", "<=", "1/2", "-1"]),
    st.lists(st.one_of(st.integers(0, 2), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_mutated_game_exits_cleanly(data):
    """Replacing or deleting one field of a valid game's JSON gives exit 0,
    2 or 3 and never a traceback: each check of the input holds up."""
    game = json.loads(json.dumps(data.draw(st.sampled_from(MUTATED))))
    *parents, last = data.draw(st.sampled_from(json_paths(game)))
    node = game
    for key in parents:
        node = node[key]
    if data.draw(st.booleans()):
        del node[last]
    else:
        node[last] = data.draw(REPLACEMENTS)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "game.json")
        with open(path, "w") as fh:
            json.dump(game, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["solve", path])
    assert code in (0, 2, 3) and "Traceback" not in err.getvalue()


def loaded_by_solver_import(names):
    """Which of ``names`` are in ``sys.modules`` once a fresh interpreter
    has imported what ``wtg solve`` imports."""
    code = ("import sys, wtgsolve.unfold, wtgsolve.gameio, wtgsolve.cli; "
            f"print(sorted({set(names)!r} & set(sys.modules)))")
    src = os.path.dirname(os.path.dirname(wtgsolve.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    return out.strip()


def test_exact_solving_loads_neither_networkx_nor_numpy():
    assert loaded_by_solver_import({"networkx", "numpy"}) == "[]"


def test_exact_solving_loads_neither_dataclasses_nor_inspect():
    """Every ``wtg solve`` pays for importing the solver; these two cost
    about a quarter of it."""
    assert loaded_by_solver_import({"dataclasses", "inspect"}) == "[]"
