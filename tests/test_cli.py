"""End-to-end tests of the ``wtg`` command line."""
import csv
import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest

import wtgsolve
from wtgsolve import cli
from wtgsolve.cli import main
from wtgsolve.core import MAX, MIN, Transition
from wtgsolve.gameio import game_to_dict, save_game

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

    def test_infinite_value(self, game_file, capsys):
        assert main(["solve", game_file(no_goal_path())]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "value = +inf"

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

    def test_not_anz_reports_its_feasibility_queries(self, game_file, capsys):
        assert main(["solve", game_file(mixed_cycle())]) == 2
        err = capsys.readouterr().err.strip()
        match = re.search(r", feasibility queries = (\d+) \(distinct (\d+)\)$",
                          err)
        assert match, err
        calls, distinct = map(int, match.groups())
        assert calls >= distinct > 0

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


def test_exact_solving_loads_neither_networkx_nor_numpy():
    code = ("import sys, wtgsolve.unfold, wtgsolve.gameio, wtgsolve.cli; "
            "print(sorted({'networkx', 'numpy'} & set(sys.modules)))")
    src = os.path.dirname(os.path.dirname(wtgsolve.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"
