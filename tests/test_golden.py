"""Golden outputs of ``wtg solve --dump-regions`` and ``--dump-value-functions``.

For every game of the exact and the transformation corpus, the region dump
printed on stdout and the value-function JSON must match the files under
``tests/golden/`` byte for byte.

To record the files again after a deliberate change of output, run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root and
review the diff.
"""
import contextlib
import io
from pathlib import Path

import pytest

from wtgsolve.cli import main
from wtgsolve.gameio import save_game

from acceptance_corpus import exact_corpus, transformation_corpus

GOLDEN = Path(__file__).parent / "golden"


def corpus():
    games = [(name, game) for name, game, _ in exact_corpus()]
    return games + transformation_corpus()


def dumps(game, tmp: Path) -> tuple[str, str]:
    """(stdout, value-function JSON) of one game."""
    game_path, values_path = tmp / "game.json", tmp / "values.json"
    save_game(game, str(game_path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["solve", str(game_path), "--dump-regions",
                     "--dump-value-functions", str(values_path)]) == 0
    return out.getvalue(), values_path.read_text()


@pytest.mark.parametrize("name,game", corpus(), ids=[n for n, _ in corpus()])
def test_dumps_match_golden(name, game, tmp_path):
    stdout, values = dumps(game, tmp_path)
    assert stdout == (GOLDEN / f"{name}.regions.txt").read_text()
    assert values == (GOLDEN / f"{name}.values.json").read_text()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for name, game in corpus():
        with tempfile.TemporaryDirectory() as tmp:
            stdout, values = dumps(game, Path(tmp))
        (GOLDEN / f"{name}.regions.txt").write_text(stdout)
        (GOLDEN / f"{name}.values.json").write_text(values)
        print(f"recorded {name}")
