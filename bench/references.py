"""Reference outcomes of the benchmark's games, computed apart from the solver.

A reference is one of:

- a closed form derived in README.md (``chain``, ``ring``, ``kernel_chain``,
  and +inf for the games with a planted dead end);
- the grid oracle (:class:`wtgsolve.oracle.GridOracle`, which shares no code
  with the exact solver) on the 1/12 and 1/24 grids with the clock cap
  ``clock_bound``, extrapolated to the exact value as 2*o24 - o12;
- a rejection, for games with a planted loop whose corner weights are 0 and
  1; the solver's witness is then checked by :func:`check_witness`.

Every closed form is also compared with the oracle, so a wrong closed form
stops the run before anything is timed.

Recompute and print every reference of a workload::

    python3 bench/references.py --workload mixed --seed 1
"""
import argparse
import json
import os
import sys
from fractions import Fraction

INF = float("inf")
GRIDS = (12, 24)


def parse_value(text):
    return INF if text == "inf" else Fraction(text)


def format_value(value):
    return "inf" if value == INF else str(value)


def horizon(game):
    """Steps the bounded oracle allows: four per location, plus eight."""
    return 4 * len(game["locations"]) + 8


def oracle_value(game):
    """Exact value read off the grid oracle.

    The oracle plays the game on the 1/N grid with at most ``horizon(game)``
    steps.  When the optimal delays lie on the grid, as in every game of the
    workloads, both grids give the value itself.  When an optimal delay
    tends to a region boundary without reaching it, the grid keeps it one
    tick away, and since values are affine in a delay between breakpoints,
    the grid value is v + c/N; two grids then give v = 2*o(2N) - o(N).
    Both grids must agree on whether the value is finite (README.md, "The
    oracle reference")."""
    from wtgsolve.gameio import game_from_dict
    from wtgsolve.oracle import GridOracle
    from wtgsolve.regions import clock_bound

    g = game_from_dict(game)
    cap = clock_bound(g)
    coarse, fine = (GridOracle(g, n, horizon(game), clock_cap=cap,
                               keep_layers=False).value for n in GRIDS)
    if (coarse == INF) != (fine == INF):
        raise RuntimeError(
            f"oracle grids disagree on finiteness: {coarse} vs {fine}")
    return INF if fine == INF else 2 * fine - coarse


def reference(game, expected):
    """The reference entry of one game: ``{"expect": "value", "value": v}``
    or ``{"expect": "reject"}``."""
    kind, closed = expected
    if kind == "reject":
        return {"expect": "reject"}
    oracle = oracle_value(game)
    if kind == "value":
        value = parse_value(str(closed))
        if value != oracle:
            raise RuntimeError(
                f"closed form {format_value(value)} != oracle "
                f"{format_value(oracle)}")
    return {"expect": "value", "value": format_value(oracle)}


def references(workload, seed):
    """Name -> reference entry for every game of the workload."""
    from families import workload as games_of
    return {name: reference(game, expected)
            for name, game, expected in games_of(workload, seed)}


# ---------------------------------------------------------------------------
# Checks of the solver's outputs against the references
# ---------------------------------------------------------------------------

def check_value(value, ref):
    """Does a solved value match its reference exactly?"""
    return ref["expect"] == "value" and value == parse_value(ref["value"])


def _walk(witness, game):
    """The (source, target, weight) steps of the input game that a ring of
    region transitions projects to, or None when a step is unknown.

    A region transition's id starts with the id of the input transition it
    copies, up to the first '#'; a composed one joins such ids with '>'.  A
    rollover ``__roll_<location>#...`` only lets the clocks cross an integer
    while waiting in <location>: a step that stays there at weight 0."""
    trans = {t["id"]: t for t in game["transitions"]}
    steps = []
    for tid in witness:
        for part in tid.split(">"):
            orig = part.split("#", 1)[0]
            if orig.startswith("__roll_"):
                loc = orig[len("__roll_"):]
                steps.append((loc, loc, 0))
            elif orig in trans:
                t = trans[orig]
                steps.append((t["from"], t["to"], t["weight"]))
            else:
                return None
    return steps


def check_witness(report, game):
    """Is the rejection backed by a ring with corner weights (0, >= 1)?

    The reported weights must be 0 and at least 1, and the ring must
    project to a closed walk of the input game whose transitions all weigh
    0 and which waits in a location of positive rate: exactly the walks on
    which one corner path weighs 0 (no delay) and another at least 1 (a
    unit delay at that rate)."""
    weights = report.witness_weights
    if not report.witness or weights is None:
        return False
    if not (weights[0] == 0 and weights[1] >= 1):
        return False
    steps = _walk(report.witness, game)
    if not steps:
        return False
    rates = {l["id"]: l.get("weight", 0) for l in game["locations"]}
    closed = all(a[1] == b[0] for a, b in zip(steps, steps[1:] + steps[:1]))
    return (closed and all(w == 0 for _, _, w in steps)
            and any(rates.get(src, 0) >= 1 for src, _, _ in steps))


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    from families import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    json.dump(references(args.workload, args.seed), sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
