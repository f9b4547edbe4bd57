"""Command-line entry point: exact solving, diagnostics, and the grid oracle."""
from __future__ import annotations

import argparse
import csv
import json
import sys

from .core import InputError, frac, frac_str
from .gameio import load_game, plf1_to_list
from .regions import Region
from .unfold import NotAlmostNonZeno, prepare, solve


def _region_text(region: Region, clocks: list[str]) -> str:
    parts = [f"{clocks[c]}=0" for c in sorted(region.zeros)]
    if region.interior:
        chain = " < ".join(
            "=".join(clocks[c] for c in sorted(blk)) for blk in region.interior
        )
        parts.append(f"0 < {chain} < 1")
    parts.extend(f"{clocks[c]}=1" for c in sorted(region.ones))
    return ", ".join(parts) if parts else "origin"


def _dump_regions(rg) -> None:
    clocks = list(rg.game.clocks)
    for name in sorted(rg.reg):
        loc = rg.game.locations[name]
        tag = "goal " if loc.is_goal else ""
        print(f"region {name} owner={loc.owner} "
              f"{tag}[{_region_text(rg.reg[name], clocks)}]")


def _value_entry(nv, is_goal: bool) -> object:
    """A scalar for a goal or a point function, else the breakpoints."""
    if nv is None or nv.is_infinite:
        return "+inf"
    if is_goal or nv.plf.is_point:
        return frac_str(nv.plf.points[0][1])
    return plf1_to_list(nv.plf)


def _dump_value_functions(rg, values, path: str) -> None:
    clocks = list(rg.game.clocks)
    data = {
        name: {
            "region": _region_text(rg.reg[name], clocks),
            "value": _value_entry(values.get(name),
                                  rg.game.locations[name].is_goal),
        }
        for name in sorted(rg.reg)
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def _oracle_cmd(args) -> int:
    # numpy loads only for the oracle, not for exact solving
    import numpy as np

    from .oracle import INF_I, GridOracle

    game = load_game(args.file)
    oracle = GridOracle(game, args.grid, args.horizon, keep_layers=False)
    print(f"value = {frac_str(oracle.value)}")
    if args.oracle_dump:
        with open(args.oracle_dump, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["location", *game.clocks, "value"])
            for name in sorted(oracle._final):
                arr = oracle._final[name]
                for idx in np.ndindex(arr.shape):
                    raw = int(arr[idx])
                    val = ("+inf" if raw >= INF_I
                           else frac_str(frac(f"{raw}/{oracle.scale}")))
                    writer.writerow(
                        [name,
                         *(frac_str(frac(f"{i}/{args.grid}")) for i in idx),
                         val])
        print(f"oracle layer k={args.horizon} written to {args.oracle_dump}")
    return 0


def _solve_cmd(args) -> int:
    threshold = None if args.threshold is None else frac(args.threshold)
    game = load_game(args.file)
    if args.check_anz:
        prep = prepare(game)
        print(f"anz: ok (kappa = {frac_str(prep.anz.kappa)}, "
              f"product edges = {prep.anz.cycles_checked})")
        return 0
    verdict = solve(game, threshold=threshold)
    prep = verdict.prepared
    rg = prep.rg
    if args.dump_regions:
        _dump_regions(rg)
    if args.dump_value_functions:
        _dump_value_functions(rg, verdict.values, args.dump_value_functions)

    print(verdict)
    print(f"# kappa = {frac_str(prep.kappa)}, weight bound = "
          f"{frac_str(prep.w_bound)}, sweeps = {verdict.sweeps}, "
          f"vi steps = {verdict.vi_steps}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wtg", description="Solve two-clock weighted timed games.")
    sub = parser.add_subparsers(dest="command", required=True)
    ps = sub.add_parser("solve", help="compute the exact value of a game")
    ps.add_argument("file", help="game description (JSON)")
    ps.add_argument("--threshold", metavar="p/q",
                    help="also decide whether the value is at most p/q")
    ps.add_argument("--check-anz", action="store_true",
                    help="only certify the cycle structure, do not solve")
    ps.add_argument("--dump-regions", action="store_true",
                    help="list the region game's locations")
    ps.add_argument("--dump-value-functions", metavar="OUT",
                    help="write per-location value functions as JSON")
    ps.add_argument("--oracle", action="store_true",
                    help="run the discretized oracle instead of the exact solver")
    ps.add_argument("--grid", type=int, default=16, metavar="N",
                    help="oracle grid resolution (default 16)")
    ps.add_argument("--horizon", type=int, default=50, metavar="K",
                    help="oracle step horizon (default 50)")
    ps.add_argument("--oracle-dump", metavar="OUT",
                    help="write the oracle's horizon layer as CSV")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.oracle or args.oracle_dump:
            return _oracle_cmd(args)
        return _solve_cmd(args)
    except NotAlmostNonZeno as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
