"""One set-up sample: import the solver, then load the given game files.

Run as ``python3 bench/probe_setup.py GAME.json ...`` in a fresh
interpreter; prints ``{"import_s": ..., "load_s": ...}``.  The interpreter's
own start-up is not part of either figure.
"""
import json
import os
import sys
import time


def main(paths):
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    t0 = time.perf_counter()
    import wtgsolve.gameio
    import wtgsolve.unfold  # noqa: F401  (the solver's entry point)
    t1 = time.perf_counter()
    for path in paths:
        wtgsolve.gameio.load_game(path)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}))


if __name__ == "__main__":
    main(sys.argv[1:])
