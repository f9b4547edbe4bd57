"""Benchmark of the exact solver: one workload, one process, closed loop.

    python3 bench/run.py --workload chain --seed 1 --seconds 25 --trace 0

A single caller solves one game at a time through the library
(``gameio.load_game`` once per game, then ``unfold.solve``), with no
threads.  A pass solves every game of the workload once; the run makes
whole passes until ``--seconds`` have gone by and at least three passes are
done.  Every outcome is checked against the references of
``references.py``, which a child process computes before timing starts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``setup_s``, ``wall_s``,
``solve_gmean_s``, ``peak_rss_mb``); with ``--trace 1`` the run alternates
untraced and traced passes and reports the per-layer metrics of
``tracing.py``, whose spans it writes to ``bench/out/``.  The exit code is 0
when every outcome matched its reference, 1 when one did not, and 2 when
the solver's sources are missing.
"""
import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

from families import WORKLOADS, workload
from references import check_value, check_witness
from tracing import SELF_TIMES, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_PASSES = 3
SETUP_PER_PASS = 3


def child_json(script, *args):
    """Run one of the benchmark's scripts in a fresh interpreter and return
    the JSON it prints."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, script), *args],
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{script} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


class SetupProbe:
    """Set-up samples, each from a fresh interpreter that imports the solver
    and loads the workload's games.  They are taken between passes, so that
    they see the machine in the same states as the solves; the first
    interpreter only fills the bytecode cache and is not counted."""

    def __init__(self, paths):
        self.paths = paths
        self.samples = []
        child_json("probe_setup.py", *paths)

    def sample(self):
        for _ in range(SETUP_PER_PASS):
            self.samples.append(child_json("probe_setup.py", *self.paths))

    def metrics(self):
        med = lambda key: statistics.median(s[key] for s in self.samples)  # noqa: E731
        return {"setup_s": statistics.median(s["import_s"] + s["load_s"]
                                             for s in self.samples),
                "setup.import_s": med("import_s"), "gameio.load_s": med("load_s")}


class Runner:
    """Solves the loaded games pass by pass and checks every outcome."""

    def __init__(self, games, refs):
        from wtgsolve import unfold
        self.unfold = unfold
        self.games = games          # (name, game dict, loaded game)
        self.refs = refs
        self.tracer = None          # set during traced passes
        self.attempted = 0
        self.errors = []
        self.wrong = []

    def solve_pass(self, times):
        """One pass; appends each game's solve time to ``times[name]`` and
        returns the pass's total solve time."""
        total = 0.0
        for name, data, game in self.games:
            if self.tracer is not None:
                self.tracer.game = name
            gc.collect()
            outcome = None
            start = time.perf_counter()
            try:
                outcome = ("value", self.unfold.solve(game).value)
            except self.unfold.NotAlmostNonZeno as exc:
                outcome = ("reject", exc.report)
            except Exception:  # a failed solve is counted, not fatal
                self.errors.append(f"{name}: {traceback.format_exc()}")
            elapsed = time.perf_counter() - start
            self.attempted += 1
            total += elapsed
            times.setdefault(name, []).append(elapsed)
            if outcome is None:
                continue
            ref = self.refs[name]
            kind, got = outcome
            ok = (check_value(got, ref) if kind == "value"
                  else ref["expect"] == "reject" and check_witness(got, data))
            if not ok:
                self.wrong.append(f"{name}: got {kind} {got}, expected {ref}")
        return total


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description="Benchmark of the exact solver.")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "wtgsolve", "unfold.py")):
        print(f"solver sources not found under {SRC}", file=sys.stderr)
        return 2
    # The solver iterates over sets of strings, so which ANZ witness it
    # reports, and how many cycles it checks first, follow the interpreter's
    # string hashing.  Fixing the hash seed from --seed makes a run repeat.
    hash_seed = str(args.seed % 2 ** 32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)

    # Inputs: the workload's games as JSON files, from the seed alone.
    games_dir = os.path.join(OUT, f"games-{args.workload}-{args.seed}")
    os.makedirs(games_dir, exist_ok=True)
    specs = workload(args.workload, args.seed)
    paths = []
    for name, data, _expected in specs:
        path = os.path.join(games_dir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(data, fh, indent=1)
        paths.append(path)

    refs = child_json("references.py", "--workload", args.workload,
                      "--seed", str(args.seed))
    probe = SetupProbe(paths)

    sys.path.insert(0, SRC)
    from wtgsolve.gameio import load_game
    games = [(name, data, load_game(path))
             for (name, data, _), path in zip(specs, paths)]
    runner = Runner(games, refs)

    start = time.perf_counter()
    if args.trace:
        metrics = traced_run(runner, probe, args, start)
        setup = probe.metrics()
        metrics["setup.import_s"] = metric(setup["setup.import_s"], "s")
        metrics["gameio.load_s"] = metric(setup["gameio.load_s"], "s")
    else:
        times, passes = {}, []
        while (len(passes) < MIN_PASSES
               or time.perf_counter() - start < args.seconds):
            probe.sample()
            passes.append(runner.solve_pass(times))
        setup = probe.metrics()
        gmean = math.exp(statistics.fmean(
            math.log(statistics.median(ts)) for ts in times.values()))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"setup_s": metric(setup["setup_s"], "s"),
                   "wall_s": metric(statistics.median(passes), "s"),
                   "solve_gmean_s": metric(gmean, "s"),
                   "peak_rss_mb": metric(rss_mb, "MB")}

    for line in runner.errors + runner.wrong:
        print(line, file=sys.stderr)
    failed = len(runner.errors) + len(runner.wrong)
    correct = not runner.wrong
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct and not failed else 1


def traced_run(runner, probe, args, start):
    """Alternate untraced and traced passes; per-layer metrics are the
    medians over traced passes, counts those of one traced pass (checked to
    repeat exactly), and the overhead is traced over untraced pass time."""
    tracer = Tracer()
    plain, traced, self_times, counts = [], [], [], None
    while not traced or time.perf_counter() - start < args.seconds:
        probe.sample()
        plain.append(runner.solve_pass({}))
        tracer.install()
        runner.tracer = tracer
        try:
            tracer.begin_pass()
            traced.append(runner.solve_pass({}))
        finally:
            runner.tracer = None
            tracer.uninstall()
        self_times.append(tracer.pass_self_times())
        if counts is None:
            counts = tracer.pass_counts()
        elif counts != tracer.pass_counts():
            raise RuntimeError("per-layer counts differ between traced passes")
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))

    metrics = {}
    for name in SELF_TIMES:
        metrics[name] = metric(statistics.median(s[name] for s in self_times), "s")
    for name, value in counts.items():
        metrics[name] = metric(value, "count")
    calls = counts["regions.feasibility_calls"]
    metrics["regions.feasibility_unique_ratio"] = metric(
        counts["regions.feasibility_distinct"] / calls if calls else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = metric(
        statistics.median(traced) / statistics.median(plain), "ratio")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
