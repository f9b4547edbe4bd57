"""Spans and counts around the solver's layers, for a traced run only.

:class:`Tracer` replaces the public functions of ``wtgsolve.regions``,
``wtgsolve.unfold``, ``wtgsolve.cycles`` and ``wtgsolve.kernelvi`` by
wrappers, in every module namespace the solver looks them up from, and puts
the originals back on :meth:`Tracer.uninstall`.  Nothing under ``src/``
changes.  A span is (name, start, end, parent index, game); spans stay in
memory until :meth:`Tracer.write` writes them out as JSON lines.  A span's
self time is its duration minus that of its direct children, which lie
inside it because the benchmark solves one game at a time.
"""
import inspect
import json
import time

# Span name -> the modules through whose namespace the solver calls the
# function; the first one defines it.
TARGETS = {
    "regions.normalize_01": ("regions", "unfold"),
    "regions.build_region_wtg": ("regions", "unfold"),
    "regions.trim": ("regions", "unfold"),
    "regions.relax": ("regions", "unfold"),
    "regions.add_resets": ("regions", "unfold"),
    "regions.prune_unreachable": ("regions", "unfold"),
    "regions.delay_feasible": ("regions",),
    "regions.elapsed_region_feasible": ("regions",),
    "unfold.solve": ("unfold",),
    "unfold.prune_dead_rolls": ("unfold",),
    "unfold.prune_max_traps": ("unfold",),
    "unfold.value_functions": ("unfold",),
    "cycles.build_corner_point": ("cycles", "unfold"),
    "cycles.check_almost_non_zeno": ("cycles", "unfold"),
    "cycles.mark_green": ("cycles", "unfold"),
    "cycles.fix_weight_zero": ("cycles", "unfold"),
    "cycles.extract_kernel": ("cycles", "unfold"),
    "cycles.compute_bounds": ("cycles", "unfold"),
    "kernelvi.iterate": ("kernelvi", "unfold"),
}

# Per-layer self-time metric -> the spans it sums.
SELF_TIMES = {
    "regions.normalize_s": ("regions.normalize_01",),
    "regions.build_s": ("regions.build_region_wtg",),
    "regions.trim_s": ("regions.trim",),
    "regions.relax_s": ("regions.relax",),
    "regions.add_resets_s": ("regions.add_resets",),
    "regions.feasibility_s": ("regions.delay_feasible",
                              "regions.elapsed_region_feasible"),
    "unfold.prune_s": ("regions.prune_unreachable", "unfold.prune_dead_rolls",
                       "unfold.prune_max_traps"),
    "unfold.value_functions_s": ("unfold.value_functions",),
    "cycles.corner_point_s": ("cycles.build_corner_point",),
    "cycles.anz_s": ("cycles.check_almost_non_zeno",),
    "cycles.kernel_s": ("cycles.mark_green", "cycles.fix_weight_zero",
                        "cycles.extract_kernel", "cycles.compute_bounds"),
    "kernelvi.iterate_s": ("kernelvi.iterate",),
}

COUNTS = (
    "regions.feasibility_calls",
    "regions.feasibility_distinct",
    "regions.product_locations",
    "regions.product_transitions",
    "regions.final_locations",
    "regions.final_transitions",
    "unfold.sweeps",
    "unfold.max_breakpoints",
    "cycles.corner_edges",
    "cycles.cycles_checked",
    "cycles.kernel_components",
    "kernelvi.iterate_calls",
    "kernelvi.iterate_repeats",
    "kernelvi.vi_steps",
)

_FEASIBILITY = ("regions.delay_feasible", "regions.elapsed_region_feasible")


def _hashable(value):
    if isinstance(value, (list, tuple)):
        return tuple(_hashable(v) for v in value)
    return value


def _query_key(name, params, args, kwargs):
    """The full argument list of a call, defaults filled in, as a key."""
    values = list(args) + [kwargs.get(p.name, p.default)
                           for p in params[len(args):]]
    return (name,) + tuple(_hashable(v) for v in values)


class Tracer:
    """Records spans and counts of one traced pass at a time."""

    def __init__(self):
        import wtgsolve.cycles
        import wtgsolve.kernelvi
        import wtgsolve.regions
        import wtgsolve.unfold
        self._modules = {"regions": wtgsolve.regions,
                         "unfold": wtgsolve.unfold,
                         "cycles": wtgsolve.cycles,
                         "kernelvi": wtgsolve.kernelvi}
        self._saved = []
        self.spans = []       # (name, start, end, parent, game)
        self._stack = []
        self.game = None
        self.counts = {}
        self._queries = set()
        self._last_vi = {}
        self._first_span = 0

    # -- installing -----------------------------------------------------

    def install(self):
        for name, homes in TARGETS.items():
            module, attr = name.split(".")
            original = getattr(self._modules[module], attr)
            wrapper = self._wrap(name, original)
            for home in homes:
                mod = self._modules[home]
                self._saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved = []

    def begin_pass(self):
        """Start the counts of a new pass; spans keep accumulating."""
        self.counts = dict.fromkeys(COUNTS, 0)
        self._queries = set()
        self._last_vi = {}
        self._first_span = len(self.spans)

    def _wrap(self, name, original):
        params = list(inspect.signature(original).parameters.values())
        observe = getattr(self, "_on_" + name.replace(".", "_"), None)
        feasibility = name in _FEASIBILITY

        def wrapper(*args, **kwargs):
            if feasibility:
                self.counts["regions.feasibility_calls"] += 1
                self._queries.add(_query_key(name, params, args, kwargs))
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.game)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    # -- counts read off arguments and results ---------------------------

    def _on_regions_build_region_wtg(self, args, kwargs, rg):
        self.counts["regions.product_locations"] += len(rg.game.locations)
        self.counts["regions.product_transitions"] += len(rg.game.transitions)

    def _on_cycles_build_corner_point(self, args, kwargs, cp):
        rg = args[0] if args else kwargs["rg"]
        self.counts["regions.final_locations"] += len(rg.game.locations)
        self.counts["regions.final_transitions"] += len(rg.game.transitions)
        self.counts["cycles.corner_edges"] += cp.graph.number_of_edges()

    def _on_cycles_check_almost_non_zeno(self, args, kwargs, report):
        self.counts["cycles.cycles_checked"] += report.cycles_checked

    def _on_cycles_extract_kernel(self, args, kwargs, kernel):
        self.counts["cycles.kernel_components"] += len(kernel.components)

    def _on_unfold_solve(self, args, kwargs, verdict):
        self.counts["unfold.sweeps"] += verdict.sweeps

    def _on_unfold_value_functions(self, args, kwargs, values):
        most = max((len(nv.plf.points) for nv in values.values()
                    if nv.plf is not None), default=0)
        self.counts["unfold.max_breakpoints"] = max(
            self.counts["unfold.max_breakpoints"], most)

    def _on_kernelvi_iterate(self, args, kwargs, res):
        g = args[0] if args else kwargs["g"]
        component = (self.game, frozenset(
            n for n, l in g.locations.items() if not l.is_goal))
        self.counts["kernelvi.iterate_calls"] += 1
        self.counts["kernelvi.vi_steps"] += res.steps
        if self._last_vi.get(component) == res.functions:
            self.counts["kernelvi.iterate_repeats"] += 1
        self._last_vi[component] = res.functions

    # -- results ---------------------------------------------------------

    def pass_counts(self):
        """The counts of the current pass, distinct feasibility queries
        included."""
        out = dict(self.counts)
        out["regions.feasibility_distinct"] = len(self._queries)
        return out

    def pass_self_times(self):
        """Self time per metric of :data:`SELF_TIMES` over the current pass."""
        spans = self.spans[self._first_span:]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _game in spans:
            if parent >= self._first_span:
                child_time[parent - self._first_span] += end - start
        by_span = {}
        for (name, start, end, _parent, _game), inner in zip(spans, child_time):
            by_span[name] = by_span.get(name, 0.0) + (end - start - inner)
        return {metric: sum(by_span.get(n, 0.0) for n in names)
                for metric, names in SELF_TIMES.items()}

    def write(self, path):
        """Write every span recorded as one JSON object per line."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, game) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "game": game}) + "\n")
