"""Per-layer timing of curveplan taken from outside the package.

``Tracer.install`` wraps every public module-level function of the layer
modules and rebinds the wrapper under every name that refers to the
original in any ``curveplan`` module, so calls made through
``from .x import y`` imports and through module globals both pass through
it.  Nothing under ``src/`` changes.  Private helpers are not wrapped: their
time is part of the self time of the public function that calls them.

A function's self time is its wall time minus the wall time of the wrapped
calls made inside it; run.py scales the self times to reference seconds
(see speed.py) by the ratio of the traced pass's reference and wall time.  A call from one public function to another of the
same module folds into the caller (the face walk's ``next_halfedge`` into
``extract_regions``, ``find_span`` into ``deboor_point``), except for the
functions in REPORTED, whose self time is a metric of its own
(``intersect_curve_pair`` stays out of ``build_drawing``, ``invert`` out of
``pull_back``).  Folding moves time only within a module, so the per-layer
totals do not depend on it.  Results that say how much work a call did (hits,
tiles, quadrature nodes, inversion misses) are read from arguments and
return values at the same boundary.
"""

import inspect
import sys
import time

#: layer modules, in pipeline order; the metric prefix is the module name
LAYERS = (
    "curves",
    "arrangement",
    "regions",
    "quadrature",
    "splines",
    "quasi_interp",
    "cli",
    "serialize",
    "svg",
    "expressions",
)


class Stat:
    __slots__ = ("calls", "self_s", "failed")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.failed = 0


class Tracer:
    """Spans and counters for one traced pass; ``uninstall`` restores all."""

    def __init__(self, package):
        self.package = package
        self.stats = {}
        self.counters = {}
        # open spans as [layer, wall time of the spans inside it]
        self._stack = [[None, 0.0]]
        self._rebound = []  # (module, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self):
        prefix = self.package.__name__ + "."
        modules = [self.package] + [
            m for name, m in sorted(sys.modules.items()) if name.startswith(prefix)
        ]
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[prefix + layer]
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    setattr(mod, name, originals[id(obj)][1])
                    self._rebound.append((mod, name, obj))
        return self

    def uninstall(self):
        for mod, name, obj in reversed(self._rebound):
            setattr(mod, name, obj)
        self._rebound.clear()

    def _wrap(self, key, fn):
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack
        layer = key.split(".")[0]
        folds = key not in REPORTED
        observe = _OBSERVERS.get(key)
        sig = inspect.signature(fn) if observe else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [layer, 0.0]
            stack.append(span)
            t0 = clock()
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = clock()
                stack.pop()
                caller = stack[-1]
                stat.calls += 1
                if not ok:
                    stat.failed += 1
                elif observe is not None:
                    observe(self.counters, out, lambda: _arguments(sig, args, kwargs))
                # the caller's inner time includes the observer, so counting
                # is charged to no layer
                if folds and caller[0] == layer:
                    # a helper of its own module: its time stays the caller's
                    caller[1] += span[1] + (clock() - t1)
                else:
                    stat.self_s += t1 - t0 - span[1]
                    caller[1] += clock() - t0

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- results ------------------------------------------------------------

    def stat(self, key):
        return self.stats.get(key, Stat())

    def metrics(self, time_scale=1.0):
        """The per-layer metrics, {name: {"value", "unit"}}; self times are
        multiplied by ``time_scale``."""
        m = {}

        def put(name, value, unit):
            m[name] = {"value": value, "unit": unit}

        def ratio(num, den):
            return num / den if den else 0.0

        for layer in LAYERS:
            put(f"{layer}.self_s", time_scale * sum(
                s.self_s for k, s in self.stats.items() if k.split(".")[0] == layer
            ), "s")
        for key in CALLS_AND_SELF_TIMES:
            put(f"{key}.calls", self.stat(key).calls, "count")
            put(f"{key}.self_s", time_scale * self.stat(key).self_s, "s")
        for key in SELF_TIMES:
            put(f"{key}.self_s", time_scale * self.stat(key).self_s, "s")
        put("arrangement.pair_hit_ratio", ratio(
            self.counters.get("arrangement.pairs_hit", 0),
            self.stat("arrangement.intersect_curve_pair").calls), "ratio")
        for key in COUNTERS:
            put(key, self.counters.get(key, 0), "count")
        put("quadrature.tile_retry_ratio", ratio(
            self.stat("quadrature.tile_region").calls,
            self.stat("quadrature.region_tiles").calls), "ratio")
        put("quadrature.tile_region.failed", self.stat("quadrature.tile_region").failed, "count")
        put("splines.invert.miss_ratio", ratio(
            self.stat("splines.invert").failed, self.stat("splines.invert").calls), "ratio")
        put("splines.pull_back.failed", self.stat("splines.pull_back").failed, "count")
        return m


#: functions whose calls and self time are reported
CALLS_AND_SELF_TIMES = (
    "curves.deboor_point",
    "arrangement.intersect_curve_pair",
    "splines.invert",
    "splines.pull_back",
)

#: functions whose self time is reported on its own
SELF_TIMES = (
    "arrangement.build_drawing",
    "regions.purge_dangling_nodes",
    "regions.extract_regions",
    "regions.classify_regions",
    "quadrature.probe_tiles",
    "quadrature.integrate_tiles",
    "splines.build_interface_drawing",
    "quasi_interp.llm_project",
    "quasi_interp.level_set_coeffs",
    "serialize.region_set_to_json",
    "svg.regions_svg",
    "cli.main",
)

REPORTED = frozenset(CALLS_AND_SELF_TIMES + SELF_TIMES)

#: work counts read from arguments and return values (see _OBSERVERS)
COUNTERS = (
    "arrangement.hits",
    "arrangement.vertices",
    "arrangement.edges",
    "regions.regions",
    "regions.outer",
    "quadrature.probe_nodes",
    "quadrature.nodes",
    "quadrature.tiles",
    "quadrature.levels",
)


def _arguments(sig, args, kwargs):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _add(counters, key, value):
    counters[key] = counters.get(key, 0) + value


def _on_pair(counters, hits, arguments):
    _add(counters, "arrangement.hits", len(hits))
    _add(counters, "arrangement.pairs_hit", 1 if hits else 0)


def _on_drawing(counters, drawing, arguments):
    _add(counters, "arrangement.vertices", len(drawing.vertices))
    _add(counters, "arrangement.edges", len(drawing.edges))


def _on_classified(counters, region_set, arguments):
    _add(counters, "regions.regions", len(region_set.regions))
    _add(counters, "regions.outer", len(region_set.outer))


def _nodes(args, cap=None):
    n = int(args["n"])
    if cap is not None:
        n = min(n, cap)
    return len(args["tiles"]) * n * n


def _on_probe(counters, out, arguments):
    # probe_tiles caps n at 512 itself
    _add(counters, "quadrature.probe_nodes", _nodes(arguments(), cap=512))


def _on_integrate_tiles(counters, out, arguments):
    _add(counters, "quadrature.nodes", _nodes(arguments()))


def _on_region_tiles(counters, tiles, arguments):
    _add(counters, "quadrature.tiles", len(tiles))


def _on_adaptive(counters, report, arguments):
    _add(counters, "quadrature.levels", len(report.levels))


#: observers keyed by wrapped function; each sees the return value of a
#: call that returned normally and can ask for its bound arguments
_OBSERVERS = {
    "arrangement.intersect_curve_pair": _on_pair,
    "arrangement.build_drawing": _on_drawing,
    "regions.classify_regions": _on_classified,
    "quadrature.probe_tiles": _on_probe,
    "quadrature.integrate_tiles": _on_integrate_tiles,
    "quadrature.region_tiles": _on_region_tiles,
    "quadrature.integrate_adaptive": _on_adaptive,
}
