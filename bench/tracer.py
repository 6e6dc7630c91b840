"""Per-layer tracing by wrapping the engine's public functions from outside.

`Tracer.install()` replaces every public function of each `orbint` module
(and the few methods named in `METHODS`) with a wrapper that records a span:
call count, total time of the outermost call and self time, which is the
span's duration minus the time covered by wrapped child spans.  A function
that several modules import by name is replaced at every binding, so no call
slips past the wrapper.  The engine itself is not modified on disk.

A few wrappers record effort counts beside the span (the Groebner input key,
factorization degrees, linear-system rows, separation attempts and orbit
cache hits); `metrics()` turns the raw tallies into the per-layer metrics
that `BENCHMARK.json` lists.
"""

from __future__ import annotations

import importlib
import inspect
import time
import types
import warnings

LAYERS = ("arith", "poly", "group", "quotient", "cycle", "forms", "verify",
          "scene", "cli")

# (module, class, attribute) -> span name; __rmul__ is an alias of __mul__.
METHODS = {
    ("arith", "CycElem", "__mul__"): "arith.CycElem.mul",
    ("arith", "CycElem", "__rmul__"): "arith.CycElem.mul",
    ("arith", "CycElem", "inverse"): "arith.CycElem.inverse",
    ("cycle", "OrbitClass", "of"): "cycle.OrbitClass.of",
}

# Counts that must repeat exactly for the same seed and op list.
EFFORT_COUNTS = ("poly.buchberger.calls", "poly.normal_form_list.calls",
                 "arith.factor_univariate.calls", "cycle.split_clusters.attempts",
                 "arith.CycElem.mul.calls", "arith.CycElem.inverse.calls")


class Span:
    __slots__ = ("calls", "total", "self", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.originals: dict[str, list] = {}   # span name -> original functions
        self.stack: list[list[float]] = []     # child-time accumulators
        self.gb_keys: set = set()
        self.factor_degrees: list[int] = []
        self.solve_rows = 0
        self.split_attempts: list[int] = []
        self.orbit_hits = 0
        self.noncm_warnings = 0

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every public function of every layer at all its bindings."""
        modules = {name: importlib.import_module(f"orbint.{name}")
                   for name in LAYERS}
        package = importlib.import_module("orbint")
        replace = {}
        for short, mod in modules.items():
            for attr, value in vars(mod).items():
                if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                        or value.__module__ != mod.__name__):
                    continue
                replace[id(value)] = self._wrap(f"{short}.{attr}", value)
        for mod in list(modules.values()) + [package]:
            for attr, value in list(vars(mod).items()):
                if id(value) in replace and isinstance(value, types.FunctionType):
                    setattr(mod, attr, replace[id(value)])
        for (short, cls_name, attr), name in METHODS.items():
            cls = getattr(modules[short], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, self._wrap(name, raw))
        # NonCMWarning is issued through `cycle.warnings.warn`; count it there.
        cycle = modules["cycle"]
        errors = importlib.import_module("orbint.errors")
        real_warn = warnings.warn

        def warn(message, category=None, *args, **kwargs):
            if category is errors.NonCMWarning:
                self.noncm_warnings += 1
            return real_warn(message, category, *args, **kwargs)

        cycle.warnings = types.SimpleNamespace(warn=warn)

    def _wrap(self, name: str, fn):
        span = self.spans.setdefault(name, Span())
        originals = self.originals.setdefault(name, [])
        if fn not in originals:
            originals.append(fn)
        before = self._hooks(name, fn)
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            after = before(args, kwargs) if before else None
            child = [0.0]
            stack.append(child)
            span.depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                span.depth -= 1
                stack.pop()
                span.calls += 1
                span.self += elapsed - child[0]
                if span.depth == 0:
                    span.total += elapsed
                if stack:
                    stack[-1][0] += elapsed
                if after:
                    after()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def _hooks(self, name: str, fn):
        """Effort recorders; each returns an optional callback run on exit."""
        if name == "poly.buchberger":
            sig = inspect.signature(fn)

            def before(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                gens = [g for g in bound.arguments["gens"] if not g.is_zero()]
                ring = (gens[0].field, gens[0].vars) if gens else None
                self.gb_keys.add((ring, bound.arguments["order"], frozenset(gens),
                                  bound.arguments["budget"]))
            return before
        if name == "arith.factor_univariate":
            def before(args, kwargs):
                self.factor_degrees.append(args[0].degree)
            return before
        if name == "arith.solve_linear":
            def before(args, kwargs):
                rows = args[1] if len(args) > 1 else kwargs["a_rows"]
                self.solve_rows += len(rows)
            return before
        if name == "cycle.split_clusters":
            def before(args, kwargs):
                start = self.count("arith.char_poly")
                return lambda: self.split_attempts.append(
                    self.count("arith.char_poly") - start)
            return before
        if name == "cycle.OrbitClass.of":
            def before(args, kwargs):
                start = self.count("group.act_ideal")

                def after():
                    if self.count("group.act_ideal") == start:
                        self.orbit_hits += 1
                return after
            return before
        return None

    # -- results --------------------------------------------------------------

    def count(self, name: str) -> int:
        span = self.spans.get(name)
        return span.calls if span else 0

    def call_counts(self) -> dict[str, int]:
        return {name: span.calls for name, span in sorted(self.spans.items())}

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except `trace.overhead_ratio`."""
        out: dict[str, float] = {}
        for name, span in self.spans.items():
            out[f"{name}.calls"] = span.calls
            out[f"{name}.self_s"] = span.self
            out[f"{name}.total_s"] = span.total
        calls = self.count("poly.buchberger")
        out["poly.buchberger.distinct_ratio"] = _ratio(len(self.gb_keys), calls)
        out["arith.factor_univariate.degree_max"] = max(self.factor_degrees, default=0)
        out["arith.factor_univariate.degree_sum"] = sum(self.factor_degrees)
        out["arith.solve_linear.rows_sum"] = self.solve_rows
        tried = [a for a in self.split_attempts if a > 0]
        out["cycle.split_clusters.attempts"] = sum(tried)
        out["cycle.split_clusters.first_try_ratio"] = _ratio(
            sum(1 for a in tried if a == 1), len(tried))
        out["cycle.OrbitClass.of.hit_ratio"] = _ratio(
            self.orbit_hits, self.count("cycle.OrbitClass.of"))
        out["cycle.intersect_model.noncm_warnings"] = self.noncm_warnings
        out["cli.render.total_s"] = (out.get("cli.render_text.total_s", 0.0)
                                     + out.get("cli.render_json.total_s", 0.0))
        return out

    def effort_counts(self) -> dict[str, int]:
        m = self.metrics()
        return {name: m.get(name, 0) for name in EFFORT_COUNTS}

    def coverage_mismatches(self, profile) -> list[str]:
        """Compare each wrapped function's traced call count with cProfile's
        `ncalls` for its code object; returns one line per disagreement."""
        import pstats
        stats = pstats.Stats(profile).stats
        bad = []
        for name, originals in sorted(self.originals.items()):
            profiled = 0
            for fn in originals:
                code = fn.__code__
                entry = stats.get((code.co_filename, code.co_firstlineno,
                                   code.co_name))
                profiled += entry[1] if entry else 0
            if profiled != self.spans[name].calls:
                bad.append(f"{name}: traced {self.spans[name].calls}, "
                           f"cProfile {profiled}")
        return bad


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
