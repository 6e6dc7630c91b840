"""The four seeded workloads: corpus generation, the timed op, and its checks.

A corpus is plain JSON data (polynomials as lists of `[exponents, coefficient]`
terms), generated in the `run.py` process from the workload seed.  The worker
process rebuilds every engine object from that data inside the timed op, so
no model or `Ideal` built during generation reaches the timed phase and the
engine's caches start cold.

The workloads share the interface of `Workload`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_SEEDS = (0, 7)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# polynomial data <-> engine objects
# ---------------------------------------------------------------------------

def encode_scalar(value):
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else str(value)
    return [encode_scalar(c) for c in value.coords]   # CycElem


def decode_scalar(field, data):
    if isinstance(data, list):
        from orbint.arith import CycElem
        return CycElem(field, tuple(Fraction(c) for c in data))
    return field.coerce(Fraction(data))


def encode_poly(p) -> list:
    return [[list(m), encode_scalar(c)] for m, c in sorted(p.terms.items())]


def decode_poly(orbint, field, variables, data):
    return orbint.MultiPoly(field, variables,
                            {tuple(m): decode_scalar(field, c) for m, c in data})


def _redraw_until_new(seen: set, draw) -> dict:
    """The first op from `draw()` that is not already in `seen`, so that no
    input repeats within a corpus and a memo of whole ops finds no hits."""
    while True:
        op = draw()
        key = json.dumps(op, sort_keys=True)
        if key not in seen:
            seen.add(key)
            return op


class Workload:
    """A seeded op list and the timed op that runs one element of it.

    * `corpus(seed, orbint, count)` - the first `count` ops of the op list,
      deterministic in the seed;
    * `setup(orbint)` - the context built before the first timed op;
    * `execute(ctx, op, index, seed)` - the timed op on corpus element
      `index`, returning its raw result;
    * `check(ctx, op, result)` - the canonical result text (digested and
      compared with the stored reference digests) and the list of failed
      exact checks;
    * `digest_key(op, index, seed)` - where that digest is stored.

    `corpus_size`: the number of distinct ops, several times what a timed
    run uses at this engine's speed; a run that uses them all stops early
    and reports `corpus_exhausted`.  `pass_length`: a timed run ends on a
    multiple of it.  `trace_ops`: the op count of a traced run.
    `tail_percentile`: the percentile `op_tail_ms`
    reports, the highest with at least ten samples beyond it in a run at this
    engine's speed, fixed so that the metric means the same on every commit.
    `memory_ops`: `peak_rss_mb` is the peak after this many ops, about what a
    timed run does at this engine's speed (or at the end of a shorter run).
    The per-model caches grow with every op, so a peak over the whole run
    would read a faster engine, which runs more ops, as a memory regression.
    """

    name: str
    models: tuple[str, ...] = ()
    corpus_size: int
    pass_length = 1
    trace_ops: int
    tail_percentile: int
    memory_ops: int

    def setup(self, orbint):
        return {"orbint": orbint,
                "models": {name: orbint.catalog_model(name) for name in self.models}}

    def digest_key(self, op, index, seed) -> str:
        return f"{seed}:{index}"


# ---------------------------------------------------------------------------
# products-q / products-zeta3
# ---------------------------------------------------------------------------

HYPER_DEGREE = 2   # hypersurfaces are conics and quadrics


class _SplitRandom:
    """The generator `verify.random_prime` draws from, split in two: the
    shape draws (`sample`, `random`, `choice`) come from `layout`, the
    coefficients (`randint`) from `coef`."""

    def __init__(self, layout: random.Random, coef: random.Random):
        self.sample, self.random, self.choice = layout.sample, layout.random, layout.choice
        self.randint = coef.randint


def _hypersurface(layout: random.Random, coef: random.Random, n: int,
                  irreducible) -> list:
    """Polynomial of degree at most HYPER_DEGREE with a constant term, kept
    only if irreducible; coefficients are redrawn until it is."""
    support = {(0,) * n}
    for _ in range(layout.randint(2, 4)):
        e = [0] * n
        for _ in range(layout.randint(1, HYPER_DEGREE)):
            e[layout.randrange(n)] += 1
        support.add(tuple(e))
    while True:
        data = [[list(m), coef.choice([-3, -2, -1, 1, 2, 3])] for m in sorted(support)]
        if irreducible(data):
            return [data]


class Products(Workload):
    """Each op builds X and Y from generator data and runs `intersect_model`.

    The structure of op i (model, codimensions, graph or hypersurface sides,
    component counts, supports and degrees) comes from a generator that does
    not depend on the seed, so every seed runs the same mix of shapes and
    sizes; the seed draws the coefficients.  Most of the spread of op cost
    between seeds would otherwise come from the structure.  (A zero
    coefficient drops a term of a graph prime, and a redrawn duplicate
    consumes further structure draws, so the seed reaches the structure a
    little.)
    """

    def __init__(self, name: str, models: tuple[str, ...], corpus_size: int,
                 trace_ops: int, tail_percentile: int, memory_ops: int,
                 max_components: int):
        self.name = name
        self.models = models
        self.max_components = max_components
        self.corpus_size = corpus_size
        self.trace_ops = trace_ops
        self.tail_percentile = tail_percentile
        self.memory_ops = memory_ops

    def shapes(self, n: int) -> list[tuple]:
        if n == 2:
            return [((1, 1), kx, ky) for kx in "gh" for ky in "gh"]
        # complementary codimensions meet in points; (1, 1) is curve-valued
        return [((1, 2), "g", "g"), ((1, 2), "h", "g"), ((2, 1), "g", "g"),
                ((2, 1), "g", "h"), ((1, 1), "g", "g"), ((1, 1), "h", "g")]

    def corpus(self, seed: int, orbint, count: int) -> list:
        layout = random.Random(f"{self.name}:shape")
        coef = random.Random(f"{self.name}:{seed}")
        gen_models = {name: orbint.catalog_model(name) for name in self.models}
        schedule = [(name, shape) for name in self.models
                    for shape in self.shapes(gen_models[name].n)]
        ops, seen = [], set()
        for i in range(count):
            block, pos = divmod(i, len(schedule))
            name, ((cx, cy), kx, ky) = schedule[pos]
            model = gen_models[name]

            def irreducible(data, model=model):
                p = decode_poly(orbint, model.field, model.uvars, data)
                factors = orbint.mp_factor(p)
                return len(factors) == 1 and factors[0][1] == 1

            def side(codim, kind, components):
                return [[_hypersurface(layout, coef, model.n, irreducible)
                         if kind == "h" else
                         [encode_poly(g) for g in orbint.verify.random_prime(
                             model, _SplitRandom(layout, coef), codim).gens],
                         coef.randint(1, 3)] for _ in range(components)]

            comps = self.max_components
            ops.append(_redraw_until_new(seen, lambda: {
                "model": name, "codims": [cx, cy],
                "x": side(cx, kx, 1 + block % comps),
                "y": side(cy, ky, 1 + (block // comps) % comps)}))
        return ops

    def _cycle(self, orbint, model, parts):
        field, uvars = model.field, model.uvars
        return orbint.DownstairsCycle.from_upstairs_primes(model, [
            (orbint.Ideal(field, uvars,
                          [decode_poly(orbint, field, uvars, g) for g in gens]),
             Fraction(coeff))
            for gens, coeff in parts])

    def execute(self, ctx, op, index, seed):
        orbint = ctx["orbint"]
        model = ctx["models"][op["model"]]
        x = self._cycle(orbint, model, op["x"])
        y = self._cycle(orbint, model, op["y"])
        return orbint.intersect_model(model, x, y, random.Random(f"{seed}:{index}"))

    def check(self, ctx, op, result):
        model = ctx["models"][op["model"]]
        problems = []
        expected_dim = model.n - sum(op["codims"])
        for _, coeff in result.components:
            if coeff <= 0:
                problems.append(f"non-positive coefficient {coeff}")
        # all generated coefficients are integers, so k.(X.Y) must be integral
        if not result.scale(model.k).is_integral():
            problems.append("k.(X.Y) is not integral")
        if not result.is_empty() and result.dim != expected_dim:
            problems.append(f"dimension {result.dim}, expected {expected_dim}")
        return repr(result), problems


# ---------------------------------------------------------------------------
# forms-trace
# ---------------------------------------------------------------------------

class FormsTrace(Workload):
    """Each op runs `verify_direct_factor` on one random downstairs form,
    i.e. checks trace(q^alpha) = k.alpha exactly."""

    name = "forms-trace"
    models = ("A1", "A2", "product(A1, trivial-1)")
    corpus_size = 2000
    trace_ops = 54
    tail_percentile = 90
    memory_ops = 150

    def corpus(self, seed: int, orbint, count: int) -> list:
        coef = random.Random(f"{self.name}:{seed}")
        gen_models = {name: orbint.catalog_model(name) for name in self.models}
        dens = {name: orbint.forms.default_denominators(m)
                for name, m in gen_models.items()}
        ops, seen = [], set()
        for i in range(count):
            name = self.models[i % len(self.models)]
            degree = (i // len(self.models)) % 3
            ny = len(gen_models[name].yvars)
            slots = list(itertools.combinations(range(ny), degree))
            # structure, as in Products, but drawn per op: redrawing a
            # duplicate then changes the structure of that op only
            layout = random.Random(f"{self.name}:shape:{i}")

            def draw():
                den = encode_poly(layout.choice(dens[name]))
                terms = []
                for idx in layout.sample(slots, min(layout.randint(1, 2), len(slots))):
                    support = set()
                    for _ in range(layout.randint(1, 2)):
                        e = [0] * ny
                        if layout.random() < 0.7:
                            e[layout.randrange(ny)] += 1
                        support.add(tuple(e))
                    num = [[list(m), coef.choice([-2, -1, 1, 2, 3])]
                           for m in sorted(support)]
                    terms.append([list(idx), num, den])
                return {"model": name, "degree": degree, "terms": terms}

            ops.append(_redraw_until_new(seen, draw))
        return ops

    def execute(self, ctx, op, index, seed):
        orbint = ctx["orbint"]
        model = ctx["models"][op["model"]]
        field, yvars = model.field, model.yvars
        terms = {tuple(idx): orbint.RationalFn(decode_poly(orbint, field, yvars, num),
                                               decode_poly(orbint, field, yvars, den))
                 for idx, num, den in op["terms"]}
        alpha = orbint.DiffForm(field, yvars, op["degree"], terms)
        return orbint.verify_direct_factor(model, [alpha])

    def check(self, ctx, op, result):
        (alpha, ok), = result
        problems = [] if ok else ["trace(q^alpha) != k.alpha"]
        return f"{alpha!r}: {'pass' if ok else 'FAIL'}", problems


# ---------------------------------------------------------------------------
# scene-replay
# ---------------------------------------------------------------------------

class SceneReplay(Workload):
    """Each op is one report: parse a shipped scene, `cli.run` it, render it
    as text and JSON.  Pass j runs every scene at the seeds seed + 14j and
    seed + 14j + 7, so seed 0 starts with the reference seeds 0 and 7, and a
    run averages the verify scene's seed-dependent cost over several seeds."""

    name = "scene-replay"
    scenes = ("cone", "maps", "mu3", "verify")
    corpus_size = 320
    pass_length = 8      # a timed run ends only after a whole pass
    trace_ops = 8
    tail_percentile = 65
    memory_ops = 24

    def corpus(self, seed: int, orbint, count: int) -> list:
        return [{"scene": s, "seed": seed + 14 * j + shift}
                for j in range(count // self.pass_length)
                for shift in (0, 7) for s in self.scenes]

    def setup(self, orbint):
        texts = {s: (ROOT / "scenes" / f"{s}.scene").read_text(encoding="utf-8")
                 for s in self.scenes}
        return {"orbint": orbint, "texts": texts}

    def execute(self, ctx, op, index, seed):
        orbint = ctx["orbint"]
        scene = orbint.parse_scene(ctx["texts"][op["scene"]])
        report, code = orbint.cli.run(scene, seed=op["seed"])
        return orbint.cli.render_text(report), orbint.cli.render_json(report), code

    def check(self, ctx, op, result):
        text, json_text, code = result
        problems = [] if code == 0 else [f"exit code {code}"]
        if json.loads(json_text)["seed"] != op["seed"]:
            problems.append("JSON report carries the wrong seed")
        return json.dumps({"text": digest(text), "json": digest(json_text)}), problems

    def digest_key(self, op, index, seed) -> str:
        return f"{op['scene']}@{op['seed']}"


WORKLOADS = {
    "products-q": Products("products-q", ("A1", "trivial-3", "product(A1, trivial-1)"),
                           corpus_size=3600, trace_ops=64, tail_percentile=95,
                           memory_ops=400, max_components=2),
    "products-zeta3": Products("products-zeta3", ("A2",),
                               corpus_size=700, trace_ops=24, tail_percentile=90,
                               memory_ops=100, max_components=1),
    "forms-trace": FormsTrace(),
    "scene-replay": SceneReplay(),
}
