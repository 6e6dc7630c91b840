"""The benchmark tracer still fits the engine.

`bench/tracer.py` wraps every public function of the engine and the methods
named in its `METHODS`, and its coverage self-test compares the wrapped call
counts with cProfile's.  An engine change that renames a traced method, or
calls a public function through a binding the tracer cannot replace (a dict
entry, a default argument, an alias), breaks the benchmark's gates; this test
catches that in the test suite.  It runs in a subprocess because the tracer
patches the engine's modules in place.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import cProfile, importlib, json, sys
sys.path[:0] = [{src!r}, {bench!r}]
from tracer import METHODS, Tracer
unresolved = [key for key in METHODS
              if key[2] not in vars(getattr(importlib.import_module("orbint." + key[0]),
                                            key[1]))]
tracer = Tracer()
tracer.install()
profile = cProfile.Profile()
profile.enable()
import orbint
from orbint import DiffForm, MultiPoly, RationalFn
results = []
for name in ("A1", "A2", "product(A1, trivial-1)"):
    model = orbint.catalog_model(name)
    field, yvars = model.field, model.yvars
    y0 = MultiPoly.var(field, yvars, yvars[0])
    one = MultiPoly.const(field, yvars, 1)
    # a polynomial coefficient, and one over a denominator, whose pull-back,
    # symmetrization and trace reach RationalFn's cross-gcd and
    # equal-denominator rules
    for coeff in (RationalFn(y0 * y0 + one), RationalFn(y0 + one * 2, y0)):
        alpha = DiffForm(field, yvars, 1, {{(0,): coeff}})
        (_, ok), = orbint.verify_direct_factor(model, [alpha])
        results.append(ok)
profile.disable()
print(json.dumps({{"unresolved": unresolved, "results": results,
                  "mismatches": tracer.coverage_mismatches(profile),
                  "solve_calls": tracer.count("arith.solve_linear"),
                  "gcd_calls": tracer.count("poly.mp_gcd")}}))
"""


def test_tracer_wraps_the_engine_and_matches_cprofile():
    script = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "bench"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["unresolved"] == []
    assert out["mismatches"] == []
    assert out["results"] == [True] * 6
    assert out["solve_calls"] > 0
    assert out["gcd_calls"] > 0


SPLIT_SCRIPT = """
import json, random, sys
sys.path[:0] = [{src!r}, {bench!r}]
from tracer import Tracer
tracer = Tracer()
tracer.install()
from orbint import QQ, CyclotomicField, Ideal, MultiPoly, split_clusters


class Forms(random.Random):
    # counts the linear forms split_clusters draws; an all-zero draw is
    # skipped without an attempt
    def __init__(self, seed, n):
        super().__init__(seed)
        self.n, self.draw, self.attempts = n, [], 0

    def randint(self, lo, hi):
        value = super().randint(lo, hi)
        self.draw.append(value)
        if len(self.draw) == self.n:
            self.attempts += any(self.draw)
            self.draw = []
        return value


rows = []
for field in (QQ, CyclotomicField(3)):
    vs = ("t1", "t2")
    t1, t2 = (MultiPoly.var(field, vs, v) for v in vs)
    for gens in ([t1 ** 2 - 1, t2 ** 2 - 1], [t2 - t1 ** 2, t2],
                 [t1 ** 2 - 2, t2 - t1], [t2 - t1 ** 3, t2 - t1]):
        for seed in range(6):
            before = (tracer.count("arith.char_poly"),
                      tracer.count("arith.factor_univariate"),
                      len(tracer.split_attempts))
            rng = Forms(seed, 2)
            split_clusters(Ideal(field, vs, gens), rng)
            rows.append([rng.attempts,
                         tracer.count("arith.char_poly") - before[0],
                         tracer.count("arith.factor_univariate") - before[1],
                         tracer.split_attempts[before[2]:]])
print(json.dumps(rows))
"""


def test_split_clusters_makes_one_char_poly_and_one_factorization_per_attempt():
    """`cycle.split_clusters.attempts` counts the `char_poly` calls inside a
    `split_clusters` span, so nothing that span calls may compute another
    characteristic polynomial; and each attempt factors chi exactly once."""
    script = SPLIT_SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "bench"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(rows) == 48
    assert any(attempts > 1 for attempts, *_ in rows)
    for attempts, char_polys, factorizations, traced in rows:
        assert char_polys == factorizations == attempts
        assert traced == [attempts]
