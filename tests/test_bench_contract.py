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
    coeff = RationalFn(y0 * y0 + MultiPoly.const(field, yvars, 1))
    alpha = DiffForm(field, yvars, 1, {{(0,): coeff}})
    (_, ok), = orbint.verify_direct_factor(model, [alpha])
    results.append(ok)
profile.disable()
print(json.dumps({{"unresolved": unresolved, "results": results,
                  "mismatches": tracer.coverage_mismatches(profile),
                  "solve_calls": tracer.count("arith.solve_linear")}}))
"""


def test_tracer_wraps_the_engine_and_matches_cprofile():
    script = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "bench"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["unresolved"] == []
    assert out["mismatches"] == []
    assert out["results"] == [True, True, True]
    assert out["solve_calls"] > 0
