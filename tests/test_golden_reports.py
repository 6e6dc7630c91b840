"""The shipped scenes and the first product ops still give the results the
benchmark has on record.

`bench/digests.json` stores, for each scene at the seeds a scene-replay run
visits (0, 7, 14, 21, ...), the digests of its text and JSON reports.  The
benchmark compares against them only when it runs; this test does the same
comparison in the test suite, so a change that moves a report byte fails
here.  It covers the reference seeds 0 and 7 and the next pass, 14 and 21:
the verify scene draws its suites from the command's generator, so two seeds
see too little of that stream.  Each report is digested as the benchmark
worker does it: `SceneReplay.check`, then `digest`.

It also replays the first ops of both products corpora at seed 0 through
`Products.execute` and `check`, and digests each result, or the refusal's
error text, as the worker does.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import orbint
from orbint.cli import render_json, render_text, run
from orbint.errors import OrbintError
from orbint.scene import parse_scene

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

_spec = importlib.util.spec_from_file_location("bench_workloads",
                                               BENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

RECORDED = json.loads((BENCH / "digests.json").read_text())
REPLAY = workloads.WORKLOADS["scene-replay"]
DIGESTS = RECORDED["scene-replay"]
PRODUCT_OPS = {"products-q": 40, "products-zeta3": 12}


@pytest.mark.parametrize("seed", (0, 7, 14, 21))
@pytest.mark.parametrize("scene", REPLAY.scenes)
def test_scene_report_matches_recorded_digest(scene, seed):
    text = (ROOT / "scenes" / f"{scene}.scene").read_text(encoding="utf-8")
    report, code = run(parse_scene(text), seed=seed)
    op = {"scene": scene, "seed": seed}
    canonical, problems = REPLAY.check(
        None, op, (render_text(report), render_json(report), code))
    assert problems == []
    assert workloads.digest(canonical) == DIGESTS[REPLAY.digest_key(op, None, seed)]


@pytest.mark.parametrize("name", sorted(PRODUCT_OPS))
def test_first_product_ops_match_recorded_digests(name):
    wl = workloads.WORKLOADS[name]
    ctx = wl.setup(orbint)
    for index, op in enumerate(wl.corpus(0, orbint, PRODUCT_OPS[name])):
        try:
            result = wl.execute(ctx, op, index, 0)
        except OrbintError as exc:
            canonical, problems = f"{type(exc).__name__}: {exc}", []
        else:
            canonical, problems = wl.check(ctx, op, result)
        key = wl.digest_key(op, index, 0)
        assert problems == [], key
        assert workloads.digest(canonical) == RECORDED[name][key], key
