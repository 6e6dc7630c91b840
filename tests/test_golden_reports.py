"""The shipped scenes still render the reports the benchmark has on record.

`bench/digests.json` stores, for each scene at the seeds a scene-replay run
visits (0, 7, 14, 21, ...), the digests of its text and JSON reports.  The
benchmark compares against them only when it runs; this test does the same
comparison in the test suite, so a change that moves a report byte fails
here.  It covers the reference seeds 0 and 7 and the next pass, 14 and 21:
the verify scene draws its suites from the command's generator, so two seeds
see too little of that stream.  Each report is digested as the benchmark
worker does it: `SceneReplay.check`, then `digest`.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from orbint.cli import render_json, render_text, run
from orbint.scene import parse_scene

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

_spec = importlib.util.spec_from_file_location("bench_workloads",
                                               BENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

REPLAY = workloads.WORKLOADS["scene-replay"]
DIGESTS = json.loads((BENCH / "digests.json").read_text())["scene-replay"]


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
