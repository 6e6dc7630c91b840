"""Scene parsing, command execution, report determinism, error taxonomy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from orbint.cli import main, render_json, render_text, run
from orbint.errors import ChartError, ParseError, SceneError, SceneNameError
from orbint.scene import parse_scene

SCENES = Path(__file__).resolve().parent.parent / "scenes"

PAPER_SCENE = """
field rationals
model M = catalog A1
cycle X on M = 1 * orbit(u)
cycle Y on M = 1 * orbit(v)
run intersect X Y
"""


def test_parse_minimal_scene():
    scene = parse_scene(PAPER_SCENE)
    assert set(scene.models) == {"M"}
    assert set(scene.cycles) == {"X", "Y"}
    assert len(scene.commands) == 1


def test_paper_scene_result():
    scene = parse_scene(PAPER_SCENE)
    report, code = run(scene, seed=0)
    assert code == 0
    entry = report["entries"][0]
    assert entry["status"] == "ok"
    assert "1/2" in entry["result"]


def test_duplicate_name_rejected():
    text = PAPER_SCENE + "cycle X on M = 1 * orbit(u - 1)\n"
    with pytest.raises(SceneNameError) as err:
        parse_scene(text)
    assert "X" in str(err.value)


def test_undeclared_variable_rejected():
    text = """
field rationals
model M = catalog A1
cycle X on M = 1 * orbit(w)
"""
    with pytest.raises(ChartError):
        parse_scene(text)


def test_undefined_model_rejected():
    with pytest.raises(SceneNameError):
        parse_scene("cycle X on M = 1 * orbit(u)\n")


def test_unknown_command_rejected():
    with pytest.raises(ParseError):
        parse_scene(PAPER_SCENE + "run frobnicate X\n")


def test_global_verify_suites_accept_and_ignore_count():
    for line in ("run verify eq8", "run verify eq8 5"):
        command = parse_scene(f"field rationals\n{line}\n").commands[0]
        assert command.args == {"suite": "eq8", "model": None}
    for line in ("run verify eq8 five", "run verify eq8 5 6",
                 "run verify eq8 ²"):
        with pytest.raises(ParseError, match="usage: run verify eq8"):
            parse_scene(f"field rationals\n{line}\n")


@pytest.mark.parametrize("count", ["ten", "-3", "2.5"])
def test_per_model_verify_count_must_be_a_count(tmp_path, capsys, count):
    assert parse_scene(PAPER_SCENE + "run verify pushpull M 3\n") \
        .commands[-1].args["count"] == 3
    path = tmp_path / "count.scene"
    path.write_text(PAPER_SCENE + f"run verify pushpull M {count}\n")
    assert main([str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: run verify pushpull MODEL [COUNT]" in captured.err


def test_field_mismatch_rejected():
    with pytest.raises(ChartError):
        parse_scene("field rationals\nmodel M = catalog A2\n")


def test_exit_one_on_deliberate_non_proper_pair():
    text = """
field rationals
model M = catalog A1
cycle X on M = 1 * orbit(u)
run proper X X
"""
    report, code = run(parse_scene(text), seed=0)
    assert code == 1
    entry = report["entries"][0]
    assert entry["status"] == "fail"
    assert "NotProper" in entry["result"]


def test_exit_two_on_engine_error():
    text = """
field rationals
model M = catalog A1
cycle X on M = 1 * orbit(u)
run intersect X X
"""
    report, code = run(parse_scene(text), seed=0)
    assert code == 2
    entry = report["entries"][0]
    assert entry["status"] == "error"    # NotProper surfaced, no crash
    assert "NotProper" in entry["error"]


def test_empty_command_list():
    scene = parse_scene("field rationals\nmodel M = catalog A1\n")
    report, code = run(scene, seed=0)
    assert code == 0
    assert report["entries"] == []


def test_chained_results_via_into():
    text = """
field rationals
model T = catalog trivial-3
cycle X on T = 1 * orbit(t1)
cycle Y on T = 1 * orbit(t2)
cycle Z on T = 1 * orbit(t3)
run intersect X Y into XY
run intersect XY Z
"""
    scene = parse_scene(text)
    report, code = run(scene, seed=0)
    assert code == 0
    assert all(e["status"] == "ok" for e in report["entries"])


def test_byte_identical_reports():
    scene_text = PAPER_SCENE + "run pullback X\nrun verify pushpull M 10\n"
    outs = []
    for _ in range(2):
        scene = parse_scene(scene_text)
        report, _ = run(scene, seed=11)
        outs.append(render_json(report))
        outs.append(render_text(report))
    assert outs[0] == outs[2]
    assert outs[1] == outs[3]


def test_seed_changes_are_isolated():
    scene_text = PAPER_SCENE
    r1, _ = run(parse_scene(scene_text), seed=1)
    r2, _ = run(parse_scene(scene_text), seed=2)
    # the intersection value itself is deterministic mathematics
    assert r1["entries"][0]["result"] == r2["entries"][0]["result"]


def test_json_rendering_sorted():
    scene = parse_scene(PAPER_SCENE)
    report, _ = run(scene, seed=0)
    blob = render_json(report)
    parsed = json.loads(blob)
    assert parsed["seed"] == 0
    assert list(parsed.keys()) == sorted(parsed.keys())


def test_cyclotomic_scene():
    text = """
field cyclotomic(3)
model M = catalog A2
cycle X on M = 1 * orbit(u)
cycle Y on M = 1 * orbit(v)
run intersect X Y
"""
    report, code = run(parse_scene(text), seed=0)
    assert code == 0
    assert "1/3" in report["entries"][0]["result"]


def test_custom_quotient_model():
    text = """
field rationals
model M = quotient generators [[-1, 0], [0, -1]] invariants u^2, v^2, u*v upstairs u, v downstairs x, y, z
cycle X on M = 1 * orbit(u)
cycle Y on M = 1 * orbit(v)
run intersect X Y
"""
    report, code = run(parse_scene(text), seed=0)
    assert code == 0
    assert "1/2" in report["entries"][0]["result"]


def test_lift_cycle():
    text = """
field rationals
model M = catalog A1
cycle L on M = lift(x)
run show L
"""
    scene = parse_scene(text)
    # the downstairs divisor x lifts to the reduced line u = 0
    _, cycle = scene.cycles["L"]
    assert len(cycle.components) == 1
    # a codimension-2 lift in solved-graph form is taken as it is
    text = """
field rationals
model T = catalog trivial-3
cycle L on T = lift(w1, w2 - w3)
"""
    _, cycle = parse_scene(text).cycles["L"]
    assert repr(cycle) == "1 * [t2 - t3, t1]"
    # the twisted cubic is none of the three shapes
    text = """
field rationals
model T = catalog trivial-3
cycle L on T = lift(w2 - w1^2, w3 - w1^3)
"""
    with pytest.raises(ChartError) as err:
        parse_scene(text)
    assert str(err.value) == (
        "lift supports downstairs ideals that lift to a hypersurface, a "
        "zero-dimensional ideal or a solved-graph prime (line 4)")


def test_family_declarations_and_conserve():
    text = """
field rationals
model M = catalog A1
cycle X on M = 1 * orbit(u)
family F on M param s window -5 5 = 1 * orbit(v - s)
run specialize F at 0
run conserve X F at 0 1 2
"""
    report, code = run(parse_scene(text), seed=0)
    assert code == 0
    assert "2 *" in report["entries"][0]["result"]
    assert "conserved=True" in report["entries"][1]["result"]


def test_map_declaration_and_fproduct():
    text = """
field rationals
model T2 = catalog trivial-2
model T1 = catalog trivial-1
cycle P on T2 = 1 * orbit(t2 - t1^2)
cycle Q on T1 = 1 * orbit(t1 - 3)
map f : T2 -> T1 = (t1)
run fproduct f P Q
run push_map f P
"""
    report, code = run(parse_scene(text), seed=0)
    assert code == 0
    assert all(e["status"] == "ok" for e in report["entries"])


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet="abcdefruncyl modet=*+()[]1234567890_ \n#", max_size=200))
def test_fuzzed_scenes_never_crash(text):
    try:
        scene = parse_scene(text)
    except SceneError:
        return
    try:
        run(scene, seed=0)
    except SceneError:
        pass


def test_trace_with_custom_denominators():
    # z is outside the default invariant-denominator set; 'using z' admits a
    # representative over z for the trace of the invariant volume form
    text = """
field rationals
model M = catalog A1
run trace M d(u, v) using z
run trace M (1/(u*v)) * d(u, v) using x*y
"""
    report, code = run(parse_scene(text), seed=0)
    assert code == 0
    assert all(e["status"] == "ok" for e in report["entries"])


def test_lift_free_orbit_is_reduced():
    # 1 - y lifts upstairs to the free orbit {v=1} u {v=-1}: one downstairs
    # class with coefficient exactly 1
    text = """
field rationals
model M = catalog A1
cycle L on M = lift(1 - y)
run show L
"""
    scene = parse_scene(text)
    _, cycle = scene.cycles["L"]
    assert len(cycle.components) == 1
    assert cycle.components[0][1] == 1


def test_main_reports_parse_time_engine_error(capsys):
    # the budget from the flags is already in force while the scene's
    # models and cycles are built; an engine error there is a scene error
    code = main([str(SCENES / "cone.scene"), "--max-pairs", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("scene error: EffortExceeded: critical pair "
                            "budget 4 exceeded\n")


def test_main_echoes_flag_budget(capsys):
    code = main([str(SCENES / "cone.scene"), "--max-pairs", "20"])
    out = capsys.readouterr().out
    assert code == 0
    assert "max_pairs=20" in out.splitlines()[1]


def _python(*args):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def test_python_dash_m_orbint(capsys):
    assert main([str(SCENES / "cone.scene")]) == 0
    expected = capsys.readouterr().out
    proc = _python("-m", "orbint", str(SCENES / "cone.scene"))
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == expected


def test_python_dash_m_orbint_cli_is_quiet(capsys):
    assert main([str(SCENES / "cone.scene")]) == 0
    expected = capsys.readouterr().out
    proc = _python("-m", "orbint.cli", str(SCENES / "cone.scene"))
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == expected


def test_package_resolves_cli_lazily():
    proc = _python("-c", "import orbint, sys\n"
                   "assert 'orbint.cli' not in sys.modules\n"
                   "from orbint import run\n"
                   "assert orbint.cli.run is run is orbint.run\n"
                   "assert orbint.verify.random_prime and orbint.forms\n"
                   "assert 'run' in orbint.__all__\n"
                   "print('ok')")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
