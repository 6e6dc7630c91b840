"""One budget per command: installation, scope and reach of the budget."""

import ast
import dataclasses
from pathlib import Path

import pytest

import orbint
from orbint import Budget, DEFAULT, using
from orbint.arith import QQ
from orbint.budgets import current
from orbint.cli import run
from orbint.cycle import split_clusters
from orbint.errors import EffortExceeded, SeparationFailure
from orbint.poly import Ideal, MultiPoly
from orbint.quotient import LocalModel
from orbint.scene import parse_scene

SCENES = Path(__file__).resolve().parent.parent / "scenes"
XYZ = ("x", "y", "z")

# The kernels that also take an explicit budget for a single call, and the
# command runner that installs one.
BUDGET_PARAMETERS = {"arith.factor_univariate", "cli.run",
                     "forms.trace_form", "group.enumerate_group",
                     "poly.buchberger", "poly.normal_form_list"}


def _hard_ideal():
    x, y, z = (MultiPoly.var(QQ, XYZ, v) for v in XYZ)
    return Ideal(QQ, XYZ, [x ** 3 - y * z, y ** 3 - x * z, z ** 3 - x * y,
                           x * y * z - 1])


def test_using_restores_previous_budget_after_exception():
    outer, tiny = Budget(max_pairs=7), Budget(max_pairs=1)
    assert current() is DEFAULT
    with using(outer):
        with pytest.raises(EffortExceeded):
            with using(tiny):
                assert current() is tiny
                _hard_ideal().groebner()
        assert current() is outer
    assert current() is DEFAULT


def test_installed_budget_reaches_ideals_built_before():
    ideal = _hard_ideal()
    with using(Budget(max_pairs=1)):
        with pytest.raises(EffortExceeded):
            ideal.groebner()
    assert ideal.groebner()          # the default budget suffices


def test_basis_from_a_larger_budget_is_not_reused_under_a_smaller():
    ideal = _hard_ideal()
    assert ideal.groebner()          # computed under DEFAULT
    with using(Budget(max_pairs=1)):
        with pytest.raises(EffortExceeded):
            ideal.groebner()
        with pytest.raises(EffortExceeded):
            _hard_ideal().groebner()


def test_separation_retries_come_from_the_installed_budget():
    x, y, z = (MultiPoly.var(QQ, XYZ, v) for v in XYZ)
    points = Ideal(QQ, XYZ, [x * x - 2, y - 1, z])
    with using(Budget(separation_retries=0)):
        with pytest.raises(SeparationFailure, match="within 0 retries"):
            split_clusters(points)
    assert split_clusters(points)


def test_run_budget_governs_every_command():
    scene = parse_scene((SCENES / "cone.scene").read_text())
    report, code = run(scene, budget=Budget(max_pairs=3))
    assert report["budgets"]["max_pairs"] == 3
    errors = [e["error"] for e in report["entries"] if e["status"] == "error"]
    assert any(err.startswith("EffortExceeded: ") for err in errors)
    assert code == 2


def test_run_echoes_the_installed_budget():
    scene = parse_scene((SCENES / "cone.scene").read_text())
    with using(Budget(max_pairs=20)):
        report, _ = run(scene)
    assert report["budgets"]["max_pairs"] == 20


def _functions_with_budget_parameter():
    found = set()
    for path in sorted(Path(orbint.__file__).parent.glob("*.py")):
        if path.stem == "budgets":     # `using(budget)` is the installer
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args
                names = {a.arg for a in
                         args.posonlyargs + args.args + args.kwonlyargs}
                if "budget" in names:
                    name = getattr(node, "name", "<lambda>")
                    found.add(f"{path.stem}.{name}")
    return found


def test_only_kernels_and_run_take_a_budget():
    assert _functions_with_budget_parameter() == BUDGET_PARAMETERS


def test_ideals_and_models_carry_no_budget():
    assert not hasattr(Ideal(QQ, XYZ, []), "budget")
    assert "budget" not in {f.name for f in dataclasses.fields(LocalModel)}
    assert not hasattr(orbint.model_a1(), "budget")
