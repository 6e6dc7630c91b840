"""Command dispatcher and report emitter.

`run(scene, seed, budget)` executes the scene's commands in order, each under
the one budget echoed in the header, and builds a report that is
byte-identical for identical (scene, seed, budgets): a `verify` suite that
draws instances draws them from a generator seeded by (seed, command index),
every other randomized choice is seeded from its own input, all printing goes
through canonical representations, and the structured rendering is JSON with
sorted keys.

Exit codes: 0 when every command succeeded and all verifications passed,
1 when a verification failed, 2 when any command hit an engine error.
Engine errors are surfaced into the report; the process never crashes on a
scene input.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import warnings

from . import budgets
from .budgets import DEFAULT, Budget
from .cycle import (conservation_check, f_product, intersect_model, is_proper,
                    principal_divisor, pullback, pullback_along_map,
                    pushforward_along_map, specialize)
from .errors import OrbintError, SceneError
from .forms import q_pullback, trace_form, verify_direct_factor
from .scene import Command, Scene, parse_scene
from .verify import GLOBAL_SUITES, SUITES

_STATUS_CODE = {"ok": 0, "fail": 1, "error": 2}


def run(scene: Scene, seed: int = 0,
        budget: Budget | None = None) -> tuple[dict, int]:
    """Execute a scene; returns (report, exit_code).  Every command runs
    under `budget`, by default the installed one."""
    budget = budget or budgets.current()
    values = {name: cyc for name, (_, cyc) in scene.cycles.items()
              if cyc is not None}
    entries = []
    worst = 0
    for idx, cmd in enumerate(scene.commands):
        rng = random.Random(f"{seed}:{idx}")
        entry = {"line": cmd.line, "command": cmd.raw or cmd.verb}
        with (budgets.using(budget),
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("always")
            try:
                status, result = _execute(scene, values, cmd, rng)
            except OrbintError as exc:
                status, result = "error", f"{type(exc).__name__}: {exc}"
            except Exception as exc:  # never crash on a scene input
                status, result = "error", f"{type(exc).__name__}: {exc}"
        entry["status"] = status
        key = "error" if status == "error" else "result"
        entry[key] = result
        entry["warnings"] = sorted({f"{type(w.message).__name__}: {w.message}"
                                    for w in caught})
        entries.append(entry)
        worst = max(worst, _STATUS_CODE[status])
    report = {
        "seed": seed,
        "budgets": {
            "max_pairs": budget.max_pairs,
            "max_terms": budget.max_terms,
            "degree_bound": budget.degree_bound,
            "ansatz_degree": budget.ansatz_degree,
        },
        "entries": entries,
    }
    return report, worst


def _cycle_value(values, name):
    cyc = values.get(name)
    if cyc is None:
        raise OrbintError(f"cycle {name!r} has not been computed yet")
    return cyc


def _store(values, into, cycle):
    if into is not None:
        values[into] = cycle


def _execute(scene: Scene, values, cmd: Command, rng):
    verb, a = cmd.verb, cmd.args
    if verb == "show":
        return "ok", repr(_cycle_value(values, a["x"]))
    if verb == "intersect":
        x = _cycle_value(values, a["x"])
        y = _cycle_value(values, a["y"])
        out = intersect_model(x.model, x, y)
        _store(values, a["into"], out)
        return "ok", repr(out)
    if verb == "pullback":
        x = _cycle_value(values, a["x"])
        return "ok", repr(pullback(x.model, x))
    if verb == "proper":
        x = _cycle_value(values, a["x"])
        y = _cycle_value(values, a["y"])
        rep = is_proper(x.model, x, y)
        if rep.proper:
            return "ok", f"proper; codims ({rep.codim_x}, {rep.codim_y})"
        return "fail", (f"NotProper counterexample: {a['x']} and {a['y']} "
                        f"({rep.reason}); codims ({rep.codim_x}, {rep.codim_y})")
    if verb == "pullback_map":
        fmap = scene.maps[a["map"]]
        out = pullback_along_map(fmap, _cycle_value(values, a["x"]))
        _store(values, a["into"], out)
        return "ok", repr(out)
    if verb == "push_map":
        fmap = scene.maps[a["map"]]
        out = pushforward_along_map(fmap, _cycle_value(values, a["x"]))
        _store(values, a["into"], out)
        return "ok", repr(out)
    if verb == "fproduct":
        fmap = scene.maps[a["map"]]
        out = f_product(fmap, _cycle_value(values, a["x"]),
                        _cycle_value(values, a["y"]))
        _store(values, a["into"], out)
        return "ok", repr(out)
    if verb == "specialize":
        fam = scene.families[a["family"]]
        out = specialize(fam, a["value"])
        _store(values, a["into"], out)
        return "ok", repr(out)
    if verb == "conserve":
        fx = scene.families.get(a["x"]) or _cycle_value(values, a["x"])
        fy = scene.families.get(a["y"]) or _cycle_value(values, a["y"])
        rep = conservation_check(fx, fy, a["samples"])
        body = ", ".join("none" if t is None else str(t) for t in rep.totals)
        status = "ok" if rep.conserved else "fail"
        return status, f"totals [{body}] conserved={rep.conserved}"
    if verb == "trace":
        model = scene.models[a["model"]]
        out = trace_form(model, a["form"], denominators=a.get("denominators"))
        return "ok", repr(out)
    if verb == "qpull":
        model = scene.models[a["model"]]
        return "ok", repr(q_pullback(model, a["form"]))
    if verb == "direct_factor":
        model = scene.models[a["model"]]
        rows = verify_direct_factor(model, a["forms"])
        lines = [f"{form!r}: {'pass' if ok else 'FAIL'}" for form, ok in rows]
        status = "ok" if all(ok for _, ok in rows) else "fail"
        return status, "; ".join(lines)
    if verb == "divisor":
        model = scene.models[a["model"]]
        out = principal_divisor(model, a["poly"])
        _store(values, a["into"], out)
        return "ok", repr(out)
    if verb == "verify":
        suite = a["suite"]
        if suite in SUITES:
            model = scene.models[a["model"]]
            result = SUITES[suite](model, a["count"], rng)
        else:
            result = GLOBAL_SUITES[suite]()
        return ("ok" if result.passed else "fail"), result.line()
    raise OrbintError(f"unhandled command {verb!r}")  # pragma: no cover


def render_text(report: dict) -> str:
    lines = [f"seed: {report['seed']}",
             "budgets: " + " ".join(f"{k}={v}" for k, v in
                                    sorted(report["budgets"].items()))]
    for e in report["entries"]:
        body = e.get("result", e.get("error", ""))
        lines.append(f"[line {e['line']}] {e['command']}")
        lines.append(f"  {e['status']}: {body}")
        for w in e["warnings"]:
            lines.append(f"  warning: {w}")
    return "\n".join(lines) + "\n"


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="orbint",
        description="Exact intersection theory on finite quotient models.")
    parser.add_argument("scene", help="scene file to execute")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the instances that per-model verify "
                             "suites draw (default 0)")
    parser.add_argument("--max-pairs", type=int, default=DEFAULT.max_pairs)
    parser.add_argument("--max-terms", type=int, default=DEFAULT.max_terms)
    parser.add_argument("--degree-bound", type=int, default=DEFAULT.degree_bound)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    opts = parser.parse_args(argv)
    budget = Budget(max_pairs=opts.max_pairs, max_terms=opts.max_terms,
                    degree_bound=opts.degree_bound)
    try:
        with open(opts.scene, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with budgets.using(budget):
        try:
            scene = parse_scene(text)
        except SceneError as exc:
            print(f"scene error: {exc}", file=sys.stderr)
            return 2
        except OrbintError as exc:
            print(f"scene error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
    report, code = run(scene, seed=opts.seed, budget=budget)
    out = render_json(report) if opts.format == "json" else render_text(report)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
