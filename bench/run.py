"""End-to-end and per-layer benchmark for orbint.

    python3 bench/run.py --workload products-q --seed 0 --seconds 25 --trace 0

Workloads: products-q, products-zeta3, forms-trace, scene-replay (see
`workloads.py` for what each op does and why each workload exists).

`--trace 0` spawns set-up-only workers, then one worker that runs the
workload's ops in a closed loop with one caller for `--seconds` seconds of op
time, and prints the end-to-end metrics.  `--trace 1` runs a fixed op list
three times in fresh workers: untraced, traced, and traced under cProfile.
It prints the per-layer metrics, the tracing overhead, and fails the run if
the effort counts of the two traced workers differ (determinism gate) or a
wrapped function's traced call count differs from cProfile's (coverage
self-test).  Every op's result is checked exactly; at the reference seeds 0
and 7 its digest is also compared with `digests.json`.

`--record-digests` re-records `digests.json` for one workload: the ops that
RECORD_SECONDS of op time reach at each reference seed, a few times what a
timed run reaches.  Ops beyond them get the exact checks only.  Re-record
only when a report is meant to change.

The last line of standard output is the JSON result; the line before it is a
JSON object with the environment, op outcomes and check details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SETUP_SAMPLES = 5          # set-up-only workers plus the measuring worker
CHILD_TIMEOUT_S = 170
RECORD_SECONDS = 60        # op time digested per reference seed

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mb": "MB"}

_SPAN = ("calls", "count"), ("self_s", "s")
PER_LAYER = {
    **{f"poly.buchberger.{k}": u for k, u in _SPAN},
    "poly.buchberger.distinct_ratio": "ratio",
    **{f"poly.normal_form_list.{k}": u for k, u in _SPAN},
    **{f"poly.mp_factor.{k}": u for k, u in _SPAN},
    "arith.CycElem.mul.calls": "count",
    "arith.CycElem.inverse.calls": "count",
    **{f"arith.factor_univariate.{k}": u for k, u in _SPAN},
    "arith.factor_univariate.degree_max": "count",
    "arith.factor_univariate.degree_sum": "count",
    "arith.char_poly.calls": "count",
    **{f"arith.solve_linear.{k}": u for k, u in _SPAN},
    "arith.solve_linear.rows_sum": "count",
    **{f"cycle.split_clusters.{k}": u for k, u in _SPAN},
    "cycle.split_clusters.attempts": "count",
    "cycle.split_clusters.first_try_ratio": "ratio",
    **{f"cycle.OrbitClass.of.{k}": u for k, u in _SPAN},
    "cycle.OrbitClass.of.hit_ratio": "ratio",
    **{f"group.act_ideal.{k}": u for k, u in _SPAN},
    **{f"group.inertia_group.{k}": u for k, u in _SPAN},
    "cycle.intersect_model.self_s": "s",
    "cycle.is_proper.self_s": "s",
    "cycle.pushforward_along_map.self_s": "s",
    "cycle.pullback_along_map.self_s": "s",
    "cycle.specialize.self_s": "s",
    "cycle.intersect_model.noncm_warnings": "count",
    "forms.trace_form.self_s": "s",
    "forms.q_pullback.self_s": "s",
    "quotient.catalog_model.total_s": "s",
    "scene.parse_scene.total_s": "s",
    "cli.run.self_s": "s",
    "cli.render.total_s": "s",
    "trace.overhead_ratio": "ratio",
    "run.fail_ratio": "ratio",
    "run.wrong_results": "count",
}


class BenchError(Exception):
    """The benchmark could not run (missing sources, a worker died)."""


def spawn(cfg: dict, corpus: list | None = None) -> dict:
    """Run one worker to completion and return its result object."""
    cfg = dict(cfg, t_spawn=time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(cfg)],
        input=json.dumps(corpus) if corpus is not None else "",
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {cfg['mode']} exited with {proc.returncode}")
    return json.loads(lines[-1])


def percentile(ordered: list[float], p: int) -> tuple[float, int]:
    """Nearest-rank percentile of sorted samples and the count beyond it."""
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def wrong_ops(workload: str, results: list[dict]) -> tuple[dict, int]:
    """Ops whose exact checks failed or whose digest differs from the stored
    reference, as {op index: [messages]}, plus the number of digests checked."""
    reference = json.loads(DIGESTS.read_text()).get(workload, {}) \
        if DIGESTS.exists() else {}
    wrong: dict[int, list[str]] = {}
    checked = 0
    for res in results:
        for index, message in res["wrong"]:
            wrong.setdefault(index, []).append(message)
        for key, value, index in res["digests"]:
            if key in reference:
                checked += 1
                if reference[key] != value:
                    wrong.setdefault(index, []).append(f"digest mismatch at {key}")
    return wrong, checked


def environment() -> dict:
    """Python version, cores, commit and engine size, printed beside the
    timings.  A checkout without git history is identified by a hash of the
    engine sources instead of a commit."""
    files = sorted((SRC / "orbint").glob("*.py"))
    texts = [f.read_text(encoding="utf-8") for f in files]
    lines = sum(len(t.splitlines()) for t in texts)
    env = {"python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0)), "src_orbint_lines": lines}
    if (ROOT / ".git").exists():
        try:
            env["commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    if "commit" not in env:
        env["src_orbint_sha256"] = \
            hashlib.sha256("".join(texts).encode()).hexdigest()[:16]
    return env


def op_summary(wl, res: dict, results: list[dict]) -> dict:
    """Outcome counts; fail_ratio counts documented OrbintError refusals."""
    attempted = len(res["latencies"])
    refused = sum(c for k, c in res["outcomes"].items()
                  if k not in ("ok", "unexpected"))
    wrong, checked = wrong_ops(wl.name, results)
    return {"attempted": attempted, "outcomes": res["outcomes"],
            "fail_ratio": refused / attempted, "wrong_results": len(wrong),
            "wrong": [m for msgs in wrong.values() for m in msgs][:20],
            "digests_checked": checked}


def timed_run(wl, args, corpus) -> tuple[dict, dict, list[str]]:
    """End-to-end metrics; returns (metrics, info, problems)."""
    base = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds}
    setups = [spawn(dict(base, mode="setup"))["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    res = spawn(dict(base, mode="run"), corpus)
    setups.append(res["setup_s"])
    lat = sorted(res["latencies"])
    tail_s, beyond = percentile(lat, wl.tail_percentile)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / res["busy_s"],
        "op_p50_ms": percentile(lat, 50)[0] * 1000,
        "op_tail_ms": tail_s * 1000,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    summary = op_summary(wl, res, [res])
    info = {**summary, "setup_samples_s": setups, "busy_s": res["busy_s"],
            "tail_percentile": wl.tail_percentile, "tail_samples": len(lat),
            "tail_samples_beyond": beyond, "corpus_exhausted": res["exhausted"],
            "peak_rss_ops": res["peak_rss_ops"]}
    return metrics, info, summary["wrong"]


def trace_run(wl, args, ops) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics over the first `trace_ops` ops, with the
    determinism gate and the wrapper coverage self-test."""
    base = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "mode": "run", "nops": len(ops)}
    plain = spawn(base, ops)
    traced = spawn(dict(base, trace=True), ops)
    profiled = spawn(dict(base, trace=True, profile=True), ops)
    summary = op_summary(wl, traced, [plain, traced, profiled])
    problems = list(summary["wrong"])
    if traced["effort"] != profiled["effort"]:
        problems.append(f"effort counts differ between two traced runs: "
                        f"{traced['effort']} vs {profiled['effort']}")
    problems += [f"wrapper coverage: {m}" for m in profiled["coverage_mismatches"]]
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = traced["busy_s"] / plain["busy_s"]
    layers["run.fail_ratio"] = summary["fail_ratio"]
    layers["run.wrong_results"] = summary["wrong_results"]
    metrics = {name: layers.get(name, 0) for name in PER_LAYER}
    info = {**summary, "trace_ops": len(ops), "effort": traced["effort"],
            "untraced_busy_s": plain["busy_s"], "traced_busy_s": traced["busy_s"],
            "coverage_checked": len(traced["call_counts"]),
            "call_counts_equal": traced["call_counts"] == profiled["call_counts"]}
    info["gate_problems"] = problems[len(summary["wrong"]):]
    return metrics, info, problems


def record_digests(wl, orbint) -> None:
    from workloads import REFERENCE_SEEDS
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table = {}
    for seed in REFERENCE_SEEDS:
        res = spawn({"workload": wl.name, "seed": seed, "mode": "run",
                     "seconds": RECORD_SECONDS},
                    wl.corpus(seed, orbint, wl.corpus_size))
        if res["wrong"]:
            raise BenchError("refusing to record digests of wrong results: "
                             + "; ".join(m for _, m in res["wrong"][:5]))
        table.update({key: value for key, value, _ in res["digests"]})
    stored[wl.name] = table
    DIGESTS.write_text(json.dumps(stored, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(table)} digests for {wl.name}")


def _import_engine():
    if not (SRC / "orbint" / "__init__.py").is_file():
        raise BenchError(f"engine sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import orbint
    if Path(orbint.__file__).resolve().parent != (SRC / "orbint").resolve():
        raise BenchError(f"imported orbint from {orbint.__file__}, not {SRC}")
    return orbint


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    try:
        orbint = _import_engine()
        from workloads import WORKLOADS
        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {sorted(WORKLOADS)}")
        wl = WORKLOADS[args.workload]
        if args.record_digests:
            record_digests(wl, orbint)
            return 0
        corpus = wl.corpus(args.seed, orbint,
                           wl.trace_ops if args.trace else wl.corpus_size)
        runner = trace_run if args.trace else timed_run
        metrics, info, problems = runner(wl, args, corpus)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    units = PER_LAYER if args.trace else END_TO_END
    info.update(environment(), workload=wl.name, seed=args.seed,
                trace=args.trace)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": info["attempted"],
        "failed": info["wrong_results"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
