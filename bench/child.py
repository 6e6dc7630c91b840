"""Worker process: one workload, one caller, closed loop.

Started by `run.py` with a JSON configuration as its only argument:

* `mode` "setup" imports the engine, builds the workload's models and prints
  the set-up time (process spawn to ready, on the system-wide monotonic
  clock that `run.py` read just before spawning);
* `mode` "run" does the same set-up, then reads the corpus from standard
  input and runs ops until `seconds` of op time are spent (rounded up to a
  whole pass of the workload) or the corpus is used up, or exactly `nops`
  ops when that is given.  No op runs twice.
  With `trace` the tracer wraps the engine before set-up; with `profile`
  cProfile runs over the same region, for the wrapper coverage self-test.

The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

WALL_LIMIT_S = 100.0   # a timed run starts no op after this much wall time


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    cfg = json.loads(sys.argv[1])
    import orbint
    from orbint.errors import OrbintError
    from workloads import WORKLOADS, digest

    wl = WORKLOADS[cfg["workload"]]
    tracer = profile = None
    if cfg.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        if cfg.get("profile"):
            import cProfile
            profile = cProfile.Profile()
            profile.enable()
    ctx = wl.setup(orbint)
    setup_s = time.monotonic() - cfg["t_spawn"]
    if cfg["mode"] == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    corpus = json.load(sys.stdin)
    warnings.simplefilter("ignore")
    seed, seconds, nops = cfg["seed"], cfg["seconds"], cfg.get("nops")
    latencies, digests, outcomes, wrong = [], [], {}, []
    peak_rss = None
    busy = 0.0
    wall_start = time.monotonic()
    clock = time.perf_counter
    i = 0
    while True:
        if nops is not None:
            if i >= nops:
                break
        elif ((busy >= seconds and i % wl.pass_length == 0) or i >= len(corpus)
              or time.monotonic() - wall_start > WALL_LIMIT_S):
            break
        op = corpus[i]
        key = wl.digest_key(op, i, seed)
        start = clock()
        try:
            result = wl.execute(ctx, op, i, seed)
        except OrbintError as exc:
            elapsed = clock() - start
            outcome = type(exc).__name__
            canonical, problems = f"{outcome}: {exc}", []
        except Exception as exc:   # counted as a wrong result, never swallowed
            elapsed = clock() - start
            outcome = "unexpected"
            canonical, problems = None, [f"{type(exc).__name__}: {exc}"]
            traceback.print_exc(file=sys.stderr)
        else:
            elapsed = clock() - start
            outcome = "ok"
            canonical, problems = wl.check(ctx, op, result)
        busy += elapsed
        latencies.append(elapsed)
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        if canonical is not None:
            digests.append([key, digest(canonical), i])
        if problems:
            wrong.append([i, f"op {i} ({key}): " + "; ".join(problems)])
        i += 1
        if i == wl.memory_ops:
            peak_rss = peak_rss_mb()
    if profile is not None:
        profile.disable()

    out = {"setup_s": setup_s, "busy_s": busy, "latencies": latencies,
           "outcomes": outcomes, "wrong": wrong, "digests": digests,
           "exhausted": i >= len(corpus),
           "peak_rss_mb": peak_rss or peak_rss_mb(),
           "peak_rss_ops": min(i, wl.memory_ops)}
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["effort"] = tracer.effort_counts()
        out["call_counts"] = tracer.call_counts()
        if profile is not None:
            out["coverage_mismatches"] = tracer.coverage_mismatches(profile)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
