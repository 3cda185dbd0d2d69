"""liecoh benchmark: one workload, one seed, one run of about --seconds.

    python3 bench/run.py --workload oracle-ladder --seed 1 --seconds 40 --trace 0

Every pass runs in a fresh interpreter (bench/worker.py), because a command
line user pays every cache and lazy build on each invocation.  Passes run
one after another, single-threaded, until the next one would end after
--seconds; the first always runs.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it are the
per-pass detail (per-case wall times, failures).

Times are in reference seconds: each pass's measured times divided by the
slowdown its host-speed probe saw (bench/probe.py), so that the shared
host's drift does not read as a change in the program.

--trace 0: end-to-end metrics, medians over the passes.
--trace 1: untraced and traced passes alternate; per-layer metrics from the
traced passes, and the tracing overhead: the median over pairs of adjacent
passes of traced minus untraced wall_s.
Spans of the last traced pass go to bench/out/<workload>.spans.jsonl.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from cases import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
RUN_LIMIT_S = 160.0       # no case starts after this; the run must end in 180 s
KILL_GRACE_S = 10.0


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class WorkerFailed(RuntimeError):
    pass


def spawn(workload, seed, deadline, trace_file=None):
    """Run one worker to completion; returns its JSON result."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--deadline", repr(deadline)]
    if trace_file:
        cmd += ["--trace", str(trace_file)]
    # a fixed hash seed keeps set and dict orders, and so timings, equal across passes
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned_at = monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline + KILL_GRACE_S - monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed("worker overran the run deadline and was killed")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def outputs(result):
    return {c["id"]: c.get("output") for c in result["cases"]}


def summarize(result, label):
    """One detail line per pass: wall time and per-case seconds and failures."""
    return json.dumps({
        "pass": label, "measured_wall_s": result["wall_s"],
        "measured_setup_s": result["setup_s"], "slowdown": result["slowdown"],
        "probes": result["probes"], "peak_rss_mb": result["peak_rss_mb"],
        "measured_case_s": {c["id"]: round(c["wall_s"], 4) for c in result["cases"]},
        "failures": {c["id"]: f"{c['status']}: {c.get('error', '')}"
                     for c in result["cases"] if c["status"] != "ok"},
    })


def run_passes(workload, seed, seconds, trace):
    """Passes until the next would end after `seconds`; returns (untraced, traced)."""
    start = monotonic()
    deadline = start + RUN_LIMIT_S
    untraced, traced = [], []
    while True:
        do_trace = trace and len(untraced) > len(traced)
        trace_file = None
        if do_trace:
            OUT.mkdir(exist_ok=True)
            trace_file = OUT / f"{workload}.spans.jsonl"
        t0 = monotonic()
        res = spawn(workload, seed, deadline, trace_file=trace_file)
        last = monotonic() - t0
        (traced if do_trace else untraced).append(res)
        print(summarize(res, f"{'traced' if do_trace else 'untraced'} {len(untraced) + len(traced)}"))
        if trace and not traced:
            continue
        if monotonic() - start + last > seconds:
            return untraced, traced


def reference_s(result, seconds):
    """A time measured in a pass, in reference seconds."""
    return seconds / result["slowdown"]


def end_to_end(untraced):
    med = statistics.median
    return {
        "wall_s": med(reference_s(r, r["wall_s"]) for r in untraced),
        "slowest_case_s": med(reference_s(r, max(c["wall_s"] for c in r["cases"]))
                              for r in untraced),
        "setup_s": med(reference_s(r, r["setup_s"]) for r in untraced),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in untraced),
    }


def per_layer(untraced, traced, n_cases):
    med = statistics.median
    layers = {k: med(reference_s(r, r["layers"][k]) if k.endswith("_s") else r["layers"][k]
                     for r in traced)
              for k in traced[0]["layers"]}
    reports = layers.get("cohomology.h1_report.calls", 0)
    layers["repthy.weight_multiplicities.calls_per_report"] = \
        layers.get("repthy.weight_multiplicities.calls", 0) / reports if reports else 0
    layers["tableau.prolong.calls_per_case"] = layers.get("tableau.prolong.calls", 0) / n_cases
    layers["trace.overhead_s"] = med(reference_s(t, t["wall_s"]) - reference_s(u, u["wall_s"])
                                     for u, t in zip(untraced, traced))
    return layers


def select(values, specs):
    """Exactly the metrics a BENCHMARK.json section names, with their units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "liecoh" / "__init__.py").is_file():
        print(f"error: no liecoh sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    # on SIGTERM, unwind through spawn() so the running worker is killed too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        untraced, traced = run_passes(args.workload, args.seed, args.seconds, args.trace)
    except WorkerFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    passes = untraced + traced
    cases = [c for r in passes for c in r["cases"]]
    failed = sum(c["status"] != "ok" for c in cases)
    wrong = sum(c["status"] in ("mismatch", "error") for c in cases)
    if traced:
        # tracing must not change a single checked output
        base = outputs(untraced[0])
        for r in traced:
            wrong += sum(out != base.get(cid) for cid, out in outputs(r).items())
        absent = sorted(set().union(*(r["absent"] for r in traced)))
        broken = sorted(set().union(*(r["broken_counters"] for r in traced)))
        print(json.dumps({"absent": absent, "broken_counters": broken}))
        metrics = select(per_layer(untraced, traced, len(traced[0]["cases"])),
                         spec["per_layer"])
    else:
        metrics = select(end_to_end(untraced), spec["end_to_end"])
    print(json.dumps({"correct": wrong == 0, "attempted": len(cases), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
