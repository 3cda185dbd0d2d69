"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py --workload W --seed N --spawned-at T [--trace FILE]
                            [--deadline D]

``--spawned-at`` and ``--deadline`` are CLOCK_MONOTONIC readings taken by
the parent; that clock is system-wide, so setup time counts interpreter
start, ``import liecoh`` and input generation.  The host-speed probe
(probe.py) runs while the cases do; every time the pass reports leaves out
the probe's own time, and ``slowdown`` says how slow the host ran.  The pass
prints one JSON object on stdout.  With ``--trace FILE`` the liecoh layers
are wrapped by the tracer and the spans are written to FILE once, after the
pass.
"""

import argparse
import json
import resource
import signal
import sys
import time
from pathlib import Path

import cases as cs
from probe import Probe, kernel, slowdown
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CASE_LIMIT_S = 60.0
PROBE_WARMUP = 50         # kernel() runs before the pass, so probes run warm


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class CaseTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so the program cannot swallow it."""


def _alarm(signum, frame):
    raise CaseTimeout()


def import_liecoh():
    """Import liecoh from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import liecoh
    import liecoh.cli
    if not Path(liecoh.__file__).resolve().is_relative_to(src):
        raise ImportError(f"liecoh imported from {liecoh.__file__}, not {src}")
    return liecoh


def run_pass(lc, cases, reference, deadline, tracer=None, clock=time.perf_counter):
    """Run every case, timing and checking each; failures do not stop the pass.

    Wall times are read from ``clock``; a running probe's clock leaves out
    the time spent in its handler.
    """
    results = []
    signal.signal(signal.SIGALRM, _alarm)
    t_start = clock()
    for case in cases:
        limit = min(CASE_LIMIT_S, deadline - monotonic())
        rec = {"id": case.id}
        if limit <= 0:
            rec.update(status="skipped", wall_s=0.0,
                       error="run deadline reached before the case started")
            results.append(rec)
            continue
        root = tracer.begin_case(case.id) if tracer else None
        t0 = clock()
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                output = cs.run_case(lc, case)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except CaseTimeout:
            rec.update(status="timeout", error=f"exceeded {limit:.1f} s")
        except Exception as e:
            rec.update(status="error", error=f"{type(e).__name__}: {e}")
        else:
            rec["output"] = output
            why = cs.check(reference, case.id, output)
            rec.update(status="ok" if why is None else "mismatch")
            if why:
                rec["error"] = why
        rec["wall_s"] = clock() - t0
        if tracer:
            tracer.end_case(root)
        results.append(rec)
    wall = clock() - t_start
    return wall, results


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--deadline", type=float, default=float("inf"))
    ap.add_argument("--trace", default=None, help="write spans to this JSONL file")
    args = ap.parse_args(argv)

    lc = import_liecoh()
    cases = cs.make_cases(args.workload, args.seed)
    reference = cs.load_reference()
    setup_s = monotonic() - args.spawned_at

    for _ in range(PROBE_WARMUP):
        kernel()
    probe = Probe()
    tracer = None
    if args.trace:
        tracer = Tracer(clock=probe.clock).install()
    try:
        with probe:
            wall, results = run_pass(lc, cases, reference, args.deadline, tracer,
                                     probe.clock)
    finally:
        if tracer:
            tracer.remove()
    out = {"setup_s": setup_s, "wall_s": wall, "cases": results,
           "slowdown": slowdown(probe.samples), "probes": len(probe.samples),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        out["layers"] = tracer.layer_metrics()
        out["absent"] = tracer.absent
        out["broken_counters"] = sorted(tracer.broken_counters)
        with open(args.trace, "w") as fh:
            for rec in tracer.span_records():
                fh.write(json.dumps(rec) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
