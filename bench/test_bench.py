"""Tests of the benchmark itself:  python3 -m pytest -q bench/test_bench.py"""

import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import cases as cs  # noqa: E402
from probe import REF_S, Probe, slowdown  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Span, Target, Tracer, _namespaces, self_times  # noqa: E402

lc = worker.import_liecoh()

# one cheap case of every kind, from all three workloads
SMALL = ("fixture:segre-1-1", "oracle:G2:1,0:1", "adjoint:A3", "kostant:C4:w4",
         "tableau:cauchy-riemann", "sff:quadric-3", "sff:segre-1x2")


def small_cases(seed=1):
    every = [c for wl in cs.WORKLOADS for c in cs.make_cases(wl, seed)]
    return [c for c in every if c.id in SMALL]


def test_self_time_of_nested_spans():
    spans = [
        Span(0, 0.0, 10.0, -1, "a"),   # root: children cover [1,4] and [5,9]
        Span(1, 1.0, 4.0, 0, "a"),     # covers [2,3] through its own child
        Span(2, 2.0, 3.0, 1, "a"),
        Span(1, 5.0, 9.0, 0, "a"),
        Span(3, 20.0, 21.5, -1, "b"),  # leaf, separate root
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.5])


def test_overlapping_and_stray_children_are_not_subtracted_twice():
    spans = [
        Span(0, 0.0, 10.0, -1, ""),
        Span(1, 2.0, 6.0, 0, ""),
        Span(1, 4.0, 8.0, 0, ""),      # overlaps the previous child
        Span(1, 9.0, 12.0, 0, ""),     # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def _bindings():
    """(owner, attr) -> object for every liecoh module and class attribute."""
    return {(id(owner), attr): val for owner, ns in _namespaces() for attr, val in ns.items()}


def test_install_patches_every_binding_and_remove_restores_it():
    before = _bindings()
    tracer = Tracer().install()
    try:
        assert lc.cohomology.construct_rep is not before[(id(lc.cohomology), "construct_rep")]
        assert lc.repthy.construct_rep is lc.cohomology.construct_rep
        assert lc.driver.h1_report is lc.cohomology.h1_report
        assert getattr(lc.rootsys.RootSystem.weyl_dim, "_bench_traced", False)
        assert getattr(lc.construct_rep, "_bench_traced", False)
        assert tracer.absent == []
    finally:
        tracer.remove()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_missing_target_is_absent_not_an_error():
    tracer = Tracer([Target("linalg", "no_such_function"),
                     Target("rootsys", "RootSystem.no_such_method"),
                     Target("linalg", "rank")])
    with tracer:
        assert lc.linalg.rank([[1, 2], [2, 4]]) == 1
    assert tracer.absent == ["linalg.no_such_function", "rootsys.RootSystem.no_such_method"]
    m = tracer.layer_metrics()
    assert m["linalg.rank.calls"] == 1 and m["linalg.no_such_function.calls"] == 0


def test_traced_outputs_equal_untraced_outputs():
    reference = cs.load_reference()
    _, plain = worker.run_pass(lc, small_cases(), reference, float("inf"))
    tracer = Tracer()
    with tracer:
        _, traced = worker.run_pass(lc, small_cases(), reference, float("inf"), tracer)
    assert [r["status"] for r in plain] == ["ok"] * len(SMALL)
    assert [(r["id"], r["output"]) for r in traced] == [(r["id"], r["output"]) for r in plain]
    m = tracer.layer_metrics()
    assert m["cohomology.h1_report.calls"] == 4 and m["cli.main.calls"] == 1
    assert m["tableau.stabilizer_and_tableau.calls"] == 2
    roots = [s for s in tracer.spans if s.target == -1]
    assert [s.case for s in roots] == [r["id"] for r in traced]


def test_every_benchmark_metric_is_produced():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tracer = Tracer()
    with tracer:
        wall, results = worker.run_pass(lc, small_cases(), cs.load_reference(),
                                        float("inf"), tracer)
    untraced = [{"wall_s": wall, "cases": results, "peak_rss_mb": 1.0, "setup_s": 0.1,
                 "slowdown": 1.0}]
    traced = [dict(untraced[0], layers=tracer.layer_metrics())]
    run.select(run.per_layer(untraced, traced, len(results)), spec["per_layer"])
    run.select(run.end_to_end(untraced), spec["end_to_end"])


def test_seeds_change_inputs_but_not_tableau_invariants():
    def segre(seed):
        return next(c for c in cs.make_cases("cartan-tableaux", seed) if c.id == "sff:segre-1x2")
    a, b = segre(1), segre(2)
    assert a.data["f2"] != b.data["f2"]
    out_a, out_b = cs.run_case(lc, a), cs.run_case(lc, b)
    assert out_a == out_b
    assert cs.check(cs.load_reference(), a.id, out_a) is None


def test_seed_fixes_inputs_and_order():
    for wl in cs.WORKLOADS:
        assert cs.make_cases(wl, 5) == cs.make_cases(wl, 5)
        assert sorted(c.id for c in cs.make_cases(wl, 5)) == \
            sorted(c.id for c in cs.make_cases(wl, 6))


def test_a_wrong_output_is_a_mismatch():
    reference = cs.load_reference()
    good = reference["adjoint:A3"]
    assert cs.check(reference, "adjoint:A3", good) is None
    assert cs.check(reference, "adjoint:A3", dict(good, verdict="INCONCLUSIVE"))
    assert cs.check(reference, "no-such-case", good)
    oracle = reference["oracle:G2:1,0:1"]
    assert cs.check(reference, "oracle:G2:1,0:1", dict(oracle, oracle_ran=False))


def test_probe_time_is_left_out_of_the_pass_and_its_handler_restored():
    before = signal.getsignal(signal.SIGPROF)
    probe = Probe(period=0.002)
    with probe:
        spent0, t0 = probe.spent, time.perf_counter()
        wall, results = worker.run_pass(lc, small_cases(), cs.load_reference(),
                                        float("inf"), clock=probe.clock)
        elapsed, spent = time.perf_counter() - t0, probe.spent - spent0
    assert signal.getsignal(signal.SIGPROF) is before
    assert spent > 0 and wall == pytest.approx(elapsed - spent, abs=0.01)
    assert [r["status"] for r in results] == ["ok"] * len(SMALL)
    assert len(probe.samples) > 10
    assert probe.spent >= sum(probe.samples) > 0
    assert slowdown(probe.samples) == \
        pytest.approx(sum(probe.samples) / len(probe.samples) / REF_S)
    assert sum(r["wall_s"] for r in results) <= wall
