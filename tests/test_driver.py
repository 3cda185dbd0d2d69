import json

import pytest

from liecoh import grading, repthy, rootsys
from liecoh.driver import (ScenarioSpec, adjoint_scenario, run_scenario,
                           scenario_from_json, scenario_to_json,
                           verdict_json_text, verdict_to_json)
from liecoh.rootsys import SimpleFactor


def spec(algebra, marked, weight, p, oracle=False):
    return scenario_from_json({"algebra": algebra, "marked": sorted(marked),
                               "weight": list(weight), "p": p, "oracle": oracle})


def test_adjoint_scenario_a2():
    s = adjoint_scenario(("A", 2))
    assert sorted(s.marked) == [1, 2]
    assert s.highest_weight == (1, 1)
    assert s.p == -1


def test_adjoint_scenario_g2():
    s = adjoint_scenario(("G", 2))
    assert sorted(s.marked) == [2]
    assert s.highest_weight == (0, 1)


def test_adjoint_scenario_c2():
    s = adjoint_scenario(("C", 2))
    assert sorted(s.marked) == [1]
    assert s.highest_weight == (2, 0)


def _count_root_systems(monkeypatch):
    """The factor lists of every RootSystem constructed from now on, memo cleared."""
    built = []
    real = rootsys.RootSystem.__init__

    def counted(self, factors):
        real(self, factors)
        built.append(tuple(self.factors))

    rootsys._shared.cache_clear()
    monkeypatch.setattr(rootsys.RootSystem, "__init__", counted)
    return built


def test_adjoint_scenario_builds_its_root_system_once(monkeypatch):
    built = _count_root_systems(monkeypatch)
    s = adjoint_scenario(("G", 2))
    assert s == spec(["G2"], {2}, (0, 1), -1)
    assert run_scenario(s).verdict == "RIGID"
    assert built == [(SimpleFactor("G", 2),)]


def test_scenarios_on_one_type_share_its_root_system(monkeypatch):
    # the E7 adjoint is V(omega_1) marked {1}: its Freudenthal walk runs once
    built = _count_root_systems(monkeypatch)
    walks = []
    real = repthy.weight_multiplicities

    def counted(rs, lam):
        walks.append((str(rs), tuple(lam)))
        return real(rs, lam)

    monkeypatch.setattr(repthy, "weight_multiplicities", counted)
    w1, w7 = (1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 1)
    specs = [adjoint_scenario(("E", 7)), spec(["E7"], {7}, w7, -1), spec(["E7"], {1}, w1, -1)]
    assert specs[0] == specs[2]
    verdicts = [run_scenario(s).verdict for s in specs]
    assert verdicts[0] == verdicts[2]
    assert built == [(SimpleFactor("E", 7),)]
    assert walks.count(("E7", w1)) == 1


def test_a_scenario_builds_its_grading_element_once(monkeypatch):
    # a work count: the marking builds Z once, and every stage of the run,
    # each g-perp component's kostant_h1 among them, reads it from there
    built = []
    real = grading.GradingElementValue

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(grading, "GradingElementValue", counting)
    s = adjoint_scenario(("E", 7))
    assert len(run_scenario(s).report.gperp) > 1
    assert len(built) == 1
    # the Levi roots are listed on the marking, not kept on the root system
    assert not hasattr(s.root_system(), "_levi_roots")


def test_adjoint_scenario_rejects_a1():
    with pytest.raises(ValueError):
        adjoint_scenario(("A", 1))


# Verdicts below are the oracle-verified values of the implemented pipeline.
# The A2-adjoint run at p = -1 is the one fixture where a written acceptance
# expectation (4a, RIGID) disagrees with the actual cohomology; the result
# checked against the explicit-matrix oracle, and against the derivation in
# test_independent_h1.py, is asserted here.

def test_a2_adjoint_verdicts():
    v = run_scenario(spec(["A2"], {1, 2}, (1, 1), -1, oracle=True))
    assert v.verdict == "INCONCLUSIVE"
    assert v.report.aggregate == {-2: 2, -1: 2, 0: 2, 1: 2}
    degrees = sorted(pc.degree for _, _, pc in v.offending_pieces)
    assert degrees == [1, 1]
    comps = sorted(hw for hw, _, _ in v.offending_pieces)
    assert comps == [(0, 3), (3, 0)]
    assert v.report.oracle_ran
    v = run_scenario(spec(["A2"], {1, 2}, (1, 1), 0, oracle=True))
    assert v.verdict == "RIGID"


def test_g2_adjoint_rigid_at_minus_one():
    v = run_scenario(adjoint_scenario(("G", 2)))
    assert v.verdict == "RIGID"
    assert max(v.report.aggregate) <= 0
    assert v.report.aggregate == {-2: 7, -1: 16}


def test_c2_adjoint():
    v = run_scenario(adjoint_scenario(("C", 2), oracle=True))
    assert v.verdict == "INCONCLUSIVE"
    assert v.report.aggregate == {-1: 4, 0: 8, 1: 6}
    assert v.report.oracle_ran


def test_veronese_a1_verdicts():
    v = run_scenario(spec(["A1"], {1}, (2,), -1, oracle=True))
    assert v.verdict == "INCONCLUSIVE"
    assert len(v.offending_pieces) == 1
    _, _, piece = v.offending_pieces[0]
    assert piece.degree == 3 and piece.dimension == 1
    for p in (0, 1):
        assert run_scenario(spec(["A1"], {1}, (2,), p)).verdict == "INCONCLUSIVE"
    v = run_scenario(spec(["A1"], {1}, (2,), 2, oracle=True))
    assert v.verdict == "RIGID"


def test_segre_1_1_verdicts():
    v = run_scenario(spec(["A1", "A1"], {1, 2}, (1, 1), -1, oracle=True))
    assert v.verdict == "INCONCLUSIVE"
    assert v.report.aggregate == {1: 2}
    v = run_scenario(spec(["A1", "A1"], {1, 2}, (1, 1), 0, oracle=True))
    assert v.verdict == "RIGID"


def test_segre_2_2_rigid():
    v = run_scenario(spec(["A2", "A2"], {1, 3}, (1, 0, 1, 0), 0, oracle=True))
    assert v.verdict == "RIGID"
    assert v.report.aggregate == {0: 16}
    assert v.report.oracle_ran


def test_verdict_monotone_in_p():
    for algebra, marked, weight in [(["A1"], {1}, (2,)),
                                    (["A2"], {1, 2}, (1, 1))]:
        prev = None
        for p in range(-1, 4):
            v = run_scenario(spec(algebra, marked, weight, p))
            if prev == "RIGID":
                assert v.verdict == "RIGID"
            prev = v.verdict


def test_determinism_byte_identical():
    s = spec(["A2"], {1, 2}, (1, 1), -1, oracle=True)
    a = verdict_json_text(run_scenario(s))
    b = verdict_json_text(run_scenario(s))
    assert a == b


def test_scenario_json_round_trip():
    s = spec(["A2", "A1"], {1, 3}, (1, 1, 2), 0, oracle=True)
    doc = scenario_to_json(s)
    assert scenario_from_json(json.dumps(doc)) == s


@pytest.mark.parametrize("key", ["algebra", "marked", "weight", "p"])
def test_scenario_from_json_names_a_missing_key(key):
    doc = {"algebra": ["A1"], "marked": [1], "weight": [2], "p": -1}
    del doc[key]
    with pytest.raises(ValueError, match=f"no '{key}'"):
        scenario_from_json(doc)


def test_report_json_round_trips_and_has_no_floats():
    v = run_scenario(spec(["A1"], {1}, (2,), -1, oracle=True))
    doc = verdict_to_json(v)
    text = json.dumps(doc)
    reparsed = json.loads(text)
    assert reparsed == doc

    def no_floats(x):
        if isinstance(x, float):
            return False
        if isinstance(x, dict):
            return all(no_floats(v) for v in x.values())
        if isinstance(x, list):
            return all(no_floats(v) for v in x)
        return True
    assert no_floats(doc)


def test_run_scenario_validates():
    with pytest.raises(ValueError):
        run_scenario(spec(["A2"], {1}, (1, -1), 0))
    with pytest.raises(ValueError):
        run_scenario(spec(["A2"], {1}, (1,), 0))
    for marked, weight in [({1}, (1, 1)), ({1, 2}, (1, 0))]:
        with pytest.raises(ValueError, match="support"):
            run_scenario(spec(["A2"], marked, weight, -1))
    with pytest.raises(ValueError):
        spec(["A2"], {1}, (1, 1), -2)
