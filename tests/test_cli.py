import importlib
import json
import shutil
import sys
import time
from pathlib import Path

import pytest

from liecoh import cli, cohomology, tableau
from liecoh.cli import fixtures, load_fixture, main
from liecoh.errors import InternalCheckError
from liecoh.tableau import cauchy_riemann_tableau, tableau_to_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_vogel_prints_248(capsys):
    code, out, _ = run(capsys, "vogel", "--params", "-2,12,20", "--k", "1")
    assert code == 0
    assert out.strip() == "248"


def test_vogel_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "vogel", "--params", "-2,4,4")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "28"


def test_vogel_rational_output(capsys):
    code, out, _ = run(capsys, "vogel", "--params", "1,2,3")
    assert code == 0
    assert "/" in out or out.strip().lstrip("-").isdigit()
    assert "." not in out


def test_grading_example(capsys):
    code, out, _ = run(capsys, "--format", "json", "grading", "--type", "A3",
                       "--marked", "2", "--weight", "0,1,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["module"] == {"0": 1, "-1": 4, "-2": 1}
    assert doc["algebra"] == {"-1": 4, "0": 7, "1": 4}


def test_grading_product_type_in_capitals(capsys):
    # the factor separator is read in either case, like the factors
    code, out, _ = run(capsys, "--format", "json", "grading", "--type", "A1XA1",
                       "--marked", "1,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["algebra"] == {"-1": 2, "0": 2, "1": 2}


def test_gperp_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "gperp", "--type", "A2",
                       "--weight", "1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["total_dim"] == 55
    assert len(doc["components"]) == 4


def test_cohomology_oracle(capsys):
    code, out, _ = run(capsys, "--format", "json", "cohomology", "--type", "A1",
                       "--marked", "1", "--gamma", "4", "--oracle")
    assert code == 0
    doc = json.loads(out)
    assert doc["pieces"] == [{"levi_highest_weight": [6], "degree": 3,
                              "dimension": 1, "source_reflection": 1}]
    assert doc["oracle"] == {"3": 1}


def test_cohomology_oracle_on_a_fractional_degree(capsys):
    # V(1,0) of A2 graded by the first node lives in degrees 2/3 and -1/3
    code, out, _ = run(capsys, "--format", "json", "cohomology", "--type", "A2",
                       "--marked", "1", "--gamma", "1,0", "--oracle")
    assert code == 0
    doc = json.loads(out)
    assert [piece["degree"] for piece in doc["pieces"]] == ["2/3"]
    assert doc["oracle"] == {"2/3": 3}


def test_fixtures_list():
    names = fixtures()
    assert names == ["adjoint-a2", "adjoint-c2", "adjoint-g2",
                     "grassmannian-a3-p2", "segre-1-1", "segre-2-2",
                     "veronese-a1"]
    for name in names:
        load_fixture(name)


def test_list_fixtures_in_both_formats(capsys):
    # the table is one name a line; --format json is one object
    code, out, err = run(capsys, "rigidity", "--list-fixtures")
    assert code == 0 and err == "" and out == "".join(f"{n}\n" for n in fixtures())
    code, out, err = run(capsys, "--format", "json", "rigidity", "--list-fixtures")
    assert code == 0 and err == ""
    assert out == json.dumps({"fixtures": fixtures()}, indent=2) + "\n"
    assert json.loads(out)["fixtures"][0] == "adjoint-a2"


def test_a_copy_of_the_package_reads_its_own_fixtures(tmp_path, monkeypatch):
    # two checkouts can be imported side by side, one under another name
    copy = tmp_path / "liecoh_copy"
    shutil.copytree(Path(cohomology.__file__).parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    (copy / "fixtures" / "segre-1-1.json").unlink()
    monkeypatch.syspath_prepend(str(tmp_path))
    other = importlib.import_module("liecoh_copy.cli")
    try:
        assert Path(str(other.FIXTURES)).parent == copy
        assert "segre-1-1" not in other.fixtures() and "segre-1-1" in fixtures()
        assert repr(other.load_fixture("veronese-a1")) == repr(load_fixture("veronese-a1"))
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == "liecoh_copy"]:
            del sys.modules[name]


def test_rigidity_fixture_run(capsys):
    code, out, _ = run(capsys, "--format", "json", "rigidity",
                       "--fixture", "veronese-a1")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "INCONCLUSIVE"
    assert doc["h1_by_degree"] == {"3": 1}
    assert doc["oracle"]["ran"] is True


def test_rigidity_fixture_with_p_override(capsys):
    code, out, _ = run(capsys, "--format", "json", "rigidity",
                       "--fixture", "veronese-a1", "--p", "2")
    assert code == 0
    assert json.loads(out)["verdict"] == "RIGID"


def test_rigidity_inline(capsys):
    code, out, _ = run(capsys, "--format", "json", "rigidity", "--type", "A1,A1",
                       "--marked", "1,2", "--weight", "1,1", "--p", "-1")
    assert code == 0
    assert json.loads(out)["verdict"] == "INCONCLUSIVE"


def test_rigidity_oracle_d5_spinor(capsys):
    code, out, _ = run(capsys, "--format", "json", "rigidity", "--type", "D5",
                       "--marked", "5", "--weight", "0,0,0,0,1", "--p", "-1",
                       "--oracle")
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle"]["ran"] is True
    assert doc["h1_by_degree"] == {"0": 175}


def test_rigidity_scenario_file(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"algebra": ["A1"], "marked": [1],
                                "weight": [2], "p": 2, "oracle": False}))
    code, out, _ = run(capsys, "--format", "json", "rigidity",
                       "--scenario", str(path))
    assert code == 0
    assert json.loads(out)["verdict"] == "RIGID"


def test_adjoint_emit_and_run(capsys):
    code, out, _ = run(capsys, "adjoint", "--type", "A2")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"algebra": ["A2"], "marked": [1, 2], "weight": [1, 1],
                   "p": -1, "oracle": False}
    code, out, _ = run(capsys, "--format", "json", "adjoint", "--type", "G2",
                       "--run")
    assert code == 0
    assert json.loads(out)["verdict"] == "RIGID"


def test_tableau_cli(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(tableau_to_json(cauchy_riemann_tableau())))
    code, out, _ = run(capsys, "--format", "json", "tableau", "--input", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["involutive"] is True
    assert doc["characters"] == [2, 0]
    code, out, _ = run(capsys, "--format", "json", "tableau", "--input",
                       str(path), "--op", "torsion", "--flag-seed", "3")
    assert code == 0
    assert json.loads(out)["torsion_quotient_dim"] == 0


def test_exit_code_2_on_input_errors(capsys, tmp_path, monkeypatch):
    good = {"algebra": ["A1", "A1"], "marked": [1, 2], "weight": [1, 1], "p": 0}
    scenarios = [[1], {**good, "marked": 1}, {**good, "algebra": [""]},
                 {"algebra": ["A2"], "marked": [1], "weight": [1.5, 0], "p": 0},
                 {**good, "p": 0.5},
                 {**good, "oracle": "false"},
                 {key: x for key, x in good.items() if key != "p"},
                 # an unknown key, such as a misspelt "oracle"
                 {**good, "extra": 1}, {**good, "oracel": True}]
    tableaux = [{"dim_V": 1, "dim_W": 1, "basis": [["1/0"]]}, [1],
                {"dim_V": -1, "dim_W": 1, "basis": []}, {"dim_W": 1, "basis": []},
                {"dim_V": 2, "dim_W": 1, "basis": [[True, "0"]]},
                {"dim_V": 1, "dim_W": 1, "basis": [], "extra": 1}]
    files = []
    for k, doc in enumerate(scenarios + tableaux):
        path = tmp_path / f"input{k}.json"
        path.write_text(json.dumps(doc))
        files.append(str(path))
    cases = [("rigidity", "--scenario", f) for f in files[:len(scenarios)]]
    cases += [("tableau", "--input", f) for f in files[len(scenarios):]]
    cases += [
        ("vogel", "--params", "0,1,2"),
        ("grading", "--type", "Z9", "--marked", "1"),
        ("grading", "--type", "A2", "--marked", "7"),
        ("grading", "--type", "A2", "--marked", "1", "--weight", "1,x"),
        # an empty weight, and a rank in digits that are not ASCII
        ("grading", "--type", "A2", "--marked", "1", "--weight", ""),
        ("grading", "--type", "A\u00b2", "--marked", "1"),
        ("grading", "--type", "A2", "--marked", ""),
        ("grading", "--type", "A2", "--marked", "1,x"),
        ("rigidity", "--type", "A2", "--marked", "1", "--weight", "1,-1",
         "--p", "0"),
        ("rigidity", "--fixture", "no-such-fixture"),
        ("gperp", "--type", "A1,A1", "--weight", "1,0"),
        # marking != supp(weight), and --type without --marked/--weight/--p
        ("rigidity", "--type", "A2", "--marked", "1", "--weight", "1,1", "--p", "-1"),
        ("grading", "--type", "A2", "--marked", "1", "--weight", "1,1"),
        ("rigidity", "--type", "A2", "--marked", "1", "--weight", "1,1"),
        ("rigidity", "--type", "A2", "--weight", "1,1", "--p", "-1"),
        # dim V_gamma = 64 above the oracle bound, and two Vogel parameters
        ("cohomology", "--type", "A2", "--marked", "1,2", "--gamma", "3,3", "--oracle"),
        ("vogel", "--params", "1,2"),
        # p below -1 (also on a fixture), and a Vogel order k below 1
        ("rigidity", "--type", "A1", "--marked", "1", "--weight", "2", "--p", "-5"),
        ("rigidity", "--fixture", "segre-1-1", "--p", "-5"),
        ("vogel", "--params", "-2,12,20", "--k", "-3"),
        # a Vogel order k above the budget of dim_yk
        ("vogel", "--params", "-2,12,20", "--k", "100000"),
        # more than one of --y2, --y3 and --k
        ("vogel", "--params", "-2,12,20", "--y2", "--k", "3"),
        ("vogel", "--params", "-2,12,20", "--y2", "--y3"),
        # more than one rigidity source, and --marked or --weight without --type
        ("rigidity", "--fixture", "segre-1-1", "--type", "A2", "--marked", "1",
         "--weight", "1,0"),
        ("rigidity", "--fixture", "segre-1-1", "--scenario", "/nonexistent"),
        ("rigidity", "--list-fixtures", "--fixture", "segre-1-1"),
        ("rigidity", "--list-fixtures", "--type", "A2"),
        ("rigidity", "--scenario", files[0], "--type", "A2"),
        ("rigidity", "--fixture", "segre-1-1", "--marked", "1"),
        ("rigidity", "--fixture", "segre-1-1", "--weight", "1,0"),
        ("rigidity", "--marked", "1", "--weight", "1,0", "--p", "-1"),
        # the overrides need a scenario source to override
        ("rigidity", "--list-fixtures", "--p", "0"),
        ("rigidity", "--list-fixtures", "--oracle"),
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.strip(), argv
    for k, key in [(len(scenarios) - 2, "extra"), (len(scenarios) - 1, "oracel")]:
        _, _, err = run(capsys, "rigidity", "--scenario", files[k])
        assert err.endswith(f": scenario has an unknown key '{key}'\n")
    _, _, err = run(capsys, "tableau", "--input", files[-1])
    assert err.endswith(": tableau has an unknown key 'extra'\n")
    _, _, err = run(capsys, "vogel", "--params", "-2,12,20", "--y2", "--y3", "--k", "3")
    assert "--y2 and --y3 and --k exclude each other" in err
    _, out, err = run(capsys, "rigidity", "--list-fixtures", "--fixture", "segre-1-1")
    assert out == "" and "--list-fixtures and --fixture exclude each other" in err
    _, _, err = run(capsys, "rigidity", "--fixture", "segre-1-1", "--weight", "1,0")
    assert err == "error: --weight goes only with --type\n"
    _, out, err = run(capsys, "rigidity", "--list-fixtures", "--oracle")
    assert out == "" and err == "error: --p and --oracle do not go with --list-fixtures\n"
    # a node past the rank is refused where the marking is built
    code, _, err = run(capsys, "rigidity", "--type", "A2", "--marked", "5", "--weight", "1,0",
                       "--p", "-1")
    assert code == 2 and err == "error: marked node out of range for rank 2\n"
    # a malformed marking names the option and the expected form
    for text in ("", "1,x"):
        _, _, err = run(capsys, "grading", "--type", "A2", "--marked", text)
        assert f"malformed --marked {text!r}" in err and "such as 1,3" in err
    # an empty weight is malformed, not absent; a rank such as '²' names the type
    _, _, err = run(capsys, "grading", "--type", "A2", "--marked", "1", "--weight", "")
    assert err.startswith("error: malformed weight ''")
    _, _, err = run(capsys, "grading", "--type", "A²", "--marked", "1")
    assert err == "error: cannot parse simple type 'A²'\n"
    # a negative oracle bound would skip every oracle with exit 0
    monkeypatch.setenv("ORACLE_DIM_MAX", "-5")
    for argv in [("rigidity", "--fixture", "segre-1-1", "--oracle"),
                 ("cohomology", "--type", "A1", "--marked", "1", "--gamma", "2", "--oracle")]:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "ORACLE_DIM_MAX" in err, argv


def test_internal_check_error_exits_1(capsys, monkeypatch):
    def broken(marking, h1, pieces):
        raise InternalCheckError("oracle disagrees")
    monkeypatch.setattr(cohomology, "check_oracle", broken)
    code, out, err = run(capsys, "cohomology", "--type", "A1", "--marked", "1",
                         "--gamma", "2", "--oracle")
    assert code == 1
    assert out == ""
    assert err == "internal consistency failure: oracle disagrees\n"


def test_value_error_from_any_library_call_exits_2(capsys, tmp_path, monkeypatch):
    # no per-command wrapper: main alone turns a ValueError into exit 2
    def rejecting(t, seed):
        raise ValueError("tableau rejected")
    monkeypatch.setattr(tableau, "is_involutive", rejecting)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(tableau_to_json(cauchy_riemann_tableau())))
    code, out, err = run(capsys, "tableau", "--input", str(path), "--op", "all")
    assert code == 2
    assert out == ""
    assert err == "error: tableau rejected\n"


@pytest.mark.parametrize("op", ["characters", "prolong", "torsion"])
def test_tableau_over_the_work_budget_exits_2_at_once(capsys, tmp_path, op):
    # a 10^5 x 10^5 tableau: the standard flag and delta's empty rows alone
    # ran past an 8 s timeout before the budget
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"dim_V": 100_000, "dim_W": 100_000, "basis": []}))
    start = time.monotonic()
    code, out, err = run(capsys, "tableau", "--input", str(path), "--op", op)
    assert time.monotonic() - start < 1.0
    assert code == 2 and out == ""
    assert "DELTA_SIDE_MAX" in err


@pytest.mark.parametrize("entry", ["1e10000000", "1E10000000", "2.5e-9999999"])
def test_exponent_notation_exits_2_at_once(capsys, tmp_path, entry):
    # Fraction("1e10000000") alone took seconds; both the Vogel parameters
    # and a tableau entry are read by parse_rational
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"dim_V": 1, "dim_W": 1, "basis": [[entry]]}))
    for argv in [("vogel", "--params", f"{entry},2,3"), ("tableau", "--input", str(path))]:
        start = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - start < 1.0, argv
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and err.endswith(f"malformed rational {entry!r}\n")


def test_rationals_without_an_exponent_still_parse(capsys, tmp_path):
    code, out, _ = run(capsys, "--format", "json", "vogel", "--params", "-3,1/2,0.5")
    assert code == 0 and json.loads(out)["params"] == ["-3", "1/2", "1/2"]
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"dim_V": 2, "dim_W": 1, "basis": [[1, "-3"], ["1/2", "0.5"]]}))
    code, out, _ = run(capsys, "--format", "json", "tableau", "--input", str(path),
                       "--op", "characters")
    assert code == 0 and json.loads(out)


@pytest.mark.parametrize("argv", [
    ("grading", "--type", "A200", "--marked", "1"),
    ("rigidity", "--type", "A200", "--marked", "1", "--weight", "1", "--p", "-1"),
])
def test_root_system_over_the_budget_exits_2_at_once(capsys, argv):
    # A200 has 20,100 positive roots; it ran past a 15 s timeout before the budget
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 1.0
    assert code == 2 and out == ""
    assert err == ("error: A200 has 20100 positive roots, over the root-system "
                   "budget ROOTS_MAX = 5050\n")


def test_no_floats_in_rigidity_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "rigidity",
                       "--fixture", "segre-1-1")
    assert code == 0
    assert "." not in out.replace("direct matrix computation agreed with the "
                                  "combinatorial dimensions in every degree", "")


def test_consecutive_calls_share_one_parser_and_leave_no_state(tmp_path, capsys, monkeypatch):
    # main builds its parser once per process; each pair below is a call and
    # then one that a leftover of the first would change
    cli.build_parser.cache_clear()
    # --format json, then the default table
    code, out, _ = run(capsys, "--format", "json", "vogel", "--params", "-2,12,20", "--k", "1")
    assert code == 0 and json.loads(out)["value"] == "248"
    code, out, _ = run(capsys, "vogel", "--params", "-2,12,20", "--k", "1")
    assert code == 0 and out == "248\n"
    # --oracle, then no --oracle
    gamma = ("cohomology", "--type", "A1", "--marked", "1", "--gamma", "4")
    code, out, _ = run(capsys, "--format", "json", *gamma, "--oracle")
    assert code == 0 and json.loads(out)["oracle"] == {"3": 1}
    code, out, _ = run(capsys, "--format", "json", *gamma)
    assert code == 0 and "oracle" not in json.loads(out)
    # an exit-2 call, from main and from argparse, then a good call
    code, out, err = run(capsys, "grading", "--type", "Z9", "--marked", "1")
    assert code == 2 and out == "" and err.startswith("error: ")
    with pytest.raises(SystemExit) as refused:
        main(["vogel", "--params", "-2,12,20", "--nope"])
    assert refused.value.code == 2
    capsys.readouterr()
    code, out, err = run(capsys, "vogel", "--params", "-2,12,20", "--k", "1")
    assert (code, out, err) == (0, "248\n", "")
    # tableau --flag-seed 1, then the default seed
    path = tmp_path / "t.json"
    path.write_text(json.dumps(tableau_to_json(cauchy_riemann_tableau())))
    seeds = []
    real = tableau.cartan_characters

    def recorded(t, seed):
        seeds.append(seed)
        return real(t, seed)
    monkeypatch.setattr(tableau, "cartan_characters", recorded)
    for extra in (("--flag-seed", "1"), ()):
        code, out, _ = run(capsys, "tableau", "--input", str(path), "--op", "characters", *extra)
        assert code == 0 and out == "A_j dims = [2, 0]\n"
    assert seeds == [1, tableau.FLAG_SEED]
    # one parser for all nine calls
    assert cli.build_parser.cache_info().misses == 1
    assert cli.build_parser() is cli.build_parser()
