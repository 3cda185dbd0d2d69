"""Golden outputs: "the same results" made checkable.

Pins the sha256 of the verdict JSON that `liecoh --format json rigidity
--fixture NAME` prints for every bundled fixture, of the JSON of a `gperp`
and an oracle-checked `cohomology` run, of the E8 adjoint and E7 `V(w7)`
verdicts, of the oracle-checked E6 `V(w1)` and D6 `V(w6)` verdicts with the
oracle bound raised, of a `tableau --op all` run on `tests/tableau_small.json`, of
`tableau --op all` and `--op characters` runs on the dense-basis Seg(P2 x P2)
and quadric-5 tableaux in `tests/`, of the exact prolongation basis of the Seg(P2 x P2) stabilizer tableau, of the
explicit matrices `construct_rep` builds on modules with a weight space of
dimension > 1, and of the stdout of every demo.  A change that keeps these bytes
keeps the program's observable results; a change that means to alter them
must update the hashes here and say why.
"""

import hashlib
import os
import subprocess
import sys

import json
from fractions import Fraction

import pytest

from liecoh.cli import main
from liecoh.repthy import construct_rep
from liecoh.rootsys import parse_type
from liecoh.tableau import prolong, stabilizer_and_tableau

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

FIXTURE_SHA256 = {
    "adjoint-a2": "fa9a7c45b501d39e73a22a70d39cf52c772dffb76449314af2f6d90507710644",
    "adjoint-c2": "079b4185d0a00d8eed5ffe7cbc451ded7142cc056c9dcd98c43588764a2ec440",
    "adjoint-g2": "72910787f5966c6397fbdc266a35b3574a0a04a6f4c4c517141571eedacfe0cd",
    "grassmannian-a3-p2": "3d8565a1ede2b04e98d6790f7d402ba34ee8ff4c50b2bd0dd50c8b9f8b15d62e",
    "segre-1-1": "28ea407911a19661f3dc2118327ce0eea52096d4c7541cb93aa94c646379265f",
    "segre-2-2": "4488961127035ac85b7fa2aefe34578e7d4ec6f84f22389e0956f9e2162d51bb",
    "veronese-a1": "e73b1c32f8fa0df018fde6baf1e2d12d22383ecd64ce80dfac0c4b111f2c12cc",
}

COMMAND_SHA256 = {
    ("gperp", "--type", "A2", "--weight", "1,1"):
        "58fe1f6861bf48d18e27180ca23d793b47cd26ddbff0df0ba9d1789bdc4759a9",
    ("cohomology", "--type", "A2", "--marked", "1,2", "--gamma", "3,0", "--oracle"):
        "a6fd2ba2c0c75a14592b554fe879b4201674fc49a35e2a6097b491a3a77b062f",
    # Kostant route at the largest types, where no oracle runs
    ("adjoint", "--type", "E8", "--run"):
        "a2a7d83e562ff6e0be7b7296f5fde959b9302fafa3af9f6241e0d0b1778820a2",
    ("rigidity", "--type", "E7", "--marked", "7", "--weight", "0,0,0,0,0,0,1",
     "--p", "-1"):
        "c54377583107d7d48b239997e470c4709f17f804060016ee4a87f789dcdf0934",
    ("tableau", "--input", os.path.join(ROOT, "tests", "tableau_small.json"),
     "--op", "all"):
        "d30a0b2a54cf5ccd4257838e690c9db285a95ddcdb325ff40379e63f06e5b940",
}

# oracle-checked verdicts of non-Borel markings above the default oracle bound,
# run with ORACLE_DIM_MAX raised to dim U: (bound, rigidity arguments)
LIFTED_ORACLE_SHA256 = {
    (27, "--type", "E6", "--marked", "1", "--weight", "1,0,0,0,0,0"):
        "38b3c4f0da27c1d28ae5c4bebf9713fcb787d077b2db0627126391592519f83b",
    (32, "--type", "D6", "--marked", "6", "--weight", "0,0,0,0,0,1"):
        "c719a3be38b9723a4385f3c9058ba719df042a7850150ba377f8a60a89869757",
}

# `tableau --op OP` on stabilizer tableaux under a seeded unimodular change of
# basis: the Seg(P2 x P2) one is not involutive, so its flag sweep runs to the
# end; the quadric-5 one is, so its sweep may stop at Cartan's equality
TABLEAU_SHA256 = {
    ("tableau_segre_2x2_dense.json", "all"):
        "b01b22a2a8f5db5623f71b2ef597ec57db1f4a93f6488cf45bf148a90cf7afd1",
    ("tableau_segre_2x2_dense.json", "characters"):
        "f070b87b624c5b19c1df2d31b6e5c229a222a57dff1ffe4e0b991dd1d0ee10e2",
    ("tableau_quadric_5_dense.json", "all"):
        "5cc918edf89d277aa20a5cc3b5f9d231fac89005dcb443543b649fe77dbfd049",
    ("tableau_quadric_5_dense.json", "characters"):
        "8618166ad002f32091abee0561f756b3a5bfdd0b1947775e9720c5061798d059",
}

# the exact vectors of prolong(t), in order, for Seg(P2 x P2) in adapted
# coordinates (F2 = x_i y_j on T = C^2 + C^2, N = C^2 (x) C^2)
SEGRE_2X2_PROLONG_SHA256 = "d2cd8a249fd96cc24875f7657996b48fb6460847e168918b3778db44c346766b"

# construct_rep(type, lam): basis weights, then every e, f and h matrix as its
# sorted nonzeros; each module has a weight space of dimension > 1, where the
# basis depends on how linear dependence is decided
REP_SHA256 = {
    ("A2", (2, 2)): "ee957dd040e3e7b92bee480f2ac851c73fe943d9efaab38dbf641833cb733957",
    ("C2", (1, 1)): "67141c6b20e1742bdfe63d9fed422884b209b691515ce69e656bddeb628810c8",
    ("B2", (2, 1)): "285cd4286927a9378d42eedc3b87ddc80111e55adac49c5d08e65ba2a12516b5",
    ("G2", (0, 1)): "d1130d175e33ce993c130f2a2581812621afc6b0c3be3768e89bf3ece8cd05d0",
    ("F4", (1, 0, 0, 0)):
        "4662fae5ad830bcc10ff36dd44a8dd0ea9094c8a332a75cf6011544083d62f77",
    ("E6", (0, 1, 0, 0, 0, 0)):
        "538777f670b00239128da9ef552dc404a6d66ed5311285e81facd9302cc90ca2",
}

DEMO_SHA256 = {
    "01_universal_dimensions.py":
        "3e6d9dd5d08663e802f81f7a8f250cabb50dda2880c599a9e7592e4eeb4e0a6e",
    "02_gradings.py": "eec92f15e373d4fc7d3e56928fc484f6bcc61a7d071157aeed7d2e7f265da162",
    "03_gperp_cohomology.py":
        "7822cb6b1eab99f656ba8a1ff6d01f9ac014fc1e72f42da9530b6f0b746ac55f",
    "04_cartan_test.py": "cbc7f1a9bf48581111bec95ee1c3a5846a232849869aa21db9ee45f7a7ac8f0f",
    "05_rigidity_verdicts.py":
        "02198d55927e8a1166de26b4c4f6f940613d16ad476f423dce408ad732fda7a3",
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(FIXTURE_SHA256))
def test_fixture_verdict_json(name, capsys):
    assert main(["--format", "json", "rigidity", "--fixture", name]) == 0
    assert sha256(capsys.readouterr().out.encode()) == FIXTURE_SHA256[name]


@pytest.mark.parametrize("argv", sorted(COMMAND_SHA256), ids=lambda argv: argv[0])
def test_command_json(argv, capsys):
    assert main(["--format", "json", *argv]) == 0
    assert sha256(capsys.readouterr().out.encode()) == COMMAND_SHA256[argv]


@pytest.mark.parametrize("key", sorted(LIFTED_ORACLE_SHA256), ids=lambda key: key[2])
def test_lifted_bound_oracle_json(key, capsys, monkeypatch):
    bound, *argv = key
    monkeypatch.setenv("ORACLE_DIM_MAX", str(bound))
    assert main(["--format", "json", "rigidity", *argv, "--p", "-1", "--oracle"]) == 0
    out = capsys.readouterr().out
    assert '"ran": true' in out
    assert sha256(out.encode()) == LIFTED_ORACLE_SHA256[key]


@pytest.mark.parametrize("name,op", sorted(TABLEAU_SHA256),
                         ids=lambda x: x.removesuffix(".json"))
def test_tableau_json(name, op, capsys):
    path = os.path.join(ROOT, "tests", name)
    assert main(["--format", "json", "tableau", "--input", path, "--op", op]) == 0
    assert sha256(capsys.readouterr().out.encode()) == TABLEAU_SHA256[name, op]


@pytest.mark.parametrize("name,lam", sorted(REP_SHA256),
                         ids=lambda x: x if isinstance(x, str) else ",".join(map(str, x)))
def test_construct_rep_matrices(name, lam):
    rep = construct_rep(parse_type(name), lam, bound=None)
    assert max(map(rep.basis_weights.count, set(rep.basis_weights))) > 1
    parts = [repr(rep.basis_weights)]
    for mats in (rep.e, rep.f, rep.h):
        parts.extend(repr(sorted(M.items())) for M in mats)
    assert sha256("\n".join(parts).encode()) == REP_SHA256[name, lam]


def test_every_demo_is_pinned():
    assert sorted(DEMO_SHA256) == sorted(
        f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py"))


@pytest.mark.parametrize("demo", sorted(DEMO_SHA256))
def test_demo_stdout(demo):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    out = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                         capture_output=True, env=env, check=True).stdout
    assert sha256(out) == DEMO_SHA256[demo]


def test_segre_2x2_prolongation_basis():
    def sym(entries):
        M = [[Fraction(0)] * 4 for _ in range(4)]
        for i, j in entries:
            M[i][j] = M[j][i] = Fraction(1)
        return M
    f2 = [sym([(i, 2 + j)]) for i in range(2) for j in range(2)]
    t = stabilizer_and_tableau(f2, 4, 4).tableau_r_perp
    text = json.dumps([[str(x) for x in v] for v in prolong(t)])
    assert sha256(text.encode()) == SEGRE_2X2_PROLONG_SHA256
