"""Golden outputs: "the same results" made checkable.

Pins the sha256 of the verdict JSON that `liecoh --format json rigidity
--fixture NAME` prints for every bundled fixture, of the JSON of a `gperp`
and an oracle-checked `cohomology` run, of the E8 adjoint, E7 `V(w7)`, E8
`V(w1)` and E8 `V(w7)` verdicts, of the oracle-checked E6 `V(w1)` and D6 `V(w6)` verdicts with the
oracle bound raised, of a `tableau --op all` run on `tests/tableau_small.json`, of
`tableau --op all` and `--op characters` runs on the dense-basis Seg(P2 x P2)
and quadric-5 tableaux in `tests/`, of the exact prolongation basis of the Seg(P2 x P2) stabilizer tableau,
of the stabilizer tableaux of two seeded dense second fundamental forms, of the
explicit matrices `construct_rep` builds on modules with a weight space of
dimension > 1, of the weight systems (in their order and as sets) and root
data the Kostant route walks, of their inverse Cartan matrices and d (as an invariant form), of the H^0 and H^1 that the g-perp oracle (gperp_weights) returns grade by grade on
the benchmark ladder and the fixtures, and of the stdout
of every demo.  A change that keeps these bytes
keeps the program's observable results; a change that means to alter them
must update the hashes here and say why.
"""

import hashlib
import math
import os
import random
import subprocess
import sys

import json
from fractions import Fraction

import pytest

from liecoh.cli import main
from liecoh.cohomology import graded_weights, gperp_weights, module_complex
from liecoh.grading import ParabolicMarking
from liecoh.repthy import construct_rep, weight_multiplicities
from liecoh.rootsys import parse_type
from liecoh.tableau import prolong, stabilizer_and_tableau, tableau_to_json
from test_tableau import dense_basis, segre_1x2, segre_2x2

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
    ("grading", "--type", "A3", "--marked", "2", "--weight", "0,1,0"):
        "3ed7564fa44e3cb81340a28794292e54e984926e3cb346061d6ff7415ffd636f",
    ("grading", "--type", "E6", "--marked", "2"):
        "055f780ed10cbe7f5479c15dc291be73ac18f9e158f0583845efb13c9cf3a267",
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
    ("rigidity", "--type", "E8", "--marked", "1", "--weight", "1,0,0,0,0,0,0,0",
     "--p", "-1"):
        "1a59f1ac801b8ee710ada388e0e5ebca183f3c22fd27dfef46cb8ded29e7edaf",
    # the largest weight system the Kostant route walks: 9,121 weights, dim U = 30380
    ("rigidity", "--type", "E8", "--marked", "7", "--weight", "0,0,0,0,0,0,1,0",
     "--p", "-1"):
        "dbb87199b5266898deb9d720db849499e5283c3660b3952a9bbcf47c22b43e92",
    ("tableau", "--input", os.path.join(ROOT, "tests", "tableau_small.json"),
     "--op", "all"):
        "d30a0b2a54cf5ccd4257838e690c9db285a95ddcdb325ff40379e63f06e5b940",
}

# the same commands in `--format table`
TABLE_SHA256 = {
    ("grading", "--type", "A3", "--marked", "2", "--weight", "0,1,0"):
        "b8925fc8f23503013995c124c889bee4c1681aafe5393c65f41904e155737146",
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

# tableau_to_json of the stabilizer tableau of a seeded dense F2: Seg(P2 x P2)
# with seed 0, and Seg(P1 x P2)'s F2 with its two N-slices scaled by 1/2 and
# 2/3, so that the block action has denominators and r has fractional vectors
STABILIZER_SHA256 = {
    "segre_2x2": "1833264263cfb2a9b7923bbcb8e3a0aa28b3c372c04ad61464b16d22731aa0dd",
    "segre_1x2_thirds": "2ee0311d46d8bad05a70c5816df2d932648ee66886873cdc49db7a4ec1ff29a4",
}

# construct_rep(type, lam): basis weights, then every e, f and h matrix as its
# sorted nonzeros; each module has a weight space of dimension > 1, where the
# basis depends on how linear dependence is decided
REP_SHA256 = {
    ("A2", (2, 2)): "ee957dd040e3e7b92bee480f2ac851c73fe943d9efaab38dbf641833cb733957",
    ("A3", (1, 0, 1)): "b8babeb5c6539a02ad366beeccebb6f500e645bb73161cec0f5b521204db2885",
    ("B3", (0, 1, 0)): "fa90f075df43b5d756553ca4e4a0b9c7e013073db9593d8eb6144385e077498f",
    ("D4", (0, 1, 0, 0)):
        "c2bcedb76337016e5b8a17a5e555402920aeb75c7e753fa21a368481e7b1d69f",
    ("C2", (1, 1)): "67141c6b20e1742bdfe63d9fed422884b209b691515ce69e656bddeb628810c8",
    ("B2", (2, 1)): "285cd4286927a9378d42eedc3b87ddc80111e55adac49c5d08e65ba2a12516b5",
    ("G2", (0, 1)): "d1130d175e33ce993c130f2a2581812621afc6b0c3be3768e89bf3ece8cd05d0",
    ("F4", (1, 0, 0, 0)):
        "4662fae5ad830bcc10ff36dd44a8dd0ea9094c8a332a75cf6011544083d62f77",
    ("E6", (0, 1, 0, 0, 0, 0)):
        "538777f670b00239128da9ef552dc404a6d66ed5311285e81facd9302cc90ca2",
}

# repr(list(weight_multiplicities(type, lam).items())): the weights in their
# documented order, top down by level below lam and ties by increasing tuple,
# with their multiplicities; None is the adjoint
WEIGHT_SYSTEM_SHA256 = {
    ("A2", (2, 2)): "776137d2d10a51e9a8ce07c6c095fc4bd4f08c33f9bd740bbfd7ff8a515cbc7b",
    ("B2", (2, 1)): "f9b00460797e0052957fe52b328f3a97023fac794c47bb4aa321d5a9b2265493",
    ("G2", (0, 1)): "f53c4c419d3357adf6b4f9c93bf89180e215e719c7f463484f768a1ff13d21f4",
    ("A1,A2", (1, 1, 1)):
        "228d2467c878c895631a5aa6eb00df2863d212fdce4a0cadf5d78d9e4782c14f",
    ("F4", (0, 0, 0, 1)):
        "ee0f6f36e15768982701119616e1fea3345bbdea37af6f6e731f6e8480e690fc",
    ("E6", (1, 0, 0, 0, 0, 0)):
        "076d8a97c962e2fa8d18ec6ff7781951fe70e365e5428dc4e877dc3ef79bce77",
    ("E7", (0, 0, 0, 0, 0, 0, 1)):
        "a04deb9dbbe6ae517349a5cbd42b87ea54db96bdec35417702e4b75406a9c62c",
    ("E8", None): "3d342fd1d823be17c368b0b80709a21724b73abe8ceeb2cfb052d4c42df7c33a",
    ("E8", (1, 0, 0, 0, 0, 0, 0, 0)):
        "55f092c7af58f5241f71eb3e61c408a2c139ef76509c81896e6f6c30fa872cfc",
}

# repr(sorted(weight_multiplicities(type, lam).items())): the weight systems
# above as sets with multiplicities, whatever their order
WEIGHT_CONTENT_SHA256 = {
    ("A2", (2, 2)): "f138f1f4004e6603a78574568a0b81c5f23d3d679a8edd4e1cbadb28afb316ec",
    ("B2", (2, 1)): "74136dd3ff1e61adb947816717a27d1cf8486a49106a01106ffbea64f6d2f559",
    ("G2", (0, 1)): "a081ab944ca4f23ec0b74090bfcd9c061d2296e591ff4478040eef57a662de7e",
    ("A1,A2", (1, 1, 1)):
        "8edc3b0fc6345c1a3db56561b28004c2a3f8000bec86291f29b12f430523966f",
    ("F4", (0, 0, 0, 1)):
        "736f402801cd942731db1186b174cb480c26a313e320f34bae24d7ee03e799eb",
    ("E6", (1, 0, 0, 0, 0, 0)):
        "00f317b8d89a1fd51dcfee78d601ff8b89f74c6c611ec95a1de8a46227b71e70",
    ("E7", (0, 0, 0, 0, 0, 0, 1)):
        "9d43a7de52549b2c597f9b73b5e5f14ece69b5802e13e1048f12f09862b4bbed",
    ("E8", None): "79700b1aaae22d096dde6acd70d5b694944cb39ffd0c4d255f7bf806ccb3439c",
    ("E8", (1, 0, 0, 0, 0, 0, 0, 0)):
        "a8a8b3418304d2ce03ad7b9d9b8997e0dfc60e2db2d10734efaa63707b268eeb",
}

# positive roots as (coords, factor, height, parent), height = sum(coords),
# then root_weights and the coroots (_coroots), in order: every type of the
# benchmark ladders, and a product
ROOT_DATA_SHA256 = {
    "A2": "305519210cf44a7815ce0f9114f4831065ce74498d8d3ae92bb62ca7fa3454a9",
    "A3": "57f65c263fc63efd122bfa0cec130a8272876159069decf85bbcdc69da3b0fd5",
    "A4": "d0694bb33576183e1b7f65412825d6e072eed4d1c6f3e30e987bbd66a1329424",
    "A5": "1f0f0c4dfa943a6de175a0eb5cdf2994f85ab7eb93c6d60f1cc4fa9d94285811",
    "A7": "fef79e8fd62f3503865472898de0d9df68d2b6fcf7e3a7d9154a55c78e7fae6e",
    "B3": "09525be568cfe59bc59dcb3ab4a494e10aebe994d806c741253fdc76274887e4",
    "C2": "850b7fcecd51e0bd63a75fb37b51fe141e999f2b746dd62c513241b67005efb3",
    "C3": "5151030dd840806cf93cb8fd35503956fe8e9cc59b0525fb1bfd7d69dda4f9c9",
    "C4": "f74056e4645787f0911f8c89c13c135133762d9968f60c521001f5383381d572",
    "D4": "4120adb0878dec1b7cb3b91efe8d2414d2f4f9b3c7d23477184c674b8e631b18",
    "D5": "6534246260ad1ddbe13c2a3506287d094a6e0e250d263d08a799754ec5b8a20d",
    "D6": "ad6d607a92d916ce69b86a34d522c093b11871c843cc70e572350db9e594e36d",
    "E6": "e2c14415b1536538ce3fd069c17baf2fc9a35e5d36aedcbab2ba4482968e0c9d",
    "E7": "dbc6aecd0c76a7c46f6ea4bf46e4a183e5481f08d235580b365dc90e2be29ab6",
    "E8": "2bfffe3996eba8f592163f43e9f0f01b604e353d9bd27823ee81ef11e19dda4b",
    "F4": "d1777f6e4d1c3ecc1a9948c8307c9d8d35f9cc654f984b40961ed914d7098f30",
    "G2": "4cbef817d7822240951ab8ad49483583f820bced2b357d2e716ba34b2286470c",
    "A2,G2": "a0c72062df626473227d628f2db24203c07d1a560213ef75ae1b00bf43d97f6a",
}

# repr((inverse_cartan_den, inverse_cartan_scaled, form_den, form)) on the same
# types: C^-1 over its denominator and the invariant form (_form) that d and
# C^-1 give with every highest root of squared length 2
ROOT_FORM_SHA256 = {
    "A2": "09a7b27c18bf184a2afacc0e291ecc190f5c450ce2428cb90fb5e8c1f568f422",
    "A3": "c72fe202744e0cdac768d1446a10a6b85f6d1e1737dbeee79928b95e0b4f4be5",
    "A4": "56d11b9c8284813ad4663f0d1585166eda52da78fb165679d9fc140c1e8ceca4",
    "A5": "6c5667b39113330445ae592bfa21a3178032dc624c5c509fd766e6ed88a7cd5e",
    "A7": "7f43f4d7efb1fc95ef816fb382f79fbea2645b55b94b85b519f60d1eb634b032",
    "B3": "2a179e9ff9e752b229b30bc2a6455b4d517bf6c2ec8e5968e19f599c9d695145",
    "C2": "840149829894af05cbd8d0bd4d8ed3790ae8701f3fde88fbae5d83f801b2ff40",
    "C3": "3030de4d2f2e62346ff3bed54910b982d21a4ebc41c34c2172414fe6cfe2f4dc",
    "C4": "d54b5473b806e5ac299e26ebe11ff622162882156017ed086732fc5ed756a034",
    "D4": "cd7fb684155d707484baa084bd4209e4c96fa683b5db976c59f29ecc0909ac84",
    "D5": "c1fc52974bee924ba2079c5ddc8e85069e3190eb11c5b5d9bb2d3c0819433e3d",
    "D6": "6ad3000012455befd5d1d73872326b52279d0847d86bba5ea7ea247c9dba3162",
    "E6": "41663522c514ebd0024e68c2137360039ca9a9ff23eba1fc24f249a0b8230e7a",
    "E7": "f9da125882e37bf7c9337f77b9ba0e12a06ff3d800bb2f480aa1e3e5676c85fa",
    "E8": "3beecf42b2f054d379dc9c2e02985c1d7d540151f31126d8a3a4b4ad4655769a",
    "F4": "caa9938e4ad997a426079a3587f6705765677080905b294f1454088182c45686",
    "G2": "3fee6caceaf9c4f5824e0996fbf03bd65d7fa572eb7bc53d0f258bad8a6d9d32",
    "A2,G2": "d52c48f69a04847892b3999d86d0c34b11376b20e772d6ddf99893e0a04dc543",
}

# repr((sorted(h0.items()), sorted(h1.items()))) of gperp_weights(type,
# marked, lam): the oracle ladder of the benchmark, then every fixture that
# runs the oracle; "module" is graded_weights on module_complex, gamma = (3, 0)
GRADED_WEIGHTS_SHA256 = {
    ("G2", (1,), (1, 0)): "27552e2aeda6bf12266f152d534ce7ea1fdd1cf9fcc2b37d8d3e56d656158e82",
    ("B3", (3,), (0, 0, 1)):
        "8a92c1985d4aec7c8cca0d744ffe65679a2032fc3e01c9b22ef287c638c45641",
    ("D4", (1,), (1, 0, 0, 0)):
        "d229398ae311e782e9010cff03f7084ceb7eccc80734fac15dc4aade66742830",
    ("A4", (2,), (0, 1, 0, 0)):
        "472dbd94cc1d39ef662f79546f239a9168c4b0b7bda73ca49cec7ab2f51e85a4",
    ("A2", (1, 2), (2, 1)): "e87d105885b57f493d509fdac45d74cad618ee2858ff62732e19cccac55b05f0",
    ("C2", (1, 2), (1, 1)): "a0b3c39b0098e25a9fbae0e9a5622eed9253be6480b7fa765ad4c5a070865023",
    ("A2", (1, 2), (1, 1)): "1d67157049947174253c73dd3d651ac6a682450e6cf47b166c483348e10ecfd7",
    ("C2", (1,), (2, 0)): "291d0aee68eb526e7206d2163bff0a899b4293f03d6dda53388fb43b6d507969",
    ("A3", (2,), (0, 1, 0)):
        "a20a2d86a6efc4ed15982650e736bad0abe0abf35b1efd51001fb4ae3ca84ccc",
    ("A1,A1", (1, 2), (1, 1)):
        "3fc8824830934ffd57e39e6a259cd201ec8c41a90a976c73df3bee843ebfb1d5",
    ("A2,A2", (1, 3), (1, 0, 1, 0)):
        "9d4468a82cb0047d1c4a771ccfbf574f01755b64f71974f7e2435ca9a5f1f741",
    ("A1", (1,), (2,)): "1673cc9782bc814dabb045aefdd3f4a0db1dc548efc93709803d32bfc325d309",
    ("module", (1, 2), (3, 0)):
        "500d26d66931200dd3c061934a6df9bcd495f0500421fcc4579616950de56335",
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


def command_id(argv):
    # the first pinned run of a subcommand is named by it alone, later ones add
    # the type, and later runs on a type already named add its second option too
    same = sorted(a for a in COMMAND_SHA256 if a[0] == argv[0])
    if argv == same[0]:
        return argv[0]
    if argv == min(a for a in same if a[2] == argv[2]):
        return f"{argv[0]}-{argv[2]}"
    return f"{argv[0]}-{argv[2]}-{argv[3].lstrip('-')}{argv[4]}"


@pytest.mark.parametrize("argv", sorted(COMMAND_SHA256), ids=command_id)
def test_command_json(argv, capsys):
    assert main(["--format", "json", *argv]) == 0
    assert sha256(capsys.readouterr().out.encode()) == COMMAND_SHA256[argv]


@pytest.mark.parametrize("argv", sorted(TABLE_SHA256), ids=command_id)
def test_command_table(argv, capsys):
    assert argv in COMMAND_SHA256
    assert main(["--format", "table", *argv]) == 0
    assert sha256(capsys.readouterr().out.encode()) == TABLE_SHA256[argv]


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


@pytest.mark.parametrize("name,lam", sorted(WEIGHT_SYSTEM_SHA256, key=repr),
                         ids=lambda x: x if isinstance(x, str)
                         else "adjoint" if x is None else ",".join(map(str, x)))
def test_weight_system_order(name, lam):
    rs = parse_type(name)
    ws = weight_multiplicities(rs, rs.adjoint_weight() if lam is None else lam)
    assert sha256(repr(list(ws.items())).encode()) == WEIGHT_SYSTEM_SHA256[name, lam]


@pytest.mark.parametrize("name,lam", sorted(WEIGHT_CONTENT_SHA256, key=repr),
                         ids=lambda x: x if isinstance(x, str)
                         else "adjoint" if x is None else ",".join(map(str, x)))
def test_weight_system_content(name, lam):
    rs = parse_type(name)
    ws = weight_multiplicities(rs, rs.adjoint_weight() if lam is None else lam)
    assert sha256(repr(sorted(ws.items())).encode()) == WEIGHT_CONTENT_SHA256[name, lam]


def _coroots(rs):
    """Simple-coroot coordinates k_j = 2 c_j d_j / (alpha, alpha) of each
    positive root's coroot, (alpha, alpha) = sum_i c_i d_i <alpha, alpha_i^vee>
    up to the factor's scale, which cancels.  The package keeps no coroots,
    so they are made here from d and root_weights."""
    out = []
    for coords, weight in rs.root_weights.items():
        norm2 = sum(c * d * w for c, d, w in zip(coords, rs.d, weight))
        k = [2 * c * d for c, d in zip(coords, rs.d)]
        assert all(x % norm2 == 0 for x in k), coords
        out.append(tuple(x // norm2 for x in k))
    return out


@pytest.mark.parametrize("name", sorted(ROOT_DATA_SHA256))
def test_root_data(name):
    rs = parse_type(name)
    parts = [repr([(r.coords, r.factor, sum(r.coords), r.parent) for r in rs.positive_roots]),
             repr(list(rs.root_weights.items())), repr(_coroots(rs))]
    assert sha256("\n".join(parts).encode()) == ROOT_DATA_SHA256[name]


def _form(rs):
    """(form_den, form): (omega_i, omega_j) = (C^-1)_ji d_j / d_long(j), reduced.

    d_long(j) is the d of the long roots of node j's factor, so every
    highest root has squared length 2.  The package pairs through d alone
    and keeps no form, so it is made here from d and C^-1."""
    d_long = []
    for f, off in zip(rs.factors, rs.offsets):
        d_long += [max(rs.d[off:off + f.rank])] * f.rank
    scale = math.lcm(*d_long)
    form = [[rs.inverse_cartan_scaled[j][i] * rs.d[j] * (scale // d_long[j])
             for j in range(rs.rank)] for i in range(rs.rank)]
    den = rs.inverse_cartan_den * scale
    g = math.gcd(den, *(x for row in form for x in row))
    return den // g, [[x // g for x in row] for row in form]


@pytest.mark.parametrize("name", sorted(ROOT_FORM_SHA256))
def test_root_form(name):
    rs = parse_type(name)
    text = repr((rs.inverse_cartan_den, rs.inverse_cartan_scaled, *_form(rs)))
    assert sha256(text.encode()) == ROOT_FORM_SHA256[name]


@pytest.mark.parametrize("name,marked,lam", sorted(GRADED_WEIGHTS_SHA256),
                         ids=lambda x: x if isinstance(x, str) else ",".join(map(str, x)))
def test_graded_weights(name, marked, lam):
    if name == "module":
        h0, h1 = graded_weights(module_complex(ParabolicMarking(parse_type("A2"), set(marked)),
                                               lam))
    else:
        h0, h1 = gperp_weights(ParabolicMarking(parse_type(name), set(marked)), lam)
    text = repr((sorted(h0.items()), sorted(h1.items())))
    assert sha256(text.encode()) == GRADED_WEIGHTS_SHA256[name, marked, lam]


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


def stabilizer_case(name):
    if name == "segre_2x2":
        f2, n, a = segre_2x2()
        return dense_basis(f2, n, a, random.Random(0)), n, a
    f2, n, a = segre_1x2()
    dense = dense_basis(f2, n, a, random.Random(1))
    return [[[x * s for x in row] for row in M]
            for M, s in zip(dense, (Fraction(1, 2), Fraction(2, 3)))], n, a


@pytest.mark.parametrize("name", sorted(STABILIZER_SHA256))
def test_stabilizer_tableau_basis(name):
    t = stabilizer_and_tableau(*stabilizer_case(name)).tableau_r_perp
    assert sha256(json.dumps(tableau_to_json(t)).encode()) == STABILIZER_SHA256[name]
