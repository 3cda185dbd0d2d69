import importlib.util
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecoh import cohomology, linalg
from liecoh.cohomology import (GradedComplex, H1Piece, InternalCheckError,
                               direct_h1, gperp_complex, gperp_direct_h1,
                               graded_h1, h1_report, kostant_h1,
                               levi_weyl_dim, module_complex, negative_roots)
from liecoh.grading import ParabolicMarking
from liecoh.repthy import (DEFAULT_ORACLE_BOUND, IrrComponent,
                           structure_constants, weight_multiplicities)
from liecoh.rootsys import RootSystem, parse_type


def aggregate(pieces):
    out = {}
    for p in pieces:
        out[p.degree] = out.get(p.degree, 0) + p.dimension
    return dict(sorted(out.items()))


def h0_by_degree(cx):
    """Per-degree dims of H^0, summed from the weights of graded_weights."""
    out = {}
    for (deg, _), k in cohomology.graded_weights(cx)[0].items():
        out[deg] = out.get(deg, 0) + k
    return dict(sorted(out.items()))


def test_a1_v4_single_piece_degree_3():
    rs = parse_type("A1")
    marking = ParabolicMarking(rs, {1})
    pieces = kostant_h1(marking, IrrComponent((4,)))
    assert len(pieces) == 1
    piece = pieces[0]
    assert piece.dimension == 1
    assert piece.degree == 3
    assert piece.levi_highest_weight == (6,)
    assert direct_h1(marking, (4,)) == {3: 1}


def test_trivial_coefficients():
    # H^1(g_-, C) = (g_-1)^*: degree 1, one Levi piece per marked node
    for name, marked, expected_dim in [("A2", {1}, 2), ("A2", {1, 2}, None),
                                       ("B2", {1}, 3), ("G2", {2}, 4)]:
        rs = parse_type(name)
        marking = ParabolicMarking(rs, marked)
        pieces = kostant_h1(marking, IrrComponent(tuple([0] * rs.rank)))
        assert len(pieces) == len(marked)
        assert all(p.degree == 1 for p in pieces)
        got = direct_h1(marking, tuple([0] * rs.rank))
        assert got == aggregate(pieces)
        if expected_dim is not None:
            assert sum(p.dimension for p in pieces) == expected_dim


def test_a2_27_all_pieces_nonpositive_degree():
    rs = parse_type("A2")
    pieces = kostant_h1(ParabolicMarking(rs, {1, 2}), IrrComponent((2, 2)))
    assert pieces and all(p.degree <= 0 for p in pieces)
    assert aggregate(pieces) == {-1: 2}


ORACLE_FIXTURES = [
    ("A1", {1}, (2,)),
    ("A1", {1}, (4,)),
    ("A1", {1}, (6,)),
    ("A2", {1, 2}, (1, 1)),
    ("A2", {1, 2}, (3, 0)),
    ("A2", {1, 2}, (0, 3)),
    ("A2", {1, 2}, (2, 2)),
    ("A1,A1", {1, 2}, (2, 2)),
    ("A1,A1", {1, 2}, (4, 2)),
    ("A1,A1", {1, 2}, (2, 0)),
    # a deeper parabolic and a non-full marking
    ("A2", {1}, (1, 1)),
    ("A3", {2}, (1, 0, 1)),
    ("C2", {1}, (0, 1)),
    ("G2", {2}, (1, 0)),
    # modules whose Z-degrees are fractions: 3/2, 2/3, 1/2, 1/2 and 1/3
    ("A1", {1}, (1,)),
    ("A2", {1}, (1, 0)),
    ("B3", {3}, (0, 0, 1)),
    ("A3", {2}, (1, 0, 0)),
    ("E6", {1}, (1, 0, 0, 0, 0, 0)),
]


@pytest.mark.parametrize("name,marked,gamma", ORACLE_FIXTURES)
def test_kostant_equals_direct_oracle(name, marked, gamma):
    rs = parse_type(name)
    assert rs.weyl_dim(gamma) <= 30
    marking = ParabolicMarking(rs, marked)
    pieces = kostant_h1(marking, IrrComponent(gamma))
    assert direct_h1(marking, gamma) == aggregate(pieces)


def _lower(weight, depth):
    return tuple(x - y for x, y in zip(weight, depth))


def _add(weight, depth):
    return tuple(x + y for x, y in zip(weight, depth))


def _check_blocks(cx):
    """Every block of cx.act maps its source slice into its target slice.

    The blocks of a source weight come in increasing a and none is zero;
    each has one column map per source vector, inside the target slice.
    """
    for s, pairs in cx.act.items():
        assert [a for a, _ in pairs] == sorted({a for a, _ in pairs})
        for a, block in pairs:
            assert any(block) and len(block) == cx.slices[s]
            target = cx.slices[_lower(s, cx.depths[a])]
            assert all(0 <= r < target for col in block for r in col)


def test_degree_additivity_of_action_blocks():
    # module_complex grades V_gamma by weight and checks every root vector
    # entry against it; x_a lowers the Z-degree by the degree of its root,
    # Z(depths[a]).  Exercise a depth-2 case
    rs = parse_type("A2")
    marking = ParabolicMarking(rs, {1, 2})
    cx = module_complex(marking, (2, 2))
    assert cx.depths == [(-1, 2), (2, -1), (1, 1)]
    assert [marking.z(i) for i in cx.depths] == [1, 1, 2]
    _check_blocks(cx)


def test_d1_after_d0_vanishes_everywhere():
    # graded_h1 raises InternalCheckError if d1 . d0 != 0 in any slice;
    # run several instances and verify it stays silent
    for name, marked, gamma in ORACLE_FIXTURES[:8]:
        rs = parse_type(name)
        direct_h1(ParabolicMarking(rs, marked), gamma)


def test_broken_complex_is_rejected():
    rs = parse_type("A2")
    cx = module_complex(ParabolicMarking(rs, {1, 2}), (1, 1))
    # corrupt one bracket constant; d1 . d0 = 0 must now fail somewhere
    (a, b), = [k for k in cx.brackets if cx.brackets[k]][:1]
    c, coeff = next(iter(cx.brackets[(a, b)].items()))
    cx.brackets[(a, b)][c] = coeff + 1
    with pytest.raises(InternalCheckError):
        graded_h1(cx)


def test_h0_euler_bookkeeping():
    # rank d0_d + dim H^0_d = dim Gamma_d in every degree
    rs = parse_type("A2")
    marking = ParabolicMarking(rs, {1, 2})
    cx = module_complex(marking, (3, 0))
    # H^0 of an irreducible is the dual of the top Levi constituent: here the
    # lowest weight line of V(3,0), which g_- kills, in degree -3
    assert h0_by_degree(cx) == {-3: 1}


def test_kunneth_on_segre():
    marking = ParabolicMarking(parse_type("A1,A1"), {1, 2})
    m1 = ParabolicMarking(parse_type("A1"), {1})
    h1s = direct_h1(m1, (2,))
    h0s = h0_by_degree(module_complex(m1, (2,)))
    # product H^1 = H^1 (x) H^0 + H^0 (x) H^1
    expect = {}
    for d1, n1 in h1s.items():
        for d0, n0 in h0s.items():
            expect[d1 + d0] = expect.get(d1 + d0, 0) + 2 * n1 * n0  # both orders
    got = direct_h1(marking, (2, 2))
    assert got == expect
    pieces = kostant_h1(marking, IrrComponent((2, 2)))
    assert aggregate(pieces) == expect


def test_levi_weyl_dim():
    rs = parse_type("A2")
    marking = ParabolicMarking(rs, {1})
    # Levi is the A1 at node 2: weight with second coordinate 2 is 3-dim
    assert levi_weyl_dim(marking, (-2, 2)) == 3
    with pytest.raises(ValueError):
        levi_weyl_dim(marking, (0, -1))


@pytest.mark.parametrize("weight", [(1,), (1, 0, 0), (1, 0, 5)])
def test_kostant_route_rejects_a_weight_of_the_wrong_length(weight):
    # zip and sliced blocks would truncate such a weight without a word
    rs = parse_type("A2")
    for marked in ({1}, {2}, {1, 2}):
        marking = ParabolicMarking(rs, marked)
        for call in (lambda: kostant_h1(marking, IrrComponent(weight)),
                     lambda: levi_weyl_dim(marking, weight)):
            with pytest.raises(ValueError, match="wrong length; the rank is 2"):
                call()


def test_gperp_oracle_a2_adjoint():
    rs = parse_type("A2")
    got = gperp_direct_h1(ParabolicMarking(rs, {1, 2}), (1, 1))
    assert got == {-2: 2, -1: 2, 0: 2, 1: 2}


def test_gperp_oracle_segre():
    rs = parse_type("A1,A1")
    got = gperp_direct_h1(ParabolicMarking(rs, {1, 2}), (1, 1))
    assert got == {1: 2}


def test_gperp_complex_dimension_bookkeeping():
    rs = parse_type("A1")
    cx = gperp_complex(ParabolicMarking(rs, {1}), (2,))
    assert sum(cx.slices.values()) == 9 - 1 - 3


def test_h1_report_verdicts():
    rs = parse_type("A1")
    marking = ParabolicMarking(rs, {1})
    rep = h1_report(marking, (2,), -1, oracle=True)
    assert rep.verdict == "INCONCLUSIVE"
    assert len(rep.offending) == 1
    _, mult, piece = rep.offending[0]
    assert piece.degree == 3 and piece.dimension == 1 and mult == 1
    rep = h1_report(marking, (2,), 2, oracle=True)
    assert rep.verdict == "RIGID"
    assert rep.oracle_ran


def test_h1_report_oracle_skip_note():
    rs = parse_type("A2")
    rep = h1_report(ParabolicMarking(rs, {1, 2}), (2, 2), 0, oracle=True, bound=10)
    assert not rep.oracle_ran
    assert "skipped" in rep.oracle_note
    assert "dim U = 27" in rep.oracle_note


def test_h1_report_without_a_bound_runs_the_oracle():
    rs = parse_type("A2")
    rep = h1_report(ParabolicMarking(rs, {1, 2}), (2, 2), 0, oracle=True, bound=None)
    assert rep.oracle_ran
    assert rep.aggregate == h1_report(ParabolicMarking(rs, {1, 2}), (2, 2), 0).aggregate


def test_h1_report_rejects_bad_p():
    rs = parse_type("A1")
    with pytest.raises(ValueError):
        h1_report(ParabolicMarking(rs, {1}), (2,), -2)


def test_h1_report_validates_the_weight():
    # the stabilizer of [v_lam] has marking supp lam, so no other marking is
    # a variety: the checks run_scenario relies on
    rs = parse_type("A2")
    with pytest.raises(ValueError, match="not dominant"):
        h1_report(ParabolicMarking(rs, {1}), (1, -1), 0)
    with pytest.raises(ValueError, match="length"):
        h1_report(ParabolicMarking(rs, {1}), (1,), 0)
    for marked, weight in [({1}, (1, 1)), ({1, 2}, (1, 0))]:
        with pytest.raises(ValueError, match="support"):
            h1_report(ParabolicMarking(rs, marked), weight, -1, oracle=True)


def test_kostant_rejects_non_dominant():
    rs = parse_type("A2")
    with pytest.raises(ValueError):
        kostant_h1(ParabolicMarking(rs, {1}), IrrComponent((1, -1)))


def test_kostant_checks_its_reflected_weights_are_levi_dominant(monkeypatch):
    # sigma_i . mu* is Levi-dominant for dominant mu; a weight that is not
    # would silently lose an H^1 piece, so it must raise
    real = RootSystem.affine_action

    def broken(self, i, weight):
        w = real(self, i, weight)
        return w[:1] + (-1,) + w[2:]

    monkeypatch.setattr(RootSystem, "affine_action", broken)
    with pytest.raises(InternalCheckError, match="not Levi-dominant"):
        kostant_h1(ParabolicMarking(parse_type("A2"), {1}), IrrComponent((1, 1)))


def test_graded_h1_degree_check_survives_optimize():
    # [x_0, x_1] = x_2 with all three of the A1 root weight (2,) breaks
    # additivity: x_0 and x_1 together lower the weight by (4,).  python -O
    # strips asserts, so the check must be an explicit raise
    script = """
from liecoh.cohomology import GradedComplex, InternalCheckError, graded_h1
from liecoh.grading import ParabolicMarking
from liecoh.rootsys import parse_type
# the slices of V(2), on which every block is left zero
cx = GradedComplex({(w,): 1 for w in (-2, 0, 2)}, [(2,)] * 3, {}, {(0, 1): {2: 1}},
                   ParabolicMarking(parse_type("A1"), {1}))
try:
    print(graded_h1(cx))
except InternalCheckError as e:
    print(e)
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == (
        "bracket [x_0, x_1] has x_2 of the wrong grade: x_2 lowers degree 1, weight "
        "(2,), x_0 and x_1 together degree 2, weight (4,)")


# oracle reach: the weight-graded complex decides these within the default bound
ORACLE_REACH = [
    ("D5", {5}, (0, 0, 0, 0, 1), {0: 175}),
    ("G2", {2}, (0, 1), {-2: 7, -1: 16}),
    ("E6", {1}, (1, 0, 0, 0, 0, 0), {0: 1050}),
]


@pytest.mark.parametrize("name,marked,lam,expected", ORACLE_REACH)
def test_oracle_reach(name, marked, lam, expected):
    rs = parse_type(name)
    assert rs.weyl_dim(lam) <= DEFAULT_ORACLE_BOUND
    rep = h1_report(ParabolicMarking(rs, marked), lam, -1, oracle=True)
    assert rep.oracle_ran
    assert rep.aggregate == expected


# above it: E7/P7, dim U = 56, where W_0 = W(E6), so the oracle ranks 27
# dominant grades of 939 slices; and the E6 and E7 adjoints, dim U = 78 and
# 133, unbounded
ORACLE_REACH_LIFTED = [
    ("E7", {7}, (0, 0, 0, 0, 0, 0, 1), 56, {-1: 351, 0: 3003}),
    ("E6", {2}, (0, 1, 0, 0, 0, 0), None, {-2: 175, -1: 1520}),
    ("E7", {1}, (1, 0, 0, 0, 0, 0, 0), None, {-2: 462, -1: 5952}),
]


def test_oracle_reach_above_the_default_bound():
    for name, marked, lam, bound, expected in ORACLE_REACH_LIFTED:
        rs = parse_type(name)
        assert rs.weyl_dim(lam) > DEFAULT_ORACLE_BOUND
        rep = h1_report(ParabolicMarking(rs, marked), lam, -1, oracle=True, bound=bound)
        assert rep.oracle_ran, name
        assert rep.aggregate == expected, name


def test_oracle_blocks_are_eliminated_sparsest_column_first(monkeypatch):
    # a work count, not a timing: the row updates of the whole E6 adjoint
    # oracle, 11,457 when each block was eliminated in its assembly's
    # column order
    calls = 0
    real = linalg._eliminate

    def counted(row, piv, c):
        nonlocal calls
        calls += 1
        real(row, piv, c)
    monkeypatch.setattr(linalg, "_eliminate", counted)
    rep = h1_report(ParabolicMarking(parse_type("E6"), {2}), (0, 1, 0, 0, 0, 0), -1,
                    oracle=True, bound=None)
    assert rep.oracle_ran
    assert calls <= 3_000


def test_gperp_complex_is_graded_by_degree_and_weight():
    # graded by weight, and every slice of g-perp has an integral Z-degree
    rs = parse_type("A2")
    marking = ParabolicMarking(rs, {1, 2})
    cx = gperp_complex(marking, (1, 1))
    assert all(marking.z(weight).denominator == 1 for weight in cx.slices)
    assert cx.depths == [(-1, 2), (2, -1), (1, 1)]
    _check_blocks(cx)


def test_bench_cochain_dim_reads_the_complex(monkeypatch):
    # bench/tracer.py's cohomology.graded_h1.cochain_dim counter reads
    # cx.slices and cx.depths; a renamed field would silently empty it.  The
    # tracer is loaded from its file, writing no bytecode beside it
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(tracer)
    cx = gperp_complex(ParabolicMarking(parse_type("A2"), {1, 2}), (1, 1))
    # 55 = dim g-perp, times 1 + 3 + 3 for C^0, C^1 and C^2 over three roots
    assert tracer._cochain_dim(cx) == 385


# both complexes have a scaled g_- basis, L > 1; on C2 (1,1) construct_rep's
# matrices already have denominators (3), so its complex cannot be built
# over Z without the scale
MUTATED = [("A2", (1, 1)), ("C2", (1, 1))]


def test_broken_gperp_complex_is_rejected():
    for name, lam in MUTATED:
        cx = gperp_complex(ParabolicMarking(parse_type(name), {1, 2}), lam)
        (a, b), = [k for k in cx.brackets if cx.brackets[k]][:1]
        c, coeff = next(iter(cx.brackets[(a, b)].items()))
        cx.brackets[(a, b)][c] = coeff + 1
        # the message names the Z-degree and the torus weight separately
        with pytest.raises(InternalCheckError,
                           match=r"d1 \. d0 != 0 in degree -?\d+, weight \(-?\d+, -?\d+\)"):
            graded_h1(cx)


def test_wrong_grade_bracket_names_degree_and_weight():
    rs = parse_type("A2")
    cx = gperp_complex(ParabolicMarking(rs, {1, 2}), (1, 1))
    # [x_0, x_1] = x_2 is right; x_0 in its place has the wrong weight
    assert cx.brackets[(0, 1)]
    cx.brackets[(0, 1)] = {0: 1}
    with pytest.raises(InternalCheckError,
                       match=r"wrong grade: .*degree 1, weight \(-?\d+, -?\d+\)"):
        graded_h1(cx)


def test_root_vector_of_wrong_weight_is_rejected(monkeypatch):
    real = cohomology.root_vector_matrices

    def broken(rep):
        emat, fmat = real(rep)
        f = fmat[(1, 0)]
        f[(0, 0)] = f.get((0, 0), 0) + 1  # a diagonal entry has weight 0, not -alpha_1
        return emat, fmat

    monkeypatch.setattr(cohomology, "root_vector_matrices", broken)
    for build in (gperp_complex, module_complex):
        with pytest.raises(InternalCheckError, match="left the graded range"):
            build(ParabolicMarking(parse_type("A2"), {1, 2}), (1, 1))


def test_action_leaving_gperp_is_rejected(monkeypatch):
    real_bracket_with = cohomology.repthy.bracket_with
    real_complex = cohomology._complex

    def broken(A):
        bracket = real_bracket_with(A)

        def doubled(B):
            # double one entry of [f, B]: still in the right weight slice, but
            # no longer trace-orthogonal to g
            C = bracket(B)
            if len(C) > 1:
                C[min(C)] *= 2
            return C
        return doubled

    for name, lam in MUTATED:
        with monkeypatch.context() as patch:
            def complex_with_broken_action(*args):
                # g and the g-perp basis are built by now; only the action is broken
                patch.setattr(cohomology.repthy, "bracket_with", broken)
                return real_complex(*args)

            patch.setattr(cohomology, "_complex", complex_with_broken_action)
            with pytest.raises(InternalCheckError, match="left g-perp"):
                gperp_complex(ParabolicMarking(parse_type(name), {1, 2}), lam)


def test_d1_is_ranked_only_off_the_pivots_of_d0(monkeypatch):
    # a work count, not a timing: the rows of d1 handed to the elimination
    # core on C2 V(1,1) marked {1, 2}, which were all 980 rows of d1 before
    # the rows at the pivot columns of d0 were left out
    cx = gperp_complex(ParabolicMarking(parse_type("C2"), {1, 2}), (1, 1))
    sizes = []
    real = linalg.pivot_columns

    def counted(matrix):
        sizes.append(len(matrix))
        return real(matrix)
    monkeypatch.setattr(linalg, "pivot_columns", counted)
    cohomology.graded_weights(cx)
    # each grade takes the pivots of d0's rows, then of d1's rows off them
    assert len(sizes) == 2 * len(cx.dominant_grades)
    rows = sizes[1::2]
    assert sum(rows) == 743


def test_oracle_converts_no_integers_twice(monkeypatch):
    # a work guard on C2 V(1,1) marked {1, 2}: the g-perp slices are read off
    # as integer vectors (linalg makes no Fraction, test_linalg's scan), and
    # the d0 and d1 rows, maps of ints already, reach the elimination without
    # a pass through integer_rows
    marking = ParabolicMarking(parse_type("C2"), {1, 2})
    cx = gperp_complex(marking, (1, 1))
    scaled = []
    real = linalg.integer_rows

    def counted(rows):
        rows = list(rows)
        scaled.extend(rows)
        return real(rows)
    monkeypatch.setattr(linalg, "integer_rows", counted)
    h0, h1 = cohomology.graded_weights(cx)
    assert h1 and not scaled


def _scale_of(marking, cx):
    """The integer L with cx.brackets = L times the f_alpha bracket constants."""
    old = structure_constants(marking.rs, negative_roots(marking))
    ratios = {Fraction(cx.brackets[pair][c], coeff)
              for pair, terms in old.items() for c, coeff in terms.items() if coeff}
    assert len(ratios) == 1
    L, = ratios
    assert L.denominator == 1
    assert cx.brackets == {pair: {c: L * coeff for c, coeff in terms.items()}
                           for pair, terms in old.items()}
    return L


def _all_ints(cx):
    return (all(type(x) is int for pairs in cx.act.values() for _, block in pairs
                for col in block for x in col.values())
            and all(type(x) is int for terms in cx.brackets.values() for x in terms.values()))


@pytest.mark.parametrize("build,name,lam", [(gperp_complex, "C2", (1, 1)),
                                            (module_complex, "A2", (2, 1))])
def test_oracle_complex_is_integral_and_scale_invariant(build, name, lam):
    rs = parse_type(name)
    marking = ParabolicMarking(rs, {1, 2})
    cx = build(marking, lam)
    assert _all_ints(cx)
    L = _scale_of(marking, cx)
    assert L > 1
    # the same complex in the f_alpha basis of g_-: act and brackets over L
    unscaled = GradedComplex(
        cx.slices, cx.depths,
        {s: [(a, [{r: x / L for r, x in col.items()} for col in block]) for a, block in pairs]
         for s, pairs in cx.act.items()},
        {pair: {c: x / L for c, x in terms.items()} for pair, terms in cx.brackets.items()},
        cx.marking)
    assert not _all_ints(unscaled)
    assert graded_h1(cx) == graded_h1(unscaled)
    assert h0_by_degree(cx) == h0_by_degree(unscaled)


def test_bracket_constants_alone_can_set_the_scale():
    # on the trivial module every action matrix is zero, so only the F4
    # bracket constants (some of them halves) ask for L = 2
    rs = parse_type("F4")
    marking = ParabolicMarking(rs, {1, 2, 3, 4})
    cx = module_complex(marking, (0, 0, 0, 0))
    assert _all_ints(cx)
    assert _scale_of(marking, cx) == 2
    pieces = kostant_h1(marking, IrrComponent((0, 0, 0, 0)))
    assert graded_h1(cx) == aggregate(pieces) == {1: 4}


def _small_triples():
    """(type, lambda) with every factor acting faithfully and 2 <= dim U <= 10."""
    out = []
    for name in ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2",
                 "A1,A1", "A1,A2", "A1,A1,A1"):
        rs = parse_type(name)
        for lam in itertools.product(range(5), repeat=rs.rank):
            faithful = all(any(lam[o:o + f.rank]) for o, f in zip(rs.offsets, rs.factors))
            if faithful and 2 <= rs.weyl_dim(lam) <= 10:
                out.append((name, lam))
    return out


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(_small_triples()))
def test_kostant_equals_gperp_oracle_on_small_triples(triple):
    name, lam = triple
    rs = parse_type(name)
    marking = ParabolicMarking(rs, {i + 1 for i, x in enumerate(lam) if x})
    kostant = h1_report(marking, lam, -1).aggregate
    assert gperp_direct_h1(marking, lam) == kostant


# ---------- W_0-equivariance: rank only the Levi-dominant blocks ----------

def _full_complex(build, marking, lam):
    """The complex with every action block built, as for a Borel marking.

    The builders read rs, z, root_degrees and unmarked off a marking; this
    stand-in keeps the first three and has no Levi nodes, so every grade is
    ranked.  It has no Levi roots either, so nothing can read a Levi that
    contradicts unmarked.
    """
    borel = SimpleNamespace(rs=marking.rs, z=marking.z, root_degrees=marking.root_degrees,
                            unmarked=())
    cx = build(borel, lam)
    assert cx.marking.unmarked == ()
    return cx


def _block_count(cx):
    return sum(map(len, cx.act.values()))


def _block_dims(cx, grade):
    """(dim H^0, dim H^1) in one grade of a complete complex, from dense d0, d1.

    (d0 X)(x_a) = x_a . X and (d1 phi)(x_b, x_c) = x_b . phi(x_c) -
    x_c . phi(x_b) - phi([x_b, x_c]).
    """
    depths, slices = cx.depths, cx.slices
    c1 = [(a, r) for a, i in enumerate(depths) if _lower(grade, i) in slices
          for r in range(slices[_lower(grade, i)])]
    col1 = {coord: k for k, coord in enumerate(c1)}
    c2 = {}
    for b, c in itertools.combinations(range(len(depths)), 2):
        t = _lower(_lower(grade, depths[b]), depths[c])
        for r in range(slices.get(t, 0)):
            c2[(b, c, r)] = len(c2)
    n0 = slices.get(grade, 0)
    d0 = [[0] * n0 for _ in c1]
    for a, block in cx.act.get(grade, ()):
        for v in range(n0):
            for r, x in block[v].items():
                d0[col1[(a, r)]][v] += x
    d1 = [[0] * len(c1) for _ in c2]
    for (a, r), k in col1.items():
        s = _lower(grade, depths[a])
        for other, block in cx.act.get(s, ()):
            if other != a:
                b, c, sign = (other, a, 1) if other < a else (a, other, -1)
                for r2, x in block[r].items():
                    d1[c2[(b, c, r2)]][k] += sign * x
        for (b, c), terms in cx.brackets.items():
            if terms.get(a):
                d1[c2[(b, c, r)]][k] -= terms[a]
    rank0 = linalg.rank(d0) if c1 and n0 else 0
    rank1 = linalg.rank(d1) if c1 and c2 else 0
    return n0 - rank0, len(c1) - rank1 - rank0


def _sweep(cx):
    """{weight: (dim H^0, dim H^1)} over every grade of a complete complex."""
    grades = set(cx.slices) | {_add(s, i) for s in cx.slices for i in cx.depths}
    return {d: _block_dims(cx, d) for d in sorted(grades)}


def _by_degree(z, sweep, k):
    out = {}
    for w, dims in sweep.items():
        if dims[k]:
            out[z(w)] = out.get(z(w), 0) + dims[k]
    return dict(sorted(out.items()))


# non-Borel markings: W_0 is W(A2) for B3/P3 and W(A1 x A2) for A4/P2
W0_CASES = [(gperp_complex, "B3", {3}, (0, 0, 1)),
            (gperp_complex, "A4", {2}, (0, 1, 0, 0)),
            (module_complex, "A3", {2}, (1, 0, 1))]


@pytest.mark.parametrize("build,name,marked,lam", W0_CASES[:2])
def test_non_dominant_block_equals_its_dominant_representative(build, name, marked, lam):
    rs = parse_type(name)
    marking = ParabolicMarking(rs, marked)
    unmarked = marking.unmarked
    sweep = _sweep(_full_complex(build, marking, lam))
    grade = next(d for d, (_, h1) in sweep.items()
                 if h1 and any(d[j] < 0 for j in unmarked))
    # the one W_0-dominant weight whose W_0-orbit holds grade
    dominant, = {w for w in sweep
                 if all(w[j] >= 0 for j in unmarked) and grade in rs.orbit(w, unmarked)}
    assert dominant != grade
    assert sweep[dominant] == sweep[grade]


@pytest.mark.parametrize("build,name,marked,lam", W0_CASES)
def test_reduced_oracle_equals_the_full_sweep(build, name, marked, lam):
    marking = ParabolicMarking(parse_type(name), marked)
    full = _full_complex(build, marking, lam)
    sweep = _sweep(full)
    cx = build(marking, lam)
    # the reduced complex builds fewer action blocks and ranks fewer grades
    assert cx.marking.unmarked and _block_count(cx) < _block_count(full)
    assert len(cx.dominant_grades) < len(sweep)
    z = marking.z
    h1, h0 = graded_h1(cx), h0_by_degree(cx)
    assert h1 == _by_degree(z, sweep, 1) and h1
    assert h0 == _by_degree(z, sweep, 0)
    # weight by weight too, on every grade
    h0w, h1w = cohomology.graded_weights(cx)
    assert h1w == {(z(w), w): dims[1] for w, dims in sweep.items() if dims[1]}
    assert h0w == {(z(w), w): dims[0] for w, dims in sweep.items() if dims[0]}


def test_borel_marking_builds_every_block(monkeypatch):
    # W_0 = 1 ranks every grade, so _complex computes the block of every root
    # vector on every slice, and act keeps exactly the nonzero ones
    built = []
    real = cohomology._complex

    def recording(marking, g, basis, image, den):
        def recorded_image(f):
            action = image(f)

            def recorded(vectors, weight):
                block = action(vectors, weight)
                built.append(any(block))
                return block
            return recorded
        return real(marking, g, basis, recorded_image, den)
    monkeypatch.setattr(cohomology, "_complex", recording)
    rs = parse_type("A2")
    cx = gperp_complex(ParabolicMarking(rs, {1, 2}), (1, 1))
    assert cx.marking.unmarked == ()
    assert len(built) == len(cx.depths) * len(cx.slices)
    assert _block_count(cx) == sum(built) > 0
    _check_blocks(cx)
    assert len(cx.dominant_grades) == len(
        set(cx.slices) | {_add(s, i) for s in cx.slices for i in cx.depths})


# ---------- the oracle's g_0 pieces against Kostant's, as stored ----------

PIECE_CASES = [("A2", {1, 2}, (1, 1)),        # the adjoint variety, Borel
               ("A1,A1", {1, 2}, (1, 1)),     # Seg(P1 x P1)
               ("A3", {2}, (0, 1, 0))]        # the Grassmannian G(2, 4)


def _kostant_pieces(report):
    out = {}
    for _, mult, piece in report.pieces:
        key = (piece.degree, piece.levi_highest_weight)
        out[key] = out.get(key, 0) + mult
    return out


@pytest.mark.parametrize("name,marked,lam", PIECE_CASES)
def test_oracle_pieces_equal_kostant_as_stored(name, marked, lam):
    rs = parse_type(name)
    marking = ParabolicMarking(rs, marked)
    kostant = _kostant_pieces(h1_report(marking, lam, -1))
    cx = gperp_complex(marking, lam)
    _, h1 = cohomology.graded_weights(cx)
    folded = cohomology.levi_pieces(marking, h1)
    assert folded == kostant
    # the g_0-dual of every piece is a different multiset, so this pins the
    # convention: the oracle's highest weight is levi_highest_weight itself
    dual = {}
    for (deg, w), k in kostant.items():
        key = (deg, tuple(-x for x in cohomology.levi_lowest(marking, w)))
        dual[key] = dual.get(key, 0) + k
    assert dual != kostant


WRONG_PIECE_SCRIPT = """
import dataclasses
from liecoh import cohomology
from liecoh.grading import ParabolicMarking
from liecoh.rootsys import parse_type

real = cohomology.kostant_h1
marking = ParabolicMarking(parse_type("A3"), {2})

def wrong(marking, gamma):
    # the g_0-dual of each piece: same degree and dimension, wrong weight
    return [dataclasses.replace(p, levi_highest_weight=tuple(
                -x for x in cohomology.levi_lowest(marking, p.levi_highest_weight)))
            for p in real(marking, gamma)]

cohomology.kostant_h1 = wrong
try:
    cohomology.h1_report(marking, (0, 1, 0), -1, oracle=True)
    print("passed")
except cohomology.InternalCheckError as e:
    print(e)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_wrong_kostant_piece_is_rejected(flags):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run([sys.executable, *flags, "-c", WRONG_PIECE_SCRIPT],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    # the per-degree totals still agree; only the piece comparison can catch it
    assert out.stdout.startswith("combinatorial H^1 pieces "), out.stdout


def test_gperp_faithfulness_check_fires():
    # the second A1 acts trivially on V(1) x V(0), so g is not represented
    with pytest.raises(InternalCheckError, match="not faithful"):
        gperp_complex(ParabolicMarking(parse_type("A1,A1"), {1}), (1, 0))


def test_gperp_trace_row_premise_is_checked(monkeypatch):
    real = cohomology.construct_rep

    def traced(rs, lam, bound):
        rep = real(rs, lam, bound)
        rep.h[0][(0, 0)] = rep.h[0].get((0, 0), 0) + 1  # weight 0, but not traceless
        return rep

    monkeypatch.setattr(cohomology, "construct_rep", traced)
    with pytest.raises(InternalCheckError, match="bookkeeping"):
        gperp_complex(ParabolicMarking(parse_type("A2"), {1, 2}), (1, 1))
