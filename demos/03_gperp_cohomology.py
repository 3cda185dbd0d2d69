"""The g-perp module and its graded cohomology, two ways.

For U = V_lambda the complement of g inside sl(U) is the coefficient module
whose H^1(g_-, .) controls rigidity.  The combinatorial route reads each
irreducible component off the marked simple reflections; the oracle route
assembles the actual differentials as exact matrices.  They must agree
degree by degree, and do.
"""

from liecoh import (IrrComponent, ParabolicMarking, direct_h1,
                    gperp_decompose, gperp_direct_h1, kostant_h1, parse_type)

rs = parse_type("A2")
marking = ParabolicMarking(rs, {1, 2})
lam = (1, 1)  # adjoint module: U = sl3, the flag variety in P(sl3)

print("g-perp components for sl3 acting on itself:")
for comp in gperp_decompose(rs, lam):
    print(f"  V_{list(comp.highest_weight)}  x{comp.multiplicity}"
          f"  dim {rs.weyl_dim(comp.highest_weight)}")

print("\nH^1(g_-, component) per component, combinatorial vs direct:")
for comp in gperp_decompose(rs, lam):
    pieces = kostant_h1(marking, comp)
    combi = {}
    for piece in pieces:
        combi[piece.degree] = combi.get(piece.degree, 0) + piece.dimension
    oracle = direct_h1(marking, comp.highest_weight)
    tag = "ok" if combi == oracle else "MISMATCH"
    print(f"  V_{list(comp.highest_weight)}: {combi}  oracle {oracle}  [{tag}]")

print("\nwhole g-perp at once, straight from matrices inside sl(8):")
print(" ", gperp_direct_h1(marking, lam))
print("the degree-1 classes stop the H^1 criterion from certifying order two;")
print("whether F(1,2;3) in P^7 is rigid at order two is open.")
