"""Parabolic gradings of an algebra and of its modules.

The grading element of a marked Dynkin diagram slices g symmetrically about
degree zero and slices any module from its highest-weight line downward
(top degree renormalized to 0).  Two classical pictures:

  * the Grassmannian G(2,4) in its Pluecker embedding: module slices
    (1, 4, 1), matching the osculating sequence point / tangent / normal;
  * the adjoint variety of sl3: the depth-2 contact grading.
"""

from liecoh import ParabolicMarking, grade_algebra, grade_module, parse_type
from liecoh.grading import algebra_depth

print("G(2,4) = A3/P2 in P(Lambda^2 C^4):")
rs = parse_type("A3")
marking = ParabolicMarking(rs, {2})
print("  algebra grading:", grade_algebra(marking))
print("  module grading of V_omega2:", grade_module(marking, (0, 1, 0)))

print("\nadjoint variety of sl3 (full flag marking):")
rs = parse_type("A2")
marking = ParabolicMarking(rs, {1, 2})
print("  algebra grading:", grade_algebra(marking))
print("  module grading of the adjoint module:",
      grade_module(marking, (1, 1)))

print("\ndepth of every maximal parabolic of E6 "
      "(= marked coefficient of the highest root):")
rs = parse_type("E6")
z_values = []
for node in range(1, 7):
    marking = ParabolicMarking(rs, {node})
    z_values.append(algebra_depth(marking))
print("  nodes 1..6:", z_values)

print("\nthe grading element of G2/P2 evaluated on the simple roots:")
rs = parse_type("G2")
z = ParabolicMarking(rs, {2}).z
for j in range(2):
    alpha = rs.fund_coords_of_root(tuple(int(k == j) for k in range(2)))
    print(f"  Z(alpha_{j + 1}) = {z(alpha)}")
