"""Exact-arithmetic computational Lie theory.

Root systems and parabolic gradings, weight/tensor combinatorics, the
g-perp decomposition of sl(U), graded Lie algebra cohomology H^1(g_-, .)
with a combinatorial route and an explicit-matrix oracle, the linear
algebra of Cartan's involutivity test for linear Pfaffian systems, and the
universal dimension formulas in (alpha, beta, gamma) parameters.  All
computations are over exact rationals; nothing here ever rounds.
"""

from .cohomology import (CohomologyReport, GradedComplex, H1Piece,
                         InternalCheckError, direct_h1, gperp_direct_h1,
                         graded_h1, h1_report, kostant_h1, levi_weyl_dim)
from .driver import (RigidityVerdict, ScenarioSpec, adjoint_scenario,
                     run_scenario, scenario_from_json, scenario_to_json,
                     verdict_to_json)
from .grading import (GradingElementValue, ParabolicMarking, algebra_depth,
                      grade_algebra, grade_module)
from .repthy import (DEFAULT_ORACLE_BOUND, IrrComponent, RepMatrices,
                     construct_rep, gperp_decompose, root_vector_matrices,
                     structure_constants, tensor_decompose,
                     weight_multiplicities)
from .rootsys import RootSystem, SimpleFactor, build, parse_type
from .tableau import (InvolutivityReport, StabilizerPair, Tableau,
                      cartan_characters, cauchy_riemann_tableau, full_tableau,
                      is_involutive, prolong, prolongation_dim,
                      reduced_prolongation,
                      stabilizer_and_tableau, torsion_quotient_dim,
                      zero_tableau)
from .vogel import (DegenerateParameters, VogelParams, dim_g, dim_y2, dim_y3,
                    dim_yk, rational_binomial)

__all__ = [name for name in dir() if not name.startswith("_")]
