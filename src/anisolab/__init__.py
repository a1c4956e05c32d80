"""anisolab: a numerical laboratory for anisotropic singularly perturbed
elliptic and parabolic problems on tensor-product domains.

The package solves the scaled-diffusion problem and its dimension-reduced
limit with tensor Galerkin spaces, verifies the explicit error bounds and
convergence rates against closed-form oracles, and studies the associated
contraction flows and resolvents.
"""

from .spaces import (TensorDomain, BasisFamily1D, Q1Basis, SineBasis,
                     GalerkinSpace, Quadrature, build_space, eval_basis,
                     embedding_map, embedding_matrix)
from .coefficients import (ScalarField, as_field, CoefficientField,
                           ReactionSpec, SourceField, ConstantLedger,
                           compute_constants, HypothesisNotSatisfied)
from .assembly import (assemble_block_stiffness, assemble_limit_stiffness,
                       assemble_load, assemble_mass, seminorm_matrices,
                       assemble_system, AssembledProblem, project)
from .linsolve import (SolveResult, NonConvergenceError,
                       IndefiniteOperatorError, solve)
from .elliptic import (LIMIT, ProblemSpec, GalerkinSolution, galerkin_solve,
                       solve_linear, solve_semilinear, apriori_check, export_solution_csv)
from .diagnostics import (error_norms, rate_study, cea_check, ap_diagram,
                          difference_quotient_bound,
                          linear_reaction_rate_study, RateStudy,
                          APDiagramReport, fit_slope)
from .semigroup import (DiscreteGenerator, build_generator, EvolutionConfig, evolve,
                        resolvent_apply, resolvent_deviation,
                        semigroup_deviation_study,
                        tensor_semigroup_oracle_check, parabolic_convergence)

__version__ = "0.1.0"
