"""H2-optimal model reduction of bilinear dynamical systems.

The package reduces bilinear state-space models by an interpolation-based
fixed-point iteration with exact or inexact (coupled two-sided BiCG)
linear solves, and quantifies the effect of inexactness through a full
backward-stability toolkit: the rank-2r backward perturbation of the
drift matrix, its a-priori bound, the lifted error-system perturbation
norm, and the model's condition number.
"""

from .linalg import (ConvergenceError, EigenDecomposition,
                     SingularMatrixError, SparseLU, eig_dense,
                     frobenius_norm, kron, orth, two_norm, unvec, vec)
from .models import (FlowModelParams, HeatModelParams, build_flow_model,
                     build_heat_model)
from .reduction import (BirkaConfig, BirkaResult, birka_step,
                        initialize_guess, realify_rotation, run_birka,
                        sieve_operator)
from .solvers import (IlutPreconditioner, KroneckerOperator, SolveReport,
                      bicg_dual_solve, build_ilut, direct_solve)
from .stability import (PerturbationF, StabilityReport, analyze_iteration,
                        condition_number, construct_perturbation, fhh_norm,
                        perturbation_bound, verify_backward_stability)
from .system import (BilinearSystem, GramianSolver, QHatDiagnostics,
                     assemble_qhat, error_system, gramian_operator, h2_error,
                     h2_norm_kron, h2_norm_lyap, qhat_diagnostics,
                     solve_generalized_lyapunov)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
