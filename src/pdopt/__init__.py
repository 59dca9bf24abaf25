"""pdopt: primal-dual first-order solvers with non-diagonal preconditioning."""

from .operators import (DimensionMismatchError, Div2D, Grad2D, InvalidWeightsError,
                        LinearOperator, OrderingError, SparseOp, StackedOp,
                        WeightedGrad2D, block_gram, op_norm_sq_estimate)
from .prox import (BoxIndicator, Concat, GroupL12, L1, LinearPlusBox,
                   PointIndicator, ProxFunction, Quadratic,
                   UnsupportedKindError, UnsupportedMetricError, Zero,
                   conj_prox, conj_prox_via_moreau)
from .precond import (BlockDiag, BlockOrdering, Diagonal, Gram, Preconditioner,
                      ScaledIdentity, ct_block_precond, four_block_ordering,
                      gram_precond, metric_spectrum, ordering_for,
                      pock_diagonal, scaled_identity, two_block_ordering,
                      validate_schur)
from .solver import (BcdPlan, ConfigError, InfeasibleStepsizeError, IterateState,
                     RunResult, SaddleProblem, SingularMetricError, SolverConfig,
                     Trace, ZSubproblem, admm_dual_step, bcd_gamma_feasible,
                     c_bcd, c_proxgrad, dual_transform, ergodic_gap_bound,
                     find_bcd_gamma, inner_bcd, inner_fista_restart,
                     inner_proxgrad, lyapunov, pdhg_step, prepdhg_x_step,
                     relative_error_residual, run, solve_subproblem_exact,
                     validate_config)
from .problems import (ProblemInstance, add_impulse_noise, ct, emd, graphcut,
                       reference_solve, synth_line_integral_matrix, tvl1)

__version__ = "0.1.0"
