"""General spectral regularization in Hilbert scales on synthetic
diagonal problems: filters, a-priori parameter rules, concentration
diagnostics, distance functions, and convergence-rate experiments.
"""

from .diagnostics import (QUANTITIES, BoundCheckReport, bound_appendix,
                          bound_constants, check_heinz_bound,
                          check_interpolation, check_lemma_envelope,
                          compute_lambda_q, compute_psi, compute_tx_deviation,
                          compute_upsilon, compute_xi,
                          montecarlo_coverage_batch)
from .distance import (DistanceCurve, DistanceResult, distance_bound,
                       distance_curve, distance_fn, distance_fn_q,
                       r_of_lambda)
from .effdim import (EffDimCurve, check_effdim_relation, check_tail_condition,
                     effdim, effdim_curve, fit_effdim_exponent)
from .filters import (FILTER_NAMES, ConstantsReport, FilterFamily, PropReport,
                      check_covering, check_prop_regularization,
                      check_qualification, check_regularization_constants,
                      filter_values, landweber_iterations, make_filter,
                      residual_values)
from .harness import ExperimentConfig, RateReport, run_rate_experiment
from .indexfn import (IndexFunction, check_index_function, check_sublinear,
                      power_fn)
from .lambda_rules import (RULE_NAMES, LambdaRule, lambda_balance_effdim,
                           lambda_balance_general, lambda_power_table,
                           theoretical_exponent)
from .mercer import (K2_NOTE, kernel_k1, kernel_k2, mercer_decompose,
                     midpoint_grid)
from .model import (CASES, NoiseModel, PowerProblemSpec, SpectralProblem,
                    build_power_problem, forward_eval, hilbert_scale_norm,
                    truncation_dim)
from .sampling import (Dataset, Estimate, design_matrix, empirical_cov,
                       errors, estimate, sample_dataset)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
