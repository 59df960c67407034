"""Sum-product message passing on discrete pairwise models, with distance
bounds between fixed points, convergence certificates, and accuracy
intervals around converged beliefs."""

from .accuracy import (AccuracyBound, ConvergenceFailure,
                       EnumerationLimitError, accuracy_bound, exact_marginals,
                       saw_accuracy)
from .bounds import (BoundReport, bound_report, bound_variation, delta1,
                     delta2, ihler_nonuniform_distance_bound,
                     ihler_uniform_distance_bound,
                     improved_uniform_distance_bound,
                     nonuniform_distance_bound, true_distance,
                     uniform_distance_bound)
from .convergence import (ConvergenceVerdict, InteractionMatrix,
                          OrderingReport, condition_ordering_report,
                          critical_eta, evaluate_condition,
                          ihler_uniform_condition, interaction_matrix,
                          nonuniform_condition, partial_graph_ordering_check,
                          rate_metric, spectral_radius, uniform_condition,
                          walk_summability)
from .engine import (MessageSet, RunResult, ScheduleTrace,
                     empirical_convergent, empirical_critical_eta,
                     run_residual_scheduled, run_synchronous, update_message)
from .models import (DirectedEdge, GraphFormatError, ModelError, PairwiseMRF,
                     StrengthTable, build_generator, chain_graph,
                     complete_graph, compute_strengths, cycle_graph,
                     format_graph_text, grid_graph, heskes_strength,
                     k4_minus_edge, marginal_strength, mooij_strength,
                     parse_graph_file, parse_graph_text, plain_strength,
                     potential_strength, random_tree,
                     symmetric_binary_potential, torus_graph,
                     with_uniform_binary, write_graph_file)
from .trees import ComputationTree, saw_tree
from .uniform import (FixedPointSet, error_variation_zeros, fixed_points,
                      incoming_product, scalar_derivative, scalar_update,
                      true_error_variation, udb_completely_uniform,
                      uniform_belief)

__version__ = "0.1.0"
