"""Sum-product message passing on discrete pairwise models, with distance
bounds between fixed points, convergence certificates, and accuracy
intervals around converged beliefs."""

from .accuracy import (AccuracyBound, ConvergenceFailure, accuracy_bound,
                       exact_marginals, saw_accuracy)
from .bounds import (BoundReport, bound_report, delta1,
                     ihler_nonuniform_distance_bound,
                     ihler_uniform_distance_bound,
                     improved_uniform_distance_bound,
                     nonuniform_distance_bound, true_distance,
                     uniform_distance_bound)
from .convergence import (ConvergenceVerdict, critical_eta,
                          evaluate_condition, ihler_uniform_condition,
                          interaction_matrix, nonuniform_condition,
                          spectral_radius, uniform_condition, walk_summability)
from .engine import (MessageSet, RunResult, ScheduleTrace,
                     empirical_convergent, empirical_critical_eta,
                     run_residual_scheduled, run_synchronous, update_message)
from .models import (DirectedEdge, EnumerationLimitError, GraphFormatError,
                     ModelError, PairwiseMRF, StrengthTable, build_generator,
                     compute_strengths, format_graph_text, parse_graph_file,
                     parse_graph_text, with_uniform_binary, write_graph_file)
from .trees import SawTree, saw_tree
from .uniform import FixedPointSet, fixed_points, uniform_belief

__version__ = "0.1.0"
