"""Dependent random graph distributions.

Construct edge distributions where each edge is Bernoulli(p) but may
depend on up to d other edges, sample them reproducibly, check theory
bounds (degree concentration, jumbledness, connectivity thresholds,
subgraph containment), and verify everything against small exact oracles.
"""

from .bounds import (BOUND_NAMES, BoundReport, clique_bounds,
                     clique_hypothesis, connectivity_example_threshold,
                     connectivity_upper_threshold, containment_failure_bound,
                     containment_hypothesis, degree_hypothesis,
                     degree_interval, dependence_ratio, evaluate,
                     janson_bernstein, janson_phi, jumbledness_deviation,
                     jumbledness_hypothesis, jumbledness_witness_floor, phi,
                     phi_functional)
from .distributions import (DistributionModel, SampleOutcome, audit_model,
                            blocks_from_text, build, connectivity_gadget,
                            correlated_star, custom_blocks, edge_block_exact,
                            erdos_renyi, format_probability, from_descriptor,
                            parse_probability, realize, sample, to_descriptor)
from .errors import ResourceLimitError
from .graphs import (DensityResult, Graph, SubgraphPattern, edge_cover_number,
                     from_edge_list, max_subgraph_density, named_pattern,
                     to_edge_list)
from .harness import (ExperimentConfig, ExperimentResult, PointResult,
                      check_monotone_trend, run_experiment)
from .oracle import (JumblednessViolation, MeanVarianceReport,
                     er_connectivity_probability, exact_binomial_two_sided_tail,
                     exact_edge_marginals, exact_event_probability,
                     exhaustive_jumbledness_check, mean_variance_check)
from .predicates import (Predicate, Statistic, parse_predicate,
                         resolve_pattern)
from .rng import derive_seed, generator

__version__ = "0.1.0"

__all__ = [
    "BOUND_NAMES", "BoundReport", "DensityResult", "DistributionModel",
    "ExperimentConfig", "ExperimentResult", "Graph",
    "JumblednessViolation", "MeanVarianceReport", "PointResult", "Predicate",
    "ResourceLimitError", "SampleOutcome", "Statistic", "SubgraphPattern",
    "audit_model", "blocks_from_text", "build", "check_monotone_trend",
    "clique_bounds", "clique_hypothesis", "connectivity_example_threshold",
    "connectivity_gadget", "connectivity_upper_threshold",
    "containment_failure_bound", "containment_hypothesis", "correlated_star",
    "custom_blocks", "degree_hypothesis", "degree_interval",
    "dependence_ratio", "derive_seed", "edge_block_exact", "edge_cover_number",
    "er_connectivity_probability", "erdos_renyi", "evaluate",
    "exact_binomial_two_sided_tail", "exact_edge_marginals",
    "exact_event_probability", "exhaustive_jumbledness_check",
    "format_probability", "from_descriptor", "from_edge_list", "generator",
    "janson_bernstein", "janson_phi", "jumbledness_deviation",
    "jumbledness_hypothesis", "jumbledness_witness_floor",
    "max_subgraph_density", "mean_variance_check", "named_pattern",
    "parse_predicate", "parse_probability", "phi", "phi_functional",
    "realize", "resolve_pattern", "run_experiment", "sample", "to_descriptor",
    "to_edge_list",
]
