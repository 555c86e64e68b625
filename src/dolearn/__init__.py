"""Learn evaluators and samplers for atomic interventional distributions
from observational samples over a known ADMG."""

from .errors import (
    DolearnError,
    FormatError,
    GenerationError,
    GraphCycleError,
    IdentifiabilityError,
    ReductionInvariantError,
    NormalizationError,
    PositivityError,
    StateSpaceError,
)
from .graph import (
    Admg,
    CComponentPartition,
    IdentifiabilityResult,
    InducedSubgraph,
    MarginalReduction,
    c_components,
    check_identifiability,
    effective_parents,
    induced_subgraph,
    latent_project,
    parent_sets,
    prune_to_ancestors,
    random_admg,
    reduce_for_marginal,
    topological_order,
)
from .identify import QFactor, compute_q_factor, exact_dx, tian_pearl_do
from .intervene import (
    InterventionalModel,
    SplitDoEvaluator,
    build_split_evaluator,
    build_split_evaluator_exact,
    evaluate_do,
    evaluate_split,
    learn_marginal_do,
    model_to_dense,
    sample_do,
)
from .learn import (
    BayesNetModel,
    add_one_estimator,
    default_parameters,
    estimate_alpha,
    exact_ccomponent_model,
    exact_do_model,
    learn_ccomponent_intervention,
    learn_do,
    learn_observational,
    practical_threshold,
)
from .model import (
    DenseDistribution,
    GroundTruthCbn,
    SampleBatch,
    exact_interventional,
    exact_observational,
    kl_distance,
    random_cbn,
    sample_observational,
    strong_positivity_margin,
    tv_distance,
)

__version__ = "0.1.0"
