"""Simulation and estimation of average causal effects on noisily observed networks."""

from . import _allocator

# before the submodules allocate anything: freed buffers stay in the heap
_allocator.keep_freed_memory()

from .estimators import (
    MixingRule,
    OutcomeTable,
    degree_estimate,
    ht_estimate,
    load_outcome_table,
    mme_estimate,
    realize_outcomes,
)
from .exposure import (
    ConfusionMatrix,
    ExposureLevel,
    LEVEL_NAMES,
    Treatment,
    assign_treatment,
    confusion_matrix,
    exposure_levels,
    exposure_probabilities,
    exposure_probabilities_generalized,
)
from .graphs import (
    EdgeListError,
    Graph,
    ParetoExpCutoff,
    ZeroTruncatedPoisson,
    build_graph_configuration,
    align_on_labels,
    build_true_graph_from_rounds,
    load_edge_list,
    load_rounds,
    sample_degree_sequence,
    write_edge_list,
)
from .harness import (
    ESTIMATOR_NAMES,
    EstimateSummary,
    ExperimentConfig,
    ExperimentError,
    LevelSummary,
    bootstrap_ci,
    emit_results,
    resolve_graph,
    run_experiment,
)
from .noise import NoiseParams, perturb, replicate
from .noise_fit import (
    DegenerateMomentsError,
    DivergedError,
    MomentStats,
    NoiseFitError,
    fit_alpha_beta,
    moment_stats,
)
from .seeding import make_rng
from .theory import (
    BiasPrediction,
    ConditionDiagnostics,
    condition_diagnostics,
    naive_estimator_bias,
)

__version__ = "0.1.0"
