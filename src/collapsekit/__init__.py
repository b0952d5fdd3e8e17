"""Layer-peeled collapse experiments with explicit and equilibrium heads."""

from .bounds import (
    BoundConstants,
    ConditionReport,
    ExtremeImbalanceReport,
    ImbalanceSpec,
    balanced_loss_floor,
    comparison_conditions,
    constants_from_logits,
    extreme_imbalance_report,
    fuzz_log_bound,
    log_share_bound,
    tightest_ratio,
)
from .deq import (
    FixedPointResult,
    SolverPolicy,
    fixed_point_closed_form,
    fixed_point_iterate,
    head_gradient,
    resolvent,
)
from .errors import (
    ConfigError,
    DivergenceError,
    SingularMatrixError,
    SolverConvergenceError,
    TrainingDivergedError,
)
from .etf import (
    EtfFrame,
    etf_gram,
    gram_distance_to_etf,
    gram_distance_to_etf_raw,
    make_etf,
    normalized_etf_gram,
)
from .harness import (
    ExperimentConfig,
    config_from_dict,
    export_gram,
    load_config,
    run_experiment,
    run_sweep,
    synthesize_dataset,
)
from .linalg import (
    make_rng,
    pseudo_inverse,
    solve_linear,
    spectral_radius_bound,
)
from .lpm import (
    ClassifierWeights,
    DeqHead,
    ExplicitHead,
    FeatureSet,
    TrainConfig,
    TrainTrace,
    accuracy,
    cross_entropy,
    forward,
    head_features,
    loss_and_grads,
    project_feasible,
    train,
)
from .metrics import (
    ClassStatistics,
    NcReport,
    class_statistics,
    minority_collapse_index,
    nc1,
    nc2,
    nc3,
    nc_report,
)

__version__ = "0.1.0"
