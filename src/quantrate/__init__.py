"""Training binary linear classifiers under positive-prediction-rate
constraints by substituting an empirical quantile for the threshold.

The public surface re-exports the working set: core types, the four
quantile estimators, surrogate losses and their gradients, SGD
training, threshold calibration and precision metrics, dataset I/O
and synthesis, the regularized logistic baseline, experiment presets,
and the concentration-scaling harnesses.
"""

import inspect as _inspect

from .baseline import logistic_train
from .concentration import (
    ConcentrationReport,
    ConvexConvergenceReport,
    convex_sgd_convergence,
    estimator_stability,
    loss_uniform_deviation,
)
from .data import (
    GENERATOR_NAME,
    MixtureComponent,
    SplitSpec,
    StandardizeTransform,
    SyntheticSpec,
    generate_mixture,
    generate_synthetic,
    load_delimited,
    load_sparse,
    split,
    standardize,
)
from .errors import (
    BatchTooLarge,
    ConstraintBatchEmpty,
    DataError,
    DegenerateInterval,
    DegenerateSplit,
    DimensionError,
    Diverged,
    EmptyInput,
    EmptyObjective,
    InvalidSpec,
    NoConstraintSubset,
    NonMonotonicIndex,
    NonpositiveScale,
    ParseError,
    QuantrateError,
    RaggedRows,
    SingleClass,
    UncalibratedError,
    UnknownLabel,
)
from .estimators import QuantileResult, estimate, exact_quantile, order_rank
from .experiment import (
    CurvePoint,
    ExperimentResult,
    MethodAggregate,
    run_experiment,
    write_results,
)
from .losses import (
    LossValue,
    logloss,
    loss_gradient,
    surrogate_loss,
)
from .metrics import (
    PRPoint,
    calibrate_threshold,
    evaluate,
    pr_auc,
    pr_points,
    precision_at_rate,
    precision_at_recall,
    rate,
)
from .presets import load_preset, preset_names, published_rows, published_tables
from .train import lockstep_train, multi_restart_train, sgd_train
from .types import (
    Dataset,
    Direction,
    EstimatorKind,
    EvalReport,
    LinearModel,
    Objective,
    Penalize,
    QuantileEstimatorSpec,
    RateConstraint,
    Subset,
    SurrogateLossSpec,
    TrainConfig,
    TrainResult,
    constraint_indices,
)

__version__ = "0.1.0"

# every public name bound above, the submodules aside
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not _inspect.ismodule(value)
)
