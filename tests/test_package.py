"""The package's public surface."""

import quantrate

PUBLIC = """
BatchTooLarge ConcentrationReport ConstraintBatchEmpty ConvexConvergenceReport
CurvePoint DataError Dataset DegenerateInterval DegenerateSplit DimensionError
Direction Diverged EmptyInput EmptyObjective EstimatorKind EvalReport
ExperimentResult GENERATOR_NAME InvalidSpec LinearModel LossValue MethodAggregate
MixtureComponent NoConstraintSubset NonMonotonicIndex NonpositiveScale Objective
PRPoint ParseError Penalize QuantileEstimatorSpec QuantileResult QuantrateError
RaggedRows RateConstraint SingleClass SplitSpec StandardizeTransform Subset
SurrogateLossSpec SyntheticSpec TrainConfig TrainResult UncalibratedError
UnknownLabel calibrate_threshold constraint_indices
convex_sgd_convergence estimate estimator_stability evaluate exact_quantile
generate_mixture generate_synthetic load_delimited load_preset load_sparse
lockstep_train logistic_train logloss loss_gradient loss_uniform_deviation
multi_restart_train order_rank pr_auc pr_points precision_at_rate
precision_at_recall preset_names published_rows published_tables rate
run_experiment sgd_train split standardize surrogate_loss write_results
""".split()


def test_all_names_the_public_surface_and_no_submodule():
    assert len(PUBLIC) == 78
    assert quantrate.__all__ == sorted(PUBLIC)
    assert "train" not in quantrate.__all__ and "types" not in quantrate.__all__
