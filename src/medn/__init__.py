"""Max-margin Markov networks for linear-chain sequence labeling.

Point-estimate and distribution-valued trainers (quadratic penalty,
Laplace-prior variational, L1-constrained) over one chain representation,
plus synthetic data generation, sparsity/shrinkage analysis, a
generalization-bound calculator, and a CLI harness.
"""

from .bounds import BoundInputs, margin_sample_count, pac_bound
from .chain import (
    ChainModel,
    FeatureSpec,
    SequenceInstance,
    decode,
    decode_instances,
    feature_vector,
    hamming_loss,
    loss_augmented_decode,
    score,
)
from .metrics import MetricsReport, evaluate_weight_rows, evaluate_weights, mean_std
from .models import (
    DualWeights,
    LaplaceConfig,
    Posterior,
    kl_norm,
    l1m3n_dual_check,
    laplace_log_z,
    laplace_log_z_grad,
    predict_mean,
    shrinkage_mean,
    train_gaussian,
    train_laplace,
    train_laplace_grid,
)
from .optimize import (
    QuadRegularizer,
    SubgradConfig,
    l1_ball_project,
    l1_constrained_train,
    lockstep_train,
    structured_hinge_objective,
    subgradient_train,
)
from .synth import (
    GeneratorConfig,
    SyntheticDataset,
    TrueCrf,
    gen_crf,
    gen_dataset,
    gen_features,
    gibbs_label,
    gibbs_samples,
)

__all__ = [
    "BoundInputs",
    "ChainModel",
    "DualWeights",
    "FeatureSpec",
    "GeneratorConfig",
    "LaplaceConfig",
    "MetricsReport",
    "Posterior",
    "QuadRegularizer",
    "SequenceInstance",
    "SubgradConfig",
    "SyntheticDataset",
    "TrueCrf",
    "decode",
    "decode_instances",
    "evaluate_weight_rows",
    "evaluate_weights",
    "feature_vector",
    "gen_crf",
    "gen_dataset",
    "gen_features",
    "gibbs_label",
    "gibbs_samples",
    "hamming_loss",
    "kl_norm",
    "l1_ball_project",
    "l1_constrained_train",
    "l1m3n_dual_check",
    "laplace_log_z",
    "laplace_log_z_grad",
    "lockstep_train",
    "loss_augmented_decode",
    "margin_sample_count",
    "mean_std",
    "pac_bound",
    "predict_mean",
    "score",
    "shrinkage_mean",
    "structured_hinge_objective",
    "subgradient_train",
    "train_gaussian",
    "train_laplace",
    "train_laplace_grid",
]

__version__ = "0.1.0"
