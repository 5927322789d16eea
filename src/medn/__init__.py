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
from .metrics import MetricsReport, evaluate_weight_rows, mean_std
from .models import (
    DualWeights,
    LaplaceConfig,
    kl_norm,
    l1m3n_dual_check,
    laplace_log_z,
    laplace_log_z_grad,
    shrinkage_mean,
    train_laplace_grid,
)
from .optimize import (
    SubgradConfig,
    l1_ball_project,
    lockstep_train,
    structured_hinge_objective,
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
    "SequenceInstance",
    "SubgradConfig",
    "SyntheticDataset",
    "TrueCrf",
    "decode",
    "decode_instances",
    "evaluate_weight_rows",
    "feature_vector",
    "gen_crf",
    "gen_dataset",
    "gen_features",
    "gibbs_label",
    "gibbs_samples",
    "hamming_loss",
    "kl_norm",
    "l1_ball_project",
    "l1m3n_dual_check",
    "laplace_log_z",
    "laplace_log_z_grad",
    "lockstep_train",
    "loss_augmented_decode",
    "margin_sample_count",
    "mean_std",
    "pac_bound",
    "score",
    "shrinkage_mean",
    "structured_hinge_objective",
    "train_laplace_grid",
]

__version__ = "0.1.0"
