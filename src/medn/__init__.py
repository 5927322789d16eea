"""Max-margin Markov networks for linear-chain sequence labeling.

Point-estimate and distribution-valued trainers (quadratic penalty,
Laplace-prior variational, L1-constrained) over one chain representation,
plus synthetic data generation, sparsity/shrinkage analysis, a
generalization-bound calculator, and a CLI harness.
"""

from .bounds import BoundInputs, margin_sample_count, pac_bound
from .chain import FeatureSpec, SequenceInstance, decode_instances
from .metrics import MetricsReport, evaluate_weight_rows, mean_std
from .models import (
    LaplaceConfig,
    kl_norm,
    shrinkage_mean,
    train_laplace_grid,
)
from .optimize import (
    SubgradConfig,
    l1_ball_project,
    structured_hinge_objective,
)
from .synth import (
    GeneratorConfig,
    SyntheticDataset,
    TrueCrf,
    gen_crf,
    gen_dataset,
    gen_features,
    gibbs_chains,
)

__all__ = [
    "BoundInputs",
    "FeatureSpec",
    "GeneratorConfig",
    "LaplaceConfig",
    "MetricsReport",
    "SequenceInstance",
    "SubgradConfig",
    "SyntheticDataset",
    "TrueCrf",
    "decode_instances",
    "evaluate_weight_rows",
    "gen_crf",
    "gen_dataset",
    "gen_features",
    "gibbs_chains",
    "kl_norm",
    "l1_ball_project",
    "margin_sample_count",
    "mean_std",
    "pac_bound",
    "shrinkage_mean",
    "structured_hinge_objective",
    "train_laplace_grid",
]

__version__ = "0.1.0"
