"""The public surface: every exported name resolves, and the README's
Python examples run against the package as it is."""

import importlib
import pkgutil
import re
from pathlib import Path

import medn

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = {
    "BoundInputs",
    "DualWeights",
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
    "gibbs_label",
    "gibbs_samples",
    "kl_norm",
    "l1_ball_project",
    "l1m3n_dual_check",
    "laplace_log_z",
    "laplace_log_z_grad",
    "lockstep_train",
    "margin_sample_count",
    "mean_std",
    "pac_bound",
    "shrinkage_mean",
    "structured_hinge_objective",
    "train_laplace_grid",
}
# The single-instance chain layer that decode_instances, lockstep_train and
# structured_hinge_objective replaced.
REMOVED = {"ChainModel", "feature_vector", "score", "decode", "loss_augmented_decode", "hamming_loss"}


def test_every_exported_name_resolves():
    modules = [medn] + [
        importlib.import_module(f"medn.{info.name}") for info in pkgutil.iter_modules(medn.__path__)
    ]
    for module in modules:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
        assert REMOVED.isdisjoint(vars(module)), module.__name__
    assert len(medn.__all__) == len(set(medn.__all__)) == 29
    assert set(medn.__all__) == PUBLIC


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
