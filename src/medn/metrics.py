"""Prediction-error metrics and their aggregation across folds or seeds."""

from dataclasses import dataclass

import numpy as np

from .chain import FeatureSpec, _check_real, _check_reals, decode_instances

__all__ = ["MetricsReport", "evaluate_weight_rows", "mean_std"]


@dataclass(frozen=True)
class MetricsReport:
    """Error rates over one evaluation set.

    ``per_label_err`` is the fraction of wrongly labeled positions,
    ``seq_err`` the fraction of sequences with at least one wrong position.
    """

    per_label_err: float
    seq_err: float
    n_sequences: int
    n_positions: int

    def __post_init__(self):
        for name in ("per_label_err", "seq_err"):
            object.__setattr__(self, name, _check_real(name, getattr(self, name), "in [0, 1]"))


def evaluate_weight_rows(spec: FeatureSpec, weights, instances) -> list:
    """One :class:`MetricsReport` per row of (B, K) ``weights``: decode every
    instance with :func:`medn.chain.decode_instances` and count
    per-position and whole-sequence errors."""
    if not instances:
        raise ValueError("evaluation set must be nonempty")
    preds = decode_instances(spec, weights, instances)
    wrong = np.concatenate(preds, axis=1) != np.concatenate([inst.labels for inst in instances])
    lengths = [pred.shape[1] for pred in preds]
    # Every instance holds at least one position, so the starts increase.
    starts = np.cumsum([0] + lengths[:-1])
    wrong_positions = wrong.sum(axis=1)  # (B,)
    wrong_sequences = np.logical_or.reduceat(wrong, starts, axis=1).sum(axis=1)
    total_positions = sum(lengths)
    return [
        MetricsReport(
            per_label_err=int(wp) / total_positions,
            seq_err=int(ws) / len(instances),
            n_sequences=len(instances),
            n_positions=total_positions,
        )
        for wp, ws in zip(wrong_positions, wrong_sequences)
    ]


def mean_std(values) -> tuple[float, float]:
    """Population mean and standard deviation (ddof = 0) of a value list."""
    arr = _check_reals("values", values, (None,))
    if arr.size == 0:
        raise ValueError("cannot aggregate an empty list")
    mean, std = _mean_std_rows(arr)
    return float(mean), float(std)


def _mean_std_rows(values: np.ndarray):
    """:func:`mean_std` of every row of a nonempty float array along its last
    axis: (mean, std) arrays of the leading shape, unchecked.

    The reduction runs along a C-contiguous last axis, where numpy sums
    pairwise, row by row, as it sums a lone vector, so every row keeps the
    bits that ``mean_std`` gives it at any length; along a strided axis numpy
    would sum in sequence and round otherwise.
    """
    values = np.ascontiguousarray(values)
    return values.mean(axis=-1), values.std(axis=-1)
