"""Optimization kernels for structured hinge objectives.

One stochastic subgradient kernel, :func:`lockstep_train`, advances B
trajectories in lockstep over one shared per-epoch shuffled instance
order.  Each trajectory has its own step size ``1 / (2 * beta * sqrt(t))``,
where t counts individual updates, and its own hinge weight C.  Its step
either shrinks toward zero and preconditions by a diagonal quadratic
penalty, or projects onto an L1 ball.  A single model is the kernel with
one config (B = 1); it returns the final iterates as a (B, K) array.
"""

import math
from dataclasses import dataclass

import numpy as np

from .chain import (
    ChainModel,
    FeatureSpec,
    _check_instance,
    feature_vectors,
    loss_augmented_decode_rows,
)

__all__ = [
    "SubgradConfig",
    "lockstep_train",
    "l1_ball_project",
    "structured_hinge_objective",
]

# Iterates beyond this L2 norm abort training: the step size is divergent.
DIVERGENCE_LIMIT = 1e8


@dataclass(frozen=True)
class SubgradConfig:
    """Schedule for the subgradient trainers.

    ``beta`` scales the step size ``alpha_t = 1 / (2 * beta * sqrt(t))``;
    ``iterations`` is the number of full passes over the data; ``C`` weights
    the hinge term (C == 0 degenerates to the penalty-only problem); ``seed``
    drives the per-epoch instance shuffle.
    """

    beta: float
    iterations: int
    C: float
    seed: int = 0

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.C < 0 or not math.isfinite(self.C):
            raise ValueError("C must be finite and nonnegative")


def _check_data(data, spec: FeatureSpec):
    if not data:
        raise ValueError("training data must be nonempty")
    for inst in data:
        _check_instance(spec, inst.features, inst.labels)


def lockstep_train(
    data: list,
    spec: FeatureSpec,
    cfgs,
    *,
    inv_diag: np.ndarray | None = None,
    radii=None,
) -> np.ndarray:
    """Run one subgradient trajectory per config in lockstep; (B, K) final iterates.

    The configs must share ``seed`` and ``iterations``, so every trajectory
    visits the instances in the same order; each keeps its own ``beta`` and
    ``C``.  Give exactly one step rule:

    * ``inv_diag`` (B, K): approximately minimize
      0.5 w' diag(inv) w + C * sum_i hinge_i(w).  Each update shrinks w by
      (1 - alpha / n), then adds alpha * C times the subgradient
      preconditioned by 1 / inv, so stiff coordinates (tiny penalty
      variance) stay numerically stable;
    * ``radii`` (B,): minimize C * sum_i hinge_i(w) subject to
      ||w||_1 <= radius.  Each update adds alpha * C times the subgradient,
      then projects onto the ball, so all iterates are feasible.

    hinge_i(w) = max_y [w'f(x_i, y) + hamming(y, y_i)] - w'f(x_i, y_i), with
    the inner maximum found by loss-augmented decoding; when the winner
    equals the gold labeling the instance adds no data term.  Starts from
    w = 0.  Every row is bit-equal to running its config alone.  Raises
    ``RuntimeError`` as soon as a row stops being finite or its L2 norm
    exceeds ``DIVERGENCE_LIMIT``.
    """
    _check_data(data, spec)
    cfgs = list(cfgs)
    if not cfgs:
        raise ValueError("need at least one configuration")
    seed, iterations = cfgs[0].seed, cfgs[0].iterations
    if any((cfg.seed, cfg.iterations) != (seed, iterations) for cfg in cfgs):
        raise ValueError("lockstep configurations must share seed and iterations")
    if (inv_diag is None) == (radii is None):
        raise ValueError("give exactly one of inv_diag and radii")
    batch = len(cfgs)
    if inv_diag is not None:
        inv_diag = np.asarray(inv_diag, dtype=float)
        if inv_diag.shape != (batch, spec.K):
            raise ValueError("regularizer dimension disagrees with spec")
        if not np.all(np.isfinite(inv_diag)) or np.any(inv_diag <= 0):
            raise ValueError("inv_diag entries must be positive and finite")
        scale = 1.0 / inv_diag
    else:
        radii = np.asarray(radii, dtype=float)
        if radii.shape != (batch,):
            raise ValueError("need one radius per configuration")
        if not np.all(radii > 0):
            raise ValueError("radius must be positive")
    betas = np.array([cfg.beta for cfg in cfgs])
    hinge_weights = np.array([cfg.C for cfg in cfgs])
    n = len(data)
    gold_feats = [feature_vectors(spec, inst.features, inst.labels[None])[0] for inst in data]
    rng = np.random.default_rng(seed)
    w = np.zeros((batch, spec.K))
    t = 0
    for epoch in range(1, iterations + 1):
        for idx in rng.permutation(n):
            t += 1
            alpha = 1.0 / (2.0 * betas * math.sqrt(t))
            inst = data[idx]
            y_star, _ = loss_augmented_decode_rows(spec, w, inst.features, inst.labels)
            if inv_diag is not None:
                w = (1.0 - alpha / n)[:, None] * w
            rows = np.flatnonzero((y_star != inst.labels).any(axis=1))
            if rows.size:
                delta = gold_feats[idx] - feature_vectors(spec, inst.features, y_star[rows])
                step = (alpha[rows] * hinge_weights[rows])[:, None]
                if inv_diag is not None:
                    delta = scale[rows] * delta
                w[rows] = w[rows] + step * delta
            if radii is not None:
                w = _project_rows(w, radii)
            _check_iterates(w, betas, epoch, t)
    return w


def _check_iterates(w: np.ndarray, betas: np.ndarray, epoch: int, t: int):
    norms = np.linalg.norm(w, axis=1)
    bad = np.flatnonzero(~(norms <= DIVERGENCE_LIMIT))
    if bad.size:
        row = bad[0]
        raise RuntimeError(
            f"subgradient iterate diverged in epoch {epoch} at update t={t}: "
            f"beta={betas[row]:g} reached L2 norm {norms[row]:.6g}; "
            "decrease the step size (raise beta)"
        )


def _project_rows(v: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Project each row of (B, K) ``v`` onto the L1 ball of its radius.

    Sort-and-threshold algorithm: rows already inside their ball are
    returned unchanged, otherwise every entry shrinks toward zero by the
    threshold that makes the row land on the ball boundary.
    """
    mag = np.abs(v)
    # Relative slack keeps re-projection an exact no-op despite the float
    # error (~K ulp) left on the boundary by a previous projection.
    outside = np.flatnonzero(mag.sum(axis=1) > radii * (1.0 + 1e-12))
    if not outside.size:
        return v.copy()
    mag_out, radius = mag[outside], radii[outside]
    u = np.sort(mag_out, axis=1)[:, ::-1]
    cssv = np.cumsum(u, axis=1)
    above = u * np.arange(1, v.shape[1] + 1) > cssv - radius[:, None]
    # The largest entry always clears the threshold (u_1 > u_1 - radius),
    # but rounding hides it once u_1 is ~2**53 times the radius.
    above[:, 0] = True
    # rho: one past the last index where the sorted entry clears the threshold.
    rho = v.shape[1] - above[:, ::-1].argmax(axis=1)
    theta = (cssv[np.arange(len(outside)), rho - 1] - radius) / rho
    out = v.copy()
    out[outside] = np.sign(v[outside]) * np.maximum(mag_out - theta[:, None], 0.0)
    return out


def l1_ball_project(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of ``v`` onto {u : ||u||_1 <= radius}.

    Vectors already inside the ball are returned unchanged, otherwise every
    entry shrinks toward zero by the threshold that makes the result land
    on the ball boundary.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError("input must be a vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("input must be finite")
    if not radius > 0:
        raise ValueError("radius must be positive")
    return _project_rows(v[None], np.array([float(radius)]))[0]


def structured_hinge_objective(
    data: list, model: ChainModel, C: float, inv_diag: np.ndarray | None = None
) -> float:
    """Objective value 0.5 w' diag(inv_diag) w + C * sum_i hinge_i(w).

    Pass ``inv_diag=None`` for the unregularized hinge total (the quantity
    constrained trainers minimize inside their feasible set).  Each
    instance is checked once; empty ``data`` gives the penalty term alone.
    """
    spec, w = model.spec, model.weights
    checked = [_check_instance(spec, inst.features, inst.labels) for inst in data]
    reg = 0.0
    if inv_diag is not None:
        reg = 0.5 * float(np.dot(w, np.asarray(inv_diag) * w))
    hinge = 0.0
    for x, y in checked:
        _, value = loss_augmented_decode_rows(spec, w[None], x, y)
        hinge += float(value[0]) - float(np.dot(w, feature_vectors(spec, x, y[None])[0]))
    return reg + C * hinge
