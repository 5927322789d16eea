"""The three model families behind one training interface.

* quadratic-penalty max-margin training (``train_gaussian``), whose point
  weights double as the mean of a unit-variance Gaussian weight posterior;
* the Laplace-prior variational trainer (``train_laplace``), which
  alternates a variance-weighted max-margin solve with a coordinatewise
  variance refresh and yields a shrunken, near-sparse posterior mean;
* L1-constrained max-margin training, which is
  :func:`medn.optimize.l1_constrained_train` itself.

A grid of configs that share one instance order trains in lockstep and
comes back as arrays: an m3n grid is one
:func:`medn.optimize.lockstep_train` call with an identity penalty per
config, an L1 grid one call with a radius per config, and a Laplace grid
is ``train_laplace_grid``, one kernel call per round.  Only the
single-config trainers wrap their result in a :class:`Posterior`.

Also provides the analysis functions for the Laplace posterior: the
entropic shrinkage map, the closed-form log-normalizer and its gradient,
the KL-induced weight penalty, and a feasibility check for dual weights of
the L1-constrained problem.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .chain import ChainModel, FeatureSpec, _check_instance, decode, feature_vectors
from .optimize import SubgradConfig, lockstep_train

__all__ = [
    "Posterior",
    "LaplaceConfig",
    "DualWeights",
    "VARIANCE_FLOOR",
    "train_gaussian",
    "train_laplace",
    "train_laplace_grid",
    "predict_mean",
    "shrinkage_mean",
    "laplace_log_z",
    "laplace_log_z_grad",
    "kl_norm",
    "l1m3n_dual_check",
]

# Floor on posterior variances: keeps the next round's inverse-variance
# penalty finite as second moments collapse toward zero.
VARIANCE_FLOOR = 1e-12


@dataclass
class Posterior:
    """Diagonal-Gaussian distribution over chain weights.

    ``prior`` records which prior produced it ("gaussian" or "laplace",
    with ``lam`` set for the latter).  Carries its FeatureSpec so the
    posterior alone suffices for prediction.
    """

    spec: FeatureSpec
    mean: np.ndarray
    var_diag: np.ndarray
    prior: str
    lam: float | None = None

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.var_diag = np.asarray(self.var_diag, dtype=float)
        k = self.spec.K
        if self.mean.shape != (k,) or self.var_diag.shape != (k,):
            raise ValueError("mean and var_diag must have one entry per weight")
        if not np.all(np.isfinite(self.mean)):
            raise ValueError("mean must be finite")
        if not np.all(np.isfinite(self.var_diag)) or np.any(self.var_diag <= 0):
            raise ValueError("variances must be positive and finite")
        if self.prior not in ("gaussian", "laplace"):
            raise ValueError(f"unknown prior tag {self.prior!r}")
        if self.prior == "laplace" and (self.lam is None or self.lam <= 0):
            raise ValueError("laplace prior requires a positive lam")


@dataclass(frozen=True)
class LaplaceConfig:
    """Hyperparameters for the variational Laplace trainer.

    ``lam`` is the prior scale; ``C`` the slack penalty of the inner solve
    (overrides the inner config's C); ``outer_iters`` the loop bound T,
    giving T - 1 alternations; ``inner`` the subgradient schedule for each
    inner solve.
    """

    lam: float
    inner: SubgradConfig
    C: float = 1.0
    outer_iters: int = 4

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("lam must be positive")
        if not self.C > 0:
            raise ValueError("C must be positive")
        if self.outer_iters < 2:
            raise ValueError("outer_iters must be at least 2")


@dataclass
class DualWeights:
    """Per-instance nonnegative weights over alternative labelings.

    ``alphas[i]`` maps a labeling tuple to its weight for instance i; ``C``
    caps the per-instance totals in the feasibility check.  Sparse: only
    labelings with nonzero weight need appear.
    """

    spec: FeatureSpec
    C: float
    alphas: list

    def __post_init__(self):
        if not self.C > 0:
            raise ValueError("C must be positive")
        cleaned = []
        for amap in self.alphas:
            row = {}
            for y, a in amap.items():
                a = float(a)
                if a < 0:
                    raise ValueError("dual weights must be nonnegative")
                y = tuple(int(v) for v in y)
                if not all(0 <= v < self.spec.m for v in y):
                    raise ValueError(f"label indices must lie in [0, {self.spec.m})")
                row[y] = a
            cleaned.append(row)
        self.alphas = cleaned

    def _accumulate(self, data):
        """Weighted feature-difference vector, weighted total loss, and per
        instance the (A, K) gold-minus-alternative deltas and A Hamming
        losses of its A labelings, in ``alphas`` order."""
        if len(data) != len(self.alphas):
            raise ValueError("dual weights and data disagree on instance count")
        eta = np.zeros(self.spec.K)
        loss_sum = 0.0
        terms = []
        for inst, amap in zip(data, self.alphas):
            x, gold = _check_instance(self.spec, inst.features, inst.labels)
            if any(len(y) != len(gold) for y in amap):
                raise ValueError("labelings and inputs disagree on sequence length")
            ys = np.array(list(amap), dtype=np.int64).reshape(len(amap), len(gold))
            feats = feature_vectors(self.spec, x, np.vstack([gold[None], ys]))
            deltas, losses = feats[0] - feats[1:], (ys != gold).sum(axis=1).tolist()
            for a, delta, loss in zip(amap.values(), deltas, losses):
                eta += a * delta
                loss_sum += a * loss
            terms.append((deltas, losses))
        return eta, loss_sum, terms

    def eta(self, data) -> np.ndarray:
        """Sum over instances and labelings of alpha * (gold - alternative) features."""
        return self._accumulate(data)[0]


def train_gaussian(data: list, spec: FeatureSpec, cfg: SubgradConfig) -> Posterior:
    """Identity-penalty max-margin training, reported as a weight posterior.

    The returned mean is exactly the point estimate of the max-margin
    problem (same solver, identity penalty); the posterior is that mean
    with unit variances.  Averaged prediction with this posterior therefore
    coincides with decoding under the point weights.
    """
    mean = lockstep_train(data, spec, [cfg], inv_diag=np.ones((1, spec.K)))[0]
    return Posterior(spec=spec, mean=mean, var_diag=np.ones(spec.K), prior="gaussian")


def train_laplace(data: list, spec: FeatureSpec, cfg: LaplaceConfig) -> Posterior:
    """Variational trainer for the Laplace-prior weight posterior.

    Starting from mean 0 and unit variances, each of the T - 1 rounds
    (1) re-solves the max-margin problem under the quadratic penalty
    diag(1 / var) to refresh the mean, forms the diagonal second moment
    var + mean**2, then (2) resets each variance to
    sqrt(second_moment / lam).  Variances are floored at VARIANCE_FLOOR so
    the next penalty stays finite.  Unsupported coordinates keep mean zero
    and their variances contract toward the prior scale, which is what
    drives the shrinkage of irrelevant-feature weights.
    """
    mean, var = train_laplace_grid(data, spec, [cfg])
    return Posterior(spec=spec, mean=mean[0], var_diag=var[0], prior="laplace", lam=cfg.lam)


def train_laplace_grid(data: list, spec: FeatureSpec, cfgs):
    """:func:`train_laplace` for every config, all rounds in lockstep.

    Returns the (B, K) posterior means and variances, one row per config.
    The configs must share ``outer_iters`` and their inner ``seed`` and
    ``iterations``; ``lam``, ``C`` and the inner ``beta`` may differ.  Each
    round is one lockstep solve over every config, followed by each
    config's variance refresh, so each row is bit-equal to training its
    config alone.
    """
    cfgs = list(cfgs)
    if not cfgs:
        raise ValueError("need at least one configuration")
    if any(cfg.outer_iters != cfgs[0].outer_iters for cfg in cfgs):
        raise ValueError("lockstep configurations must share outer_iters")
    inners = [replace(cfg.inner, C=cfg.C) for cfg in cfgs]
    lams = np.array([[cfg.lam] for cfg in cfgs])
    var = np.ones((len(cfgs), spec.K))
    mean = np.zeros((len(cfgs), spec.K))
    for _ in range(cfgs[0].outer_iters - 1):
        mean = lockstep_train(data, spec, inners, inv_diag=1.0 / var)
        second_moment = var + mean**2
        var = np.maximum(np.sqrt(second_moment / lams), VARIANCE_FLOOR)
    return mean, var


def predict_mean(post: Posterior, x: np.ndarray) -> np.ndarray:
    """Averaged prediction: argmax over labelings of the expected score.

    The sequence score is linear in the weights, so its posterior
    expectation is the score under the posterior mean; the averaged
    predictor is exactly the mean-weight decoder.
    """
    return decode(ChainModel(post.spec, post.mean), x)


def shrinkage_mean(eta: float, lam: float) -> float:
    """Posterior-mean map eta -> 2 * eta / (lam - eta**2).

    Defined for eta**2 < lam; outside that region the posterior
    normalizer diverges.  Odd in eta, and for fixed eta the output shrinks
    toward zero as lam grows.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    if eta * eta >= lam:
        raise ValueError("eta**2 must be < lam (normalizer diverges)")
    return 2.0 * eta / (lam - eta * eta)


def _check_eta_domain(eta: np.ndarray, lam: float):
    if not lam > 0:
        raise ValueError("lam must be positive")
    if np.any(eta * eta >= lam):
        raise ValueError("eta_k**2 must be < lam for every coordinate")


def laplace_log_z(dual: DualWeights, data: list, lam: float) -> float:
    """Closed-form log-normalizer of the Laplace posterior at given duals.

    Equals -sum_{i,y} alpha_i(y) * hamming(y, y_i)
    + sum_k log(lam / (lam - eta_k**2)) with eta from :meth:`DualWeights.eta`.
    Requires eta_k**2 < lam for every coordinate.
    """
    eta, loss_sum, _ = dual._accumulate(data)
    _check_eta_domain(eta, lam)
    return float(-loss_sum + np.sum(np.log(lam / (lam - eta**2))))


def laplace_log_z_grad(dual: DualWeights, data: list, lam: float) -> list:
    """Partial derivatives of :func:`laplace_log_z` in each stored dual weight.

    The derivative in alpha_i(y) is v' (gold - alternative features) minus
    the Hamming loss of y, where v_k = 2 * eta_k / (lam - eta_k**2) is the
    shrunken posterior mean.  Returned as one dict per instance, keyed like
    ``dual.alphas``.
    """
    eta, _, terms = dual._accumulate(data)
    _check_eta_domain(eta, lam)
    v = 2.0 * eta / (lam - eta**2)
    return [
        {y: float(np.dot(v, delta)) - loss for y, delta, loss in zip(amap, deltas, losses)}
        for amap, (deltas, losses) in zip(dual.alphas, terms)
    ]


def kl_norm(mu, lam: float) -> float:
    """Weight penalty induced by a Laplace(lam) prior.

    sum_k sqrt(mu_k**2 + 1/lam) - log((sqrt(lam mu_k**2 + 1) + 1) / 2) / sqrt(lam).
    Each term increases with mu_k**2 and tends to |mu_k| as lam grows, so
    the penalty interpolates toward the L1 norm.  The posterior KL
    divergence equals sqrt(lam) * kl_norm(mu, lam) - K, which is
    nonnegative and vanishes only at mu = 0.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    root = np.sqrt(lam * mu**2 + 1.0)
    return float(
        np.sum(np.sqrt(mu**2 + 1.0 / lam) - np.log((root + 1.0) / 2.0) / math.sqrt(lam))
    )


def l1m3n_dual_check(dual: DualWeights, data: list, tol: float = 1e-9) -> bool:
    """Feasibility of dual weights for the L1-constrained problem.

    True iff every coordinate of eta has magnitude at most 1/2 and every
    per-instance total weight is at most C, both within ``tol``.
    Diagnostic only; no dual solver is shipped.
    """
    eta = dual.eta(data)
    if np.any(np.abs(eta) > 0.5 + tol):
        return False
    for amap in dual.alphas:
        if sum(amap.values()) > dual.C + tol:
            return False
    return True
