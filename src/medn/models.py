"""The one trainer and the Laplace-posterior analysis.

The three families differ only in a row's config.  m3n is a
:class:`medn.optimize.SubgradConfig` without a radius, trained under the
identity penalty (its weights are the mean of a unit-variance Gaussian
posterior, and averaged prediction under it is decoding under the mean,
because the score is linear in the weights); l1m3n is one with a radius;
lapmedn is a :class:`LaplaceConfig` around one without.
:func:`train_laplace_grid` trains any mix of them and returns arrays, one
row per config; one model is a grid of one.  Every row may train on its
own subset with its own seed, so a cross-validation sweep of all three
families over every fold takes T - 1 kernel calls.

Also provides the analysis functions for the Laplace posterior: the
entropic shrinkage map from the dual vector eta to the posterior mean, and
the KL-induced weight penalty of the primal.  The closed-form
log-normalizer, the dual objective, is not here: no command computes it,
since the trainer solves the variational primal; the test oracle keeps it
to certify the exact optimum.
"""

import math
from dataclasses import dataclass

import numpy as np

from .chain import FeatureSpec, _as_array, _check_count, _check_real, _check_reals, _first_non_number, _shown
from .optimize import SubgradConfig, _Diverged, _KernelData, _lockstep

__all__ = [
    "LaplaceConfig",
    "VARIANCE_FLOOR",
    "train_laplace_grid",
    "shrinkage_mean",
    "kl_norm",
]

# Floor on posterior variances: keeps the next round's inverse-variance
# penalty finite as second moments collapse toward zero.
VARIANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class LaplaceConfig:
    """Hyperparameters for the variational Laplace trainer.

    ``lam`` is the prior scale; ``inner`` the subgradient schedule of each
    inner solve, whose ``C`` is the hinge weight and must be positive, and
    which may not have a radius; ``outer_iters`` the loop bound T, giving
    T - 1 alternations.
    """

    lam: float
    inner: SubgradConfig
    outer_iters: int = 4

    def __post_init__(self):
        object.__setattr__(self, "lam", _check_real("lam", self.lam))
        _check_real("C", self.inner.C)
        if self.inner.radius is not None:
            raise ValueError("a lapmedn inner config takes no radius")
        object.__setattr__(self, "outer_iters", _check_count("outer_iters", self.outer_iters, 2, None))


def train_laplace_grid(data: list, spec: FeatureSpec, cfgs, *, subsets=None):
    """Variational trainer for the Laplace-prior weight posterior, over any
    mix of :class:`LaplaceConfig` and :class:`~medn.optimize.SubgradConfig` rows.

    Starting from mean 0 and unit variances, each of the T - 1 rounds
    (1) re-solves the max-margin problem under the quadratic penalty
    diag(1 / var) to refresh the mean, forms the diagonal second moment
    var + mean**2, then (2) resets each variance to
    sqrt(second_moment / lam).  Variances are floored at VARIANCE_FLOOR so
    the next penalty stays finite.  Unsupported coordinates keep mean zero
    and their variances contract toward the prior scale, which is what
    drives the shrinkage of irrelevant-feature weights.

    Returns the (B, K) posterior means and variances, one row per config,
    in config order.  ``LaplaceConfig`` rows run every round; they must
    share ``outer_iters``.  Round 1's penalty is the identity for every
    row, so ``SubgradConfig`` rows train in round 1 only: m3n, or l1m3n if
    they have a radius; their variances are 1.  Every row's config must
    share the inner ``iterations``; ``lam``, ``C``, ``beta`` and ``seed``
    may differ.  Row b trains on ``data[i] for i in subsets[b]`` (all of
    ``data`` when ``subsets`` is None).  Each round is one call of the
    kernel, ``optimize._lockstep``, over its rows, followed by each lapmedn
    row's variance refresh, so each row is bit-equal to training its
    config alone.  The rounds share one preparation of
    ``data``: one check of each instance, its stacks and gold features, and
    the instance orders.

    Checks the configs and training sets, which the kernel trusts.  Raises
    ``ValueError`` naming the round and lam when a variance overflows, as
    for a subnormal lam, and when a row diverges in round 2 or later, under
    the penalty that lam set; a round-1 divergence is the kernel's
    ``RuntimeError``, naming the row's seed and beta.
    """
    cfgs = list(cfgs)
    if not cfgs:
        raise ValueError("need at least one configuration")
    if len({getattr(cfg, "inner", cfg).iterations for cfg in cfgs}) > 1:
        raise ValueError("lockstep configurations must share iterations")
    if len({cfg.outer_iters for cfg in cfgs if isinstance(cfg, LaplaceConfig)}) > 1:
        raise ValueError("lockstep configurations must share outer_iters")
    # Every round trains on the same data: check it, stack it and draw the
    # instance orders once.
    kernel = _KernelData(data, spec)
    n, batch = kernel.n, len(cfgs)
    given = [np.arange(n)] * batch if subsets is None else list(subsets)
    if len(given) != batch:
        raise ValueError("need one training set per configuration")
    subsets = []
    for b, s in enumerate(given):
        subset = s if isinstance(s, np.ndarray) else _as_array(f"training set {b}", s)
        if subset.ndim != 1 or not subset.size or subset.dtype.kind not in "iu":
            raise ValueError("a training set must be a nonempty vector of instance indices")
        # numpy reads a bool among ints as an int; an index array holds none.
        at = None if subset is s else _first_non_number(s)
        if at is not None:
            raise ValueError(f"training set {b} must hold instance indices, got a bool at index {_shown(at)}")
        if np.minimum.reduce(subset) < 0 or np.maximum.reduce(subset) >= n:
            raise ValueError(f"training set indices must lie in [0, {n})")
        # One dtype, so that equal training sets, and only they, have equal bytes.
        subsets.append(subset.astype(np.int64))
    return _train_rounds(kernel, cfgs, subsets)


def _train_rounds(kernel: _KernelData, cfgs: list, subsets: list):
    """:func:`train_laplace_grid`'s rounds over checked configs and training
    sets and the prepared data; (B, K) means and variances."""
    laplace = [b for b, cfg in enumerate(cfgs) if isinstance(cfg, LaplaceConfig)]
    inners = [getattr(cfg, "inner", cfg) for cfg in cfgs]
    lams = np.array([cfgs[b].lam for b in laplace])[:, None]
    mean = _lockstep(kernel, inners, subsets)
    var = np.ones_like(mean)
    var[laplace] = _refresh_variances(var[laplace], mean[laplace], lams, 1)
    # Rounds 2 to T - 1 carry the lapmedn rows alone.
    inners, subsets = [inners[b] for b in laplace], [subsets[b] for b in laplace]
    for round_ in range(2, max((cfgs[b].outer_iters for b in laplace), default=2)):
        try:
            mean[laplace] = _lockstep(kernel, inners, subsets, inv_diag=1.0 / var[laplace])
        except _Diverged as exc:
            # Round 1 trained the same row under the identity penalty, so
            # the variances that lam set, not the step size, let it diverge.
            raise ValueError(
                f"lam {lams[exc.row, 0]:g} made round {round_} diverge: {exc.where} and reached "
                f"L2 norm {exc.norm:.6g}; use a larger lam"
            ) from None
        var[laplace] = _refresh_variances(var[laplace], mean[laplace], lams, round_)
    return mean, var


def _refresh_variances(var, mean, lams, round_):
    """sqrt((var + mean**2) / lam), floored; ValueError if one overflows."""
    with np.errstate(over="ignore"):
        var = np.maximum(np.sqrt((var + mean**2) / lams), VARIANCE_FLOOR)
    bad = np.flatnonzero(~np.isfinite(var).all(axis=1))
    if bad.size:
        raise ValueError(
            f"lam {lams[bad[0], 0]:g} overflowed the variance refresh in round {round_}; use a larger lam"
        )
    return var


def shrinkage_mean(eta: float, lam: float) -> float:
    """Posterior-mean map eta -> 2 * eta / (lam - eta**2).

    Defined for eta**2 < lam; outside that region the posterior
    normalizer diverges.  Odd in eta, and for fixed eta the output shrinks
    toward zero as lam grows.
    """
    eta, lam = _check_real("eta", eta, "finite"), _check_real("lam", lam)
    if not eta * eta < lam:
        raise ValueError("eta**2 must be < lam (normalizer diverges)")
    return 2.0 * eta / (lam - eta * eta)


def kl_norm(mu, lam: float) -> float:
    """Weight penalty induced by a Laplace(lam) prior.

    sum_k sqrt(mu_k**2 + 1/lam) - log((sqrt(lam mu_k**2 + 1) + 1) / 2) / sqrt(lam).
    Each term increases with mu_k**2 and tends to |mu_k| as lam grows, so
    the penalty interpolates toward the L1 norm.  The posterior KL
    divergence equals sqrt(lam) * kl_norm(mu, lam) - K, which is
    nonnegative and vanishes only at mu = 0.

    Computed without squaring mu, so every finite mu has a finite term:
    with s = sqrt(lam) and r = hypot(mu_k, 1/s), the term is
    r - (log s + log(r + 1/s) - log 2) / s.
    """
    lam = _check_real("lam", lam)
    mu = _check_reals("mu", mu, None)
    s = math.sqrt(lam)
    r = np.hypot(mu, 1.0 / s)
    return float(np.sum(r - (math.log(s) + np.log(r + 1.0 / s) - math.log(2.0)) / s))


def _kl_excess(mu, lam: float) -> float:
    """kl_norm(mu, lam) - kl_norm(0, lam) without cancellation.

    Each term's excess over its value at 0 is computed directly:
    sqrt(mu**2 + 1/lam) - 1/sqrt(lam) = mu**2 / (sqrt(mu**2 + 1/lam) + 1/sqrt(lam))
    and log((root + 1) / 2) = log1p(lam mu**2 / (root + 1) / 2).  Subtracting
    the two sides instead loses every digit once 1/sqrt(lam) dwarfs them.
    """
    root = np.sqrt(lam * mu**2 + 1.0)
    inv_sqrt = 1.0 / math.sqrt(lam)
    radial = mu**2 / (np.sqrt(mu**2 + 1.0 / lam) + inv_sqrt)
    return float(np.sum(radial - np.log1p(lam * mu**2 / (root + 1.0) / 2.0) * inv_sqrt))

