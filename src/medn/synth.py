"""Synthetic sequence data.

Datasets come from a randomly drawn sparse chain model: input features are
standard normal (optionally group-correlated), and each labeling is a Gibbs
sample from the model's conditional distribution over label sequences.
Every draw is keyed off the config seed through independent named streams,
one per instance for features and one per instance for its Gibbs chain, so
a config fully determines its dataset.

One kernel runs every Gibbs chain: a systematic scan that, at each (sweep,
position) step, redraws that position in all chains at once with numpy
array operations.  Each chain still draws only from its own stream and in
the order a lone chain would, so batching changes no labeling, and
:func:`gibbs_label` and :func:`gibbs_samples` are that kernel with one chain.
"""

import math
from dataclasses import dataclass

import numpy as np

from .chain import FeatureSpec, SequenceInstance, _check_weights

__all__ = [
    "GeneratorConfig",
    "TrueCrf",
    "SyntheticDataset",
    "gen_crf",
    "gen_features",
    "gibbs_label",
    "gibbs_samples",
    "gen_dataset",
]

# Seed-stream tags: keep model, feature, and labeling draws independent.
_STREAM_CRF = 0
_STREAM_FEATURES = 1
_STREAM_GIBBS = 2

# Sweeps of uniforms drawn per generator call: bounds the kernel's uniform
# buffer at n * _SWEEP_BLOCK * L floats whatever the sweep count.
_SWEEP_BLOCK = 64


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape and randomness of one synthetic dataset.

    ``d`` input features per position, the first ``d_rel`` of which carry
    signal; sequences of length ``L`` over ``m`` labels; ``n_samples``
    instances; ``gibbs_iters`` full resampling sweeps per labeling.  In
    correlated mode the relevant features are split into consecutive groups
    of ``group_size`` that share a base draw corrupted by N(0, noise_sd**2)
    noise.
    """

    d: int
    d_rel: int
    L: int
    m: int
    n_samples: int
    gibbs_iters: int = 500
    correlated: bool = False
    group_size: int = 1
    noise_sd: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.d < 1 or self.L < 1 or self.m < 2:
            raise ValueError("need d >= 1, L >= 1, m >= 2")
        if not 0 <= self.d_rel <= self.d:
            raise ValueError("d_rel must lie in [0, d]")
        if self.n_samples < 0:
            raise ValueError("n_samples must be nonnegative")
        if self.gibbs_iters < 1:
            raise ValueError("gibbs_iters must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not math.isfinite(self.noise_sd):
            raise ValueError(f"noise_sd must be finite, got {self.noise_sd:g}")
        if self.correlated:
            if self.group_size < 1 or self.d_rel % self.group_size != 0:
                raise ValueError("group_size must divide d_rel in correlated mode")
            if not self.noise_sd > 0:
                raise ValueError("noise_sd must be positive in correlated mode")


@dataclass
class TrueCrf:
    """Generating chain model: (K,) weights over ``spec``, whose state
    weights vanish off the relevant features."""

    spec: FeatureSpec
    weights: np.ndarray
    relevant: np.ndarray

    def __post_init__(self):
        self.weights = _check_weights(self.spec, self.weights)


@dataclass
class SyntheticDataset:
    """Generated instances together with the model that produced them."""

    crf: TrueCrf
    instances: list


def gen_crf(cfg: GeneratorConfig) -> TrueCrf:
    """Random generating model for one dataset.

    State weights on the first ``d_rel`` input features and all transition
    weights are i.i.d. standard normal; remaining state weights are exactly
    zero.  Deterministic per config seed.
    """
    rng = np.random.default_rng([_STREAM_CRF, cfg.seed])
    spec = FeatureSpec(cfg.d, cfg.m)
    w = np.zeros(spec.K)
    spec.state_view(w)[: cfg.d_rel] = rng.standard_normal((cfg.d_rel, cfg.m))
    spec.transition_view(w)[:] = rng.standard_normal((cfg.m, cfg.m))
    return TrueCrf(spec, w, relevant=np.arange(cfg.d_rel))


def gen_features(cfg: GeneratorConfig, rng=None) -> np.ndarray:
    """One (L, d) input-feature matrix.

    Default: i.i.d. standard normal entries.  In correlated mode each
    relevant group shares one standard-normal base draw per position,
    corrupted per member by independent N(0, noise_sd**2) noise; irrelevant
    features stay i.i.d.
    """
    if rng is None:
        rng = np.random.default_rng([_STREAM_FEATURES, cfg.seed])
    if not cfg.correlated:
        return rng.standard_normal((cfg.L, cfg.d))
    x = np.empty((cfg.L, cfg.d))
    n_groups = cfg.d_rel // cfg.group_size
    base = rng.standard_normal((cfg.L, n_groups))
    noise = rng.standard_normal((cfg.L, cfg.d_rel)) * cfg.noise_sd
    x[:, : cfg.d_rel] = np.repeat(base, cfg.group_size, axis=1) + noise
    x[:, cfg.d_rel :] = rng.standard_normal((cfg.L, cfg.d - cfg.d_rel))
    return x


def _run_chains(crf: TrueCrf, xs, rngs, burn_in: int, n_record: int):
    """Advance one Gibbs chain per feature matrix in ``xs``, all in lockstep.

    Chain ``i`` draws only from ``rngs[i]``: its start labels as
    ``integers(0, m, L)``, then one uniform per site in scan order, drawn in
    blocks of ``_SWEEP_BLOCK`` sweeps (a block ``random((k, L))`` yields the
    same values as ``k * L`` single draws).  Each (sweep, position) step
    redraws that position of every chain with one set of array operations,
    by inverse CDF over the unnormalized conditional.  Returns the final
    labels as (n, L) and the states after each post-burn-in sweep as
    (n_record, n, L).
    """
    spec = crf.spec
    state = spec.state_view(crf.weights)
    trans = spec.transition_view(crf.weights)
    trans_t = np.ascontiguousarray(trans.T)
    m = spec.m
    # Position-major (L, n, m): one chain matmul each, as a scalar chain would.
    node = np.stack([np.asarray(x, dtype=float) @ state for x in xs], axis=1)
    length, n = node.shape[:2]
    y = np.stack([rng.integers(0, m, size=length) for rng in rngs], axis=1)
    out = np.empty((n_record, n, length), dtype=np.int64)
    total = burn_in + n_record
    # (block, L, n): the uniforms of one (sweep, position) are contiguous.
    uniforms = np.empty((min(_SWEEP_BLOCK, total), length, n))
    for block_start in range(0, total, _SWEEP_BLOCK):
        block = min(_SWEEP_BLOCK, total - block_start)
        for i, rng in enumerate(rngs):
            uniforms[:block, :, i] = rng.random((block, length))
        for sweep in range(block_start, block_start + block):
            r = uniforms[sweep - block_start]
            for l in range(length):
                # Keep this order of adds (node, previous, next): the pinned
                # gen-synth digests in the tests depend on its rounding.
                logits = node[l]
                if l > 0:
                    logits = logits + trans[y[l - 1]]
                if l + 1 < length:
                    logits = logits + trans_t[y[l + 1]]
                cdf = np.exp(logits - logits.max(axis=1, keepdims=True)).cumsum(axis=1)
                u = r[l] * cdf[:, -1]
                pick = (u[:, None] >= cdf).sum(axis=1)
                y[l] = np.minimum(pick, m - 1)
            if sweep >= burn_in:
                out[sweep - burn_in] = y.T
    return np.ascontiguousarray(y.T), out


def gibbs_label(crf: TrueCrf, x: np.ndarray, sweeps: int, seed) -> np.ndarray:
    """Labeling after ``sweeps`` systematic single-site resampling passes.

    Each position is redrawn in order from its exact conditional given its
    neighbors and local state scores; the chain starts from a uniform random
    labeling.  ``seed`` may be an int or a numpy Generator.  Runs the
    lockstep kernel of :func:`gen_dataset` with a single chain, so a
    labeling drawn here from a given generator equals the one
    :func:`gen_dataset` draws from that generator.
    """
    if sweeps < 1:
        raise ValueError("sweeps must be at least 1")
    y, _ = _run_chains(crf, [x], [np.random.default_rng(seed)], burn_in=sweeps, n_record=0)
    return y[0]


def gibbs_samples(
    crf: TrueCrf, x: np.ndarray, n_samples: int, burn_in: int, seed
) -> np.ndarray:
    """States after each post-burn-in sweep of one chain, as (n_samples, L).

    Same single-chain kernel and draw order as :func:`gibbs_label`.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    rng = np.random.default_rng(seed)
    _, out = _run_chains(crf, [x], [rng], burn_in=burn_in, n_record=n_samples)
    return out[:, 0]


def gen_dataset(cfg: GeneratorConfig) -> SyntheticDataset:
    """``n_samples`` instances from one randomly generated model.

    Instance ``i`` gets fresh input features from the stream
    ``[_STREAM_FEATURES, seed, i]`` and a labeling sampled by a
    ``gibbs_iters``-sweep chain drawing from ``[_STREAM_GIBBS, seed, i]``.
    All chains advance together in one lockstep kernel; because each keeps
    its own stream, instance ``i``'s labeling equals
    ``gibbs_label(crf, x_i, gibbs_iters, default_rng([_STREAM_GIBBS, seed, i]))``
    and the dataset is a pure function of the config.
    """
    crf = gen_crf(cfg)
    if cfg.n_samples == 0:
        return SyntheticDataset(crf=crf, instances=[])
    xs = [
        gen_features(cfg, rng=np.random.default_rng([_STREAM_FEATURES, cfg.seed, i]))
        for i in range(cfg.n_samples)
    ]
    rngs = [np.random.default_rng([_STREAM_GIBBS, cfg.seed, i]) for i in range(cfg.n_samples)]
    labels, _ = _run_chains(crf, xs, rngs, burn_in=cfg.gibbs_iters, n_record=0)
    instances = [SequenceInstance(features=x, labels=y) for x, y in zip(xs, labels)]
    return SyntheticDataset(crf=crf, instances=instances)
