"""Synthetic sequence data.

Datasets come from a randomly drawn sparse chain model: input features are
standard normal (optionally group-correlated), and each labeling is a Gibbs
sample from the model's conditional distribution over label sequences.
Every draw is keyed off the config seed through independent named streams,
one per instance for features and one per instance for its Gibbs chain, so
a config fully determines its dataset.

One kernel, :func:`gibbs_chains`, runs every Gibbs chain: a systematic scan
that, at each (sweep, position) step, redraws that position in all chains
at once with numpy array operations.  Each chain still draws only from its
own stream and in the order a lone chain would, so batching changes no
labeling: a chain run with others draws what it draws alone.  Scores are
label-major, so a step's reductions over labels are elementwise across chains.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .chain import _COUNT_LIMIT, FeatureSpec, SequenceInstance, _check_weights
from .optimize import _check_seed

__all__ = [
    "GeneratorConfig",
    "TrueCrf",
    "SyntheticDataset",
    "gen_crf",
    "gen_features",
    "gibbs_chains",
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
        # Each count with its least value; a count sizes arrays, so it
        # stays below _COUNT_LIMIT.
        for name, least in (("d", 1), ("d_rel", 0), ("L", 1), ("m", 2), ("n_samples", 0),
                            ("gibbs_iters", 1), ("group_size", 0)):
            value = getattr(self, name)
            if not (_is_count(value) and least <= value < _COUNT_LIMIT):
                raise ValueError(f"{name} must be an integer in [{least}, 2**59), got {value!r}")
        # So does each product of counts that sizes an array: an instance's
        # (L, d) features, the d * m + m * m weights, the (L, m, n) scores,
        # a block of uniforms and the (n, L, d) feature stack.  The largest
        # factor is named.
        n, length, d, m = self.n_samples, self.L, self.d, self.m
        block = min(_SWEEP_BLOCK, self.gibbs_iters)
        factors = {"n_samples": n, "L": length, "d": d, "m": m, "gibbs_iters": block}
        for names, expr, size in (
            (("L", "d"), "L * d", length * d),
            (("d", "m"), "d * m + m * m", (d + m) * m),
            (("L", "m", "n_samples"), "L * m * n_samples", length * m * n),
            (("gibbs_iters", "L", "n_samples"), f"min({_SWEEP_BLOCK}, gibbs_iters) * L * n_samples",
             block * length * n),
            (("n_samples", "L", "d"), "n_samples * L * d", n * length * d),
        ):
            if size >= _COUNT_LIMIT:
                name = max(names, key=factors.get)
                raise ValueError(f"{name} must keep {expr} below 2**59, got {size}")
        _check_seed(self.seed)
        if self.d_rel > self.d:
            raise ValueError("d_rel must lie in [0, d]")
        if not isinstance(self.correlated, bool):
            raise ValueError(f"correlated must be a bool, got {self.correlated!r}")
        if not isinstance(self.noise_sd, numbers.Real) or isinstance(self.noise_sd, bool):
            raise ValueError(f"noise_sd must be a real number, got {self.noise_sd!r}")
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
        self.weights = _check_weights(self.spec, self.weights, 1)


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


def gen_features(cfg: GeneratorConfig, rng) -> np.ndarray:
    """One (L, d) input-feature matrix drawn from the numpy Generator ``rng``.

    Default: i.i.d. standard normal entries.  In correlated mode each
    relevant group shares one standard-normal base draw per position,
    corrupted per member by independent N(0, noise_sd**2) noise; irrelevant
    features stay i.i.d.  Noise past the float range comes out infinite,
    without a warning.
    """
    if not cfg.correlated:
        return rng.standard_normal((cfg.L, cfg.d))
    x = np.empty((cfg.L, cfg.d))
    n_groups = cfg.d_rel // cfg.group_size
    base = rng.standard_normal((cfg.L, n_groups))
    with np.errstate(over="ignore"):
        noise = rng.standard_normal((cfg.L, cfg.d_rel)) * cfg.noise_sd
    x[:, : cfg.d_rel] = np.repeat(base, cfg.group_size, axis=1) + noise
    x[:, cfg.d_rel :] = rng.standard_normal((cfg.L, cfg.d - cfg.d_rel))
    return x


def _is_count(value) -> bool:
    """``value`` is a nonnegative integer; a bool is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 0


def _with_neighbors(node, trans, bound):
    """(L, m, n) ``node`` scores plus, at each site, the ``bound`` (``np.min``
    or ``np.max``) over neighbor labels of each label's transition scores
    from the previous site and to the next, added in the sampler's order."""
    length, m, _ = node.shape
    before, after = np.zeros((2, length, m, 1))
    before[1:, :, 0] = bound(trans, axis=0)
    after[:-1, :, 0] = bound(trans, axis=1)
    return node + before + after


def gibbs_chains(crf: TrueCrf, xs, seeds, burn_in: int, n_record: int):
    """Run one Gibbs chain per (L, d) input in ``xs``, all in lockstep.

    Returns the (n, L) labels after ``burn_in + n_record`` sweeps and the
    (n_record, n, L) states after each of the last ``n_record`` sweeps.
    Each sweep redraws every position in order from its exact conditional
    given its neighbors and its state scores.  Chain ``i`` draws only from
    ``seeds[i]``, an int or a numpy Generator: its start labels as
    ``integers(0, m, L)``, then one uniform per site in scan order, drawn in
    blocks of ``_SWEEP_BLOCK`` sweeps (a block ``random((k, L))`` yields the
    same values as ``k * L`` single draws), so a chain run with others draws
    what it draws alone.  Checked once, on the stacked inputs: at least one
    chain, one seed per input, finite nonempty inputs of one shared L with
    ``crf.spec.d`` features, and integer sweep counts ``>= 0`` that add up
    to at least one sweep.  Finite inputs whose scores could pass the float
    range raise ``ValueError`` naming the first such chain, before any
    draw.  Rounded addition is monotone, so a site's logits, whatever its
    neighbors' labels, lie between those that add each label's smallest
    and largest transition scores; the check bounds those, and how far the
    smallest falls below the site's largest.

    Scores are label-major, (L, m, n), so a site's max, exp and pick count
    over labels each take one numpy call across all n chains.  Its label
    CDF is a running sum over the rows of one (m, n) buffer: m - 1 in-place
    adds, each of one label row across all n chains, in the order
    ``cumsum`` adds, so every draw is the one ``cumsum`` gave.  ``cumsum``
    along axis 0 walks such a block one chain at a time; it costs one call
    where the running sum costs one per label, so the running sum wins with
    many chains per label and loses with few: against ``cumsum``, 0.86x to
    0.97x at gen-synth's m = 2 for n from 1 to 5000, but 2.98x at m = 26
    with one chain (the README has the table).  The pick counts the rows
    below the top one that ``u * total`` reaches.  The CDF is
    nondecreasing, so that is the count over all m rows clamped to m - 1,
    with no clamp to compute; the highest-scoring label's exp is 1, so the
    total is at least 1, and a uniform below 1 times it stays below it.
    A site's logits add its node score, then the previous neighbor's
    transition, then the next one's; addition does not associate, so another
    order would round some logits differently and flip draws near a
    cumulative boundary, changing generated datasets.
    """
    spec = crf.spec
    if not len(xs):
        raise ValueError("need at least one chain")
    if len(seeds) != len(xs):
        raise ValueError(f"need one seed per input: {len(xs)} inputs, {len(seeds)} seeds")
    if not all(isinstance(seed, np.random.Generator) or _is_count(seed) for seed in seeds):
        raise ValueError("each seed must be a nonnegative int or a numpy Generator")
    try:
        xs = np.asarray(xs, dtype=float)
    except ValueError:
        raise ValueError("inputs must be numeric (L, d) matrices of one shared length") from None
    if xs.ndim != 3 or not xs.shape[1]:
        raise ValueError("each input must be a nonempty (L, d) matrix")
    if xs.shape[2] != spec.d:
        raise ValueError(f"expected {spec.d} input features, got {xs.shape[2]}")
    if not np.all(np.isfinite(xs)):
        raise ValueError("features must be finite")
    for name, value in (("burn_in", burn_in), ("n_record", n_record)):
        if not _is_count(value):
            raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    total = int(burn_in) + int(n_record)
    if not total:
        raise ValueError("need at least one sweep: burn_in + n_record is 0")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    state = spec.state_view(crf.weights)
    trans = spec.transition_view(crf.weights)
    trans_t = np.ascontiguousarray(trans.T)
    m = spec.m
    # Label-major (L, m, n); one chain matmul each, as a lone chain would.
    with np.errstate(over="ignore", invalid="ignore"):
        node = np.stack([x @ state for x in xs], axis=2)
        low, high = (_with_neighbors(node, trans, bound) for bound in (np.min, np.max))
        finite = np.isfinite(low - high.max(axis=1, keepdims=True)).all(axis=(0, 1))
    if not finite.all():
        raise ValueError(f"chain {np.argmin(finite)}: its scores pass the float range")
    length, _, n = node.shape
    y = np.stack([rng.integers(0, m, size=length) for rng in rngs], axis=1)
    out = np.empty((n_record, n, length), dtype=np.int64)
    # (block, L, n): the uniforms of one (sweep, position) are contiguous.
    uniforms = np.empty((min(_SWEEP_BLOCK, total), length, n))
    # A site's (m, n) label CDF, and its rows paired for the running sum.
    cdf = np.empty((m, n))
    running_sum = list(zip(cdf, cdf[1:]))
    below_top = cdf[:-1]
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
                    logits = logits + trans_t.take(y[l - 1], axis=1)
                if l + 1 < length:
                    logits = logits + trans.take(y[l + 1], axis=1)
                np.exp(logits - logits.max(axis=0), out=cdf)
                for below, row in running_sum:
                    row += below
                y[l] = (r[l] * cdf[-1] >= below_top).sum(axis=0)
            if sweep >= burn_in:
                out[sweep - burn_in] = y.T
    return np.ascontiguousarray(y.T), out


def gen_dataset(cfg: GeneratorConfig) -> SyntheticDataset:
    """``n_samples`` instances from one randomly generated model.

    Instance ``i`` gets fresh input features from the stream
    ``[_STREAM_FEATURES, seed, i]`` and a labeling sampled by a
    ``gibbs_iters``-sweep chain drawing from ``[_STREAM_GIBBS, seed, i]``.
    All chains advance together in one :func:`gibbs_chains` call; because
    each keeps its own stream, instance ``i``'s labeling equals
    ``gibbs_chains(crf, [x_i], [default_rng([_STREAM_GIBBS, seed, i])], gibbs_iters, 0)``
    and the dataset is a pure function of the config.  A ``noise_sd`` that
    puts features past the float range raises ``ValueError`` naming it.
    """
    crf = gen_crf(cfg)
    if cfg.n_samples == 0:
        return SyntheticDataset(crf=crf, instances=[])
    # The (n, L, d) stack is allocated before any instance is drawn, so an
    # n past memory fails at once.
    xs = np.empty((cfg.n_samples, cfg.L, cfg.d))
    for i, x in enumerate(xs):
        x[:] = gen_features(cfg, np.random.default_rng([_STREAM_FEATURES, cfg.seed, i]))
    finite = np.isfinite(xs).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"noise_sd {cfg.noise_sd:g} puts the features of instance "
                         f"{np.argmin(finite)} past the float range")
    rngs = [np.random.default_rng([_STREAM_GIBBS, cfg.seed, i]) for i in range(cfg.n_samples)]
    labels, _ = gibbs_chains(crf, xs, rngs, cfg.gibbs_iters, 0)
    instances = [SequenceInstance(features=x, labels=y) for x, y in zip(xs, labels)]
    return SyntheticDataset(crf=crf, instances=instances)
