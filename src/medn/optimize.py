"""Optimization kernels for structured hinge objectives.

One stochastic subgradient kernel, :func:`lockstep_train`, advances B
trajectories in lockstep.  Each trajectory trains on its own subset of the
data in its own per-epoch shuffled order, drawn from its own seed, with
its own step size ``1 / (2 * beta * sqrt(t))``, where t counts its
individual updates, and its own hinge weight C.  Its step either shrinks
toward zero and preconditions by a diagonal quadratic penalty, or projects
onto an L1 ball.  At each step the trajectories whose current instances
share a length are decoded in one DP call.  A single model is the kernel
with one config (B = 1); cross-validation runs every fold's configs in
one call.  It returns the final iterates as a (B, K) array.

A kernel call prepares once whatever the weights do not change: it checks
each instance, stacks the instances by length with their gold feature
vectors and gold one-hots, draws each seed's instance order, and gives each
bucket of rows decoded together its ``2 * beta``, hinge weights, penalty
scales and shrink sizes.  lapmedn's rounds share one preparation.  An
update then does only what depends on the weights: the loss-augmented DP,
the in-place shrink, the hit test, one feature map of the hit rows'
winners and the in-place step (with no row gathers when every row of the
bucket is hit), the projection of the projecting rows, and a divergence
test that builds its per-row mask only when it is about to raise.
"""

import math
from dataclasses import dataclass

import numpy as np

from .chain import (
    FeatureSpec,
    _check_instance,
    _check_weights,
    _loss_augmented_scores,
    _viterbi,
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
    ``iterations`` is the number of full passes over the training set;
    ``C`` weights the hinge term (C == 0 degenerates to the penalty-only
    problem); ``seed`` drives the per-epoch instance shuffle.
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


def _check_data(data, spec: FeatureSpec) -> list:
    """Each instance as a checked (x, y) pair; ValueError if ``data`` is empty."""
    if not data:
        raise ValueError("training data must be nonempty")
    return [_check_instance(spec, inst.features, inst.labels) for inst in data]


def lockstep_train(
    data: list,
    spec: FeatureSpec,
    cfgs,
    *,
    inv_diag: np.ndarray | None = None,
    radii=None,
    subsets=None,
) -> np.ndarray:
    """Run one subgradient trajectory per config in lockstep; (B, K) final iterates.

    Row b trains on the instances ``data[i] for i in subsets[b]`` (all of
    ``data`` when ``subsets`` is None).  Each epoch it visits them in the
    order a generator seeded ``cfgs[b].seed`` draws, keeping its own
    update count t, epoch and training-set size n, so rows of different
    training sets run side by side; a row stops after ``iterations``
    epochs, which the configs must share.  Each row keeps its own ``beta``
    and ``C``.  The step rule goes by position: ``inv_diag`` (S, K) covers
    the first S rows and ``radii`` (P,) the last P, with S + P = B.

    * an ``inv_diag`` row approximately minimizes
      0.5 w' diag(inv) w + C * sum_i hinge_i(w).  Each update shrinks w by
      (1 - alpha / n), then adds alpha * C times the subgradient
      preconditioned by 1 / inv, so stiff coordinates (tiny penalty
      variance) stay numerically stable;
    * a ``radii`` row minimizes C * sum_i hinge_i(w) subject to
      ||w||_1 <= radius.  Each update adds alpha * C times the subgradient,
      then projects onto the ball, so all iterates are feasible.

    hinge_i(w) = max_y [w'f(x_i, y) + hamming(y, y_i)] - w'f(x_i, y_i), with
    the inner maximum found by loss-augmented decoding; when the winner
    equals the gold labeling the instance adds no data term.  At each step
    the rows whose current instances share a length are decoded in one DP
    call, and the gold feature vectors are computed once for all of
    ``data``.  Starts from w = 0.  Every row is bit-equal to running its
    config alone on its training set.  Raises ``RuntimeError`` naming the
    row's seed and beta as soon as a row stops being finite or its L2 norm
    exceeds ``DIVERGENCE_LIMIT``.
    """
    kernel = _KernelData(data, spec)
    return _lockstep(kernel, cfgs, inv_diag=inv_diag, radii=radii, subsets=subsets)


def _check_inv_diag(spec: FeatureSpec, inv_diag, ndim: int) -> np.ndarray:
    """``inv_diag`` as a float array of ``ndim`` dimensions with K entries
    along the last, every one positive and finite; ValueError otherwise."""
    inv_diag = np.asarray(inv_diag, dtype=float)
    if inv_diag.ndim != ndim or inv_diag.shape[-1] != spec.K:
        want = f"({spec.K},)" if ndim == 1 else f"(rows, {spec.K})"
        raise ValueError(
            f"regularizer dimension disagrees with spec: need inv_diag of shape {want}, "
            f"got {inv_diag.shape}"
        )
    if not np.all(np.isfinite(inv_diag)) or np.any(inv_diag <= 0):
        raise ValueError("inv_diag entries must be positive and finite")
    return inv_diag


class _KernelData:
    """What a kernel call needs of its data that no iterate changes, prepared
    once and shared by every call on the same data (lapmedn's rounds).

    Each instance is checked once.  ``stacks[L]`` holds the inputs, labels,
    float gold one-hots (L, m) and gold feature vectors of the instances of
    length L, and ``slot[i]`` is instance i's place there; ``instances[i]``
    is that slice of each stack.  Each (seed, training set) draws its
    instance order once.
    """

    def __init__(self, data, spec: FeatureSpec):
        checked = _check_data(data, spec)
        self.spec, self.n = spec, len(checked)
        self.lengths = [len(y) for _, y in checked]
        self.slot = np.empty(self.n, dtype=np.int64)
        self.stacks = {}
        for length, (members, xs, ys) in _stack_by_length(checked).items():
            self.slot[members] = np.arange(len(members))
            onehot = (ys[..., None] == np.arange(spec.m)).astype(float)
            self.stacks[length] = (xs, ys, onehot, feature_vectors(spec, xs, ys))
        self.instances = [
            tuple(a[at] for a in self.stacks[length])
            for length, at in zip(self.lengths, self.slot.tolist())
        ]
        self._orders = {}

    def draws(self, seed: int, subset: np.ndarray, iterations: int) -> np.ndarray:
        """The instances of ``subset`` visited over ``iterations`` epochs, each
        epoch in the order a generator seeded ``seed`` draws."""
        key = (seed, subset.tobytes(), iterations)
        if key not in self._orders:
            rng = np.random.default_rng(seed)
            draws = [subset[rng.permutation(len(subset))] for _ in range(iterations)]
            self._orders[key] = np.concatenate(draws)
        return self._orders[key]


def _lockstep(kernel: _KernelData, cfgs, *, inv_diag=None, radii=None, subsets=None):
    """:func:`lockstep_train` on prepared data."""
    spec, n = kernel.spec, kernel.n
    cfgs = list(cfgs)
    if not cfgs:
        raise ValueError("need at least one configuration")
    iterations = cfgs[0].iterations
    if any(cfg.iterations != iterations for cfg in cfgs):
        raise ValueError("lockstep configurations must share iterations")
    batch = len(cfgs)
    inv_diag = np.ones((0, spec.K)) if inv_diag is None else _check_inv_diag(spec, inv_diag, 2)
    radii = np.ones(0) if radii is None else np.asarray(radii, dtype=float)
    if radii.ndim != 1 or len(inv_diag) + len(radii) != batch:
        raise ValueError("need one step rule per configuration: inv_diag rows, then radii")
    if not np.all(radii > 0):
        raise ValueError("radius must be positive")
    subsets = [np.arange(n)] * batch if subsets is None else [np.asarray(s) for s in subsets]
    if len(subsets) != batch:
        raise ValueError("need one training set per configuration")
    for subset in subsets:
        if subset.ndim != 1 or not subset.size or subset.dtype.kind not in "iu":
            raise ValueError("a training set must be a nonempty vector of instance indices")
        if subset.min() < 0 or subset.max() >= n:
            raise ValueError(f"training set indices must lie in [0, {n})")
    # One dtype, so that equal training sets, and only they, have equal bytes.
    subsets = [subset.astype(np.int64) for subset in subsets]

    # Rows of one seed and training set form a group: they visit the same
    # instances, drawn once.  order[s, g] is group g's instance at step s,
    # or -1 once the group has run its epochs.
    groups = {}
    row_group = np.array(
        [groups.setdefault((cfg.seed, s.tobytes()), (len(groups), cfg.seed, s))[0]
         for cfg, s in zip(cfgs, subsets)]
    )
    sizes = np.array([len(s) for _, _, s in groups.values()])
    order = np.full((iterations * sizes.max(), len(groups)), -1)
    for g, seed, subset in groups.values():
        order[: iterations * len(subset), g] = kernel.draws(seed, subset, iterations)

    def make_bucket(live):
        rows = np.flatnonzero(np.isin(row_group, live))
        s = int(np.searchsorted(rows, len(inv_diag)))
        return _Bucket(
            rows,
            row_group[rows],
            np.array([2.0 * cfgs[b].beta for b in rows]),
            np.array([cfgs[b].C for b in rows]),
            sizes[row_group[rows]],
            # A projecting row's subgradient is scaled by 1, which is exact.
            np.vstack([1.0 / inv_diag[rows[:s]], np.ones((len(rows) - s, spec.K))]),
            radii[rows[s:] - len(inv_diag)],
            whole=len(rows) == batch,
            shrinking=s,
            shrink_sizes=sizes[row_group[rows[:s]]].astype(float),
        )

    buckets = {}
    w = np.zeros((batch, spec.K))
    # A row that overflows fails _check_iterates; numpy's warnings about it
    # would only precede that error.
    with np.errstate(over="ignore", invalid="ignore"):
        for t, current in enumerate(order.tolist(), 1):
            by_length = {}
            for g, i in enumerate(current):
                if i >= 0:
                    by_length.setdefault(kernel.lengths[i], []).append(g)
            for length, live in by_length.items():
                key = tuple(live)
                bucket = buckets.get(key)
                if bucket is None:
                    bucket = buckets[key] = make_bucket(live)
                if len(live) == 1:  # one group: its rows share an instance
                    inputs = kernel.instances[current[live[0]]]
                else:  # one instance per row
                    at = kernel.slot[order[t - 1, bucket.groups]]
                    inputs = [a[at] for a in kernel.stacks[length]]
                updated = bucket.step(w, spec, t, *inputs)
                _check_iterates(updated, bucket, t, cfgs)
    return w


def _stack_by_length(checked) -> dict:
    """Checked (x, y) pairs grouped by length: {L: (members, xs, ys)}, where
    ``members`` lists the instance indices of length L in input order and
    ``xs`` (G, L, d) and ``ys`` (G, L) stack their inputs and labels."""
    groups = {}
    for i, (_, y) in enumerate(checked):
        groups.setdefault(len(y), []).append(i)
    return {
        length: (
            members,
            np.stack([checked[i][0] for i in members]),
            np.stack([checked[i][1] for i in members]),
        )
        for length, members in groups.items()
    }


@dataclass
class _Bucket:
    """Rows decoded in one call: those of the groups whose current instances
    share a length, in row order, so the ``shrinking`` rows come first.
    Holds their fixed per-row arrays."""

    rows: np.ndarray
    groups: np.ndarray
    twice_betas: np.ndarray  # 2 * beta, the step size's fixed factor
    hinge_weights: np.ndarray
    sizes: np.ndarray  # training-set sizes
    scale: np.ndarray  # inverse penalties; 1 for the projecting rows
    radii: np.ndarray  # balls of the projecting rows, which come last
    whole: bool  # the bucket holds every row of w
    shrinking: int
    shrink_sizes: np.ndarray  # float training-set sizes of the shrinking rows

    def step(self, w, spec, t, x, y, onehot, gold):
        """One update of these rows of ``w`` at instance(s) ``x``, ``y`` with
        gold one-hot ``onehot`` and gold features ``gold``; returns the
        updated rows."""
        block = w if self.whole else w[self.rows]
        alpha = 1.0 / (self.twice_betas * math.sqrt(t))
        node = _loss_augmented_scores(spec, block, x, onehot)
        y_star, _ = _viterbi(node, spec.transition_view(block))
        if self.shrinking:
            block[: self.shrinking] *= (1.0 - alpha[: self.shrinking] / self.shrink_sizes)[:, None]
        hit = np.logical_or.reduce(y_star != y, axis=1)
        hits = np.count_nonzero(hit)
        if hits == len(block):  # every row moves: no gathers, no scatter
            delta = self.scale * (gold - feature_vectors(spec, x, y_star))
            block += (alpha * self.hinge_weights)[:, None] * delta
        elif hits:
            hit = np.flatnonzero(hit)
            if x.ndim == 3:
                x, gold = x[hit], gold[hit]
            delta = self.scale[hit] * (gold - feature_vectors(spec, x, y_star[hit]))
            block[hit] += (alpha[hit] * self.hinge_weights[hit])[:, None] * delta
        if len(self.radii):
            block[self.shrinking :] = _project_rows(block[self.shrinking :], self.radii)
        if not self.whole:
            w[self.rows] = block
        return block


def _check_iterates(updated, bucket, t: int, cfgs):
    """Raise if an updated row is not finite or its L2 norm passes
    ``DIVERGENCE_LIMIT``; the error names the first such row."""
    squares = np.add.reduce(updated * updated, axis=1)
    # Adding a nonnegative float never lowers a partial sum, so the total
    # bounds every row's squared norm, rounding included, and a NaN fails it.
    if np.add.reduce(squares) <= DIVERGENCE_LIMIT**2:
        return
    bad = np.flatnonzero(~(squares <= DIVERGENCE_LIMIT**2))
    if bad.size:
        cfg = cfgs[bucket.rows[bad[0]]]
        epoch = (t - 1) // bucket.sizes[bad[0]] + 1
        raise RuntimeError(
            f"subgradient iterate with seed={cfg.seed} diverged in epoch {epoch} "
            f"at update t={t}: beta={cfg.beta:g} reached L2 norm "
            f"{np.linalg.norm(updated[bad[0]]):.6g}; decrease the step size (raise beta)"
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
    outside = np.flatnonzero(np.add.reduce(mag, axis=1) > radii * (1.0 + 1e-12))
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
    data: list, spec: FeatureSpec, weights, C: float, inv_diag: np.ndarray | None = None
) -> float:
    """Objective value 0.5 w' diag(inv_diag) w + C * sum_i hinge_i(w) at (K,) ``weights``.

    Pass ``inv_diag=None`` for the unregularized hinge total (the quantity
    constrained trainers minimize inside their feasible set); any other
    ``inv_diag`` is checked as :func:`lockstep_train` checks its rows: K
    entries, each positive and finite.  Each instance is checked once, and
    the instances of one length are decoded in one DP call; the hinge terms
    are summed in instance order.  Empty ``data`` gives the penalty term
    alone.
    """
    w = _check_weights(spec, weights)
    checked = [_check_instance(spec, inst.features, inst.labels) for inst in data]
    reg = 0.0
    if inv_diag is not None:
        reg = 0.5 * float(np.dot(w, _check_inv_diag(spec, inv_diag, 1) * w))
    terms = [0.0] * len(checked)
    for members, xs, ys in _stack_by_length(checked).values():
        _, values = loss_augmented_decode_rows(spec, w[None], xs, ys)
        golds = feature_vectors(spec, xs, ys)
        for g, i in enumerate(members):
            terms[i] = float(values[g]) - float(np.dot(w, golds[g]))
    hinge = 0.0
    for term in terms:  # any other order or summation changes the last bits
        hinge += term
    return reg + C * hinge
