"""Optimization kernels for structured hinge objectives.

One stochastic subgradient kernel, :func:`_lockstep`, advances B
trajectories in lockstep; :func:`medn.models.train_laplace_grid` is its one
public entry point.  Each trajectory trains on its own subset of the data
in its own per-epoch shuffled order, drawn from its own seed, with its own
step size ``1 / (2 * beta * sqrt(t))``, where t counts its individual
updates, and its own hinge weight C.  Each config carries its own step
rule: without a ``radius`` the step shrinks toward zero under a diagonal
quadratic penalty (m3n), with one it projects onto that L1 ball (l1m3n).
At each step the trajectories whose current instances share a length are
decoded in one DP call.  A single model is the kernel with one config
(B = 1); cross-validation runs every fold's configs in one call, and
rows that share a config, a training set and a penalty train once.  It
returns the final iterates as a (B, K) array, in config order.

The kernel trusts its arguments: ``train_laplace_grid`` checks the configs
and training sets at the public edge.  A preparation of the data,
:class:`_KernelData`, holds whatever the weights do not change: each
instance checked once, the instances stacked by length with their gold
feature vectors and gold one-hots, each instance as one-row views of its
stacks, and each seed's instance order.  lapmedn's rounds share one
preparation, and the objective evaluator, :func:`_objective`, decodes and
scores the data from the same one, so ``train`` prepares its data once
for training and objective alike.  A kernel call keeps its rows in config
order and gives each bucket of rows decoded together, picked by a boolean
mask over its groups, its ``2 * beta`` and hinge weights (sliced from
per-row arrays made once per call), preconditioner (none unless the call
has an ``inv_diag``), L1 balls with their slack and shrink sizes, and a
bucket of every row (each one of a B = 1 call) the state and transition
views of the weights, made once per call; a shrinking row's ball is
infinite, so the projection never moves it, and a projecting row's shrink
size is infinite, so its shrink factor is exactly 1.0.  An update
then does only what depends on the weights: the loss-augmented DP, one
in-place multiply that shrinks the whole bucket (skipped when no row
shrinks), the hit test, one feature map of the hit rows' winners, the
step formed in that map's own buffer and added in place (no
preconditioner multiply without a preconditioner, and no row gathers
when every row of the bucket is hit), the in-place projection onto each
row's ball, which gathers the rows outside theirs once and writes only
those, and a divergence test that clears the bucket with one dot product
and forms the rows' squares only within a millionth of the limit or past
it.  An instance's arrays are one-row slices, so at B = 1 the
loss-augmented scores, the hit test and ``gold - f`` meet operands of one
shape, which numpy runs faster than a broadcast.  Every row gather (the
bucket's instances, the hit rows' inputs, golds, winners and
preconditioner rows, the rows outside their balls) is
``ndarray.take(..., axis=0)``, which numpy runs faster than fancy indexing
at desk shapes; 1-D gathers stay fancy indexing, faster there.  A row
that diverges raises :class:`_Diverged`, which carries its config's
index, so that lapmedn can blame the lam of a later round's divergence
rather than beta.  The index ramps a shape
fixes (the DP's row index and offsets, the feature map's label column, the
projection's ranks) come from :func:`medn.chain._ramp`'s memo.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import (
    FeatureSpec,
    _check_count,
    _check_instance,
    _check_real,
    _check_reals,
    _loss_augmented_scores,
    _ramp,
    _viterbi,
    feature_vectors,
)

__all__ = [
    "SubgradConfig",
    "l1_ball_project",
    "structured_hinge_objective",
]

# Iterates beyond this L2 norm abort training: the step size is divergent.
DIVERGENCE_LIMIT = 1e8
# A row is projected once its L1 norm passes its radius times this: the
# relative slack keeps re-projection an exact no-op despite the float error
# (~K ulp) that a previous projection leaves on the boundary.
_BALL_SLACK = 1.0 + 1e-12


@dataclass(frozen=True)
class SubgradConfig:
    """Schedule and step rule of one subgradient trajectory.

    ``beta`` scales the step size ``alpha_t = 1 / (2 * beta * sqrt(t))``;
    ``iterations`` is the number of full passes over the training set;
    ``C`` weights the hinge term (C == 0 degenerates to the penalty-only
    problem); ``seed``, a nonnegative integer, drives the per-epoch
    instance shuffle.  ``radius`` picks the step rule: None shrinks toward
    zero under a quadratic penalty (m3n), a positive finite radius projects
    onto that L1 ball (l1m3n).
    """

    beta: float
    iterations: int
    C: float
    seed: int = 0
    radius: float | None = None

    def __post_init__(self):
        # An infinite beta is a zero step size: the weights would stay 0.
        object.__setattr__(self, "beta", _check_real("beta", self.beta))
        object.__setattr__(self, "iterations", _check_count("iterations", self.iterations, 1, None))
        object.__setattr__(self, "C", _check_real("C", self.C, "nonnegative and finite"))
        object.__setattr__(self, "seed", _check_count("seed", self.seed, 0, None))
        if self.radius is not None:
            object.__setattr__(self, "radius", _check_real("radius", self.radius))


class _KernelData:
    """What a kernel call needs of its data that no iterate changes, prepared
    once and shared by every call on the same data (lapmedn's rounds) and by
    the objective evaluator, :func:`_objective`, which decodes and scores
    the data from the same preparation.

    ``data`` must be nonempty, and each instance passes
    :func:`medn.chain._check_instance` once; finite features can still sum
    past the float range, so a ValueError names the first instance, in
    data order, whose gold feature vector is not finite.  ``stacks[L]``
    holds the inputs, labels, float gold one-hots (L, m) and gold feature
    vectors of the instances of length L, and ``slot[i]`` is instance i's
    place there; ``instances[i]`` is that one-row slice of each stack,
    ``a[at : at + 1]``, a (1, ...) view and not a copy, so an update on one
    instance meets (1, ...) operands.  Each (seed, training set) draws its
    instance order once.
    """

    def __init__(self, data, spec: FeatureSpec):
        if not data:
            raise ValueError("training data must be nonempty")
        checked = [_check_instance(spec, inst) for inst in data]
        self.spec, self.n = spec, len(checked)
        self.lengths = [len(inst) for inst in checked]
        members = {}
        for i, length in enumerate(self.lengths):
            members.setdefault(length, []).append(i)
        self.slot = np.empty(self.n, dtype=np.int64)
        self.stacks = {}
        finite = np.empty(self.n, dtype=bool)
        for length, group in members.items():
            self.slot[group] = np.arange(len(group))
            xs = np.stack([checked[i].features for i in group])
            ys = np.stack([checked[i].labels for i in group])
            onehot = (ys[..., None] == np.arange(spec.m)).astype(float)
            gold = feature_vectors(spec, xs, ys)
            # Finite features can still sum past the float range.
            finite[group] = np.isfinite(gold).all(axis=1)
            self.stacks[length] = (xs, ys, onehot, gold)
        if not finite.all():
            raise ValueError(f"instance {np.argmin(finite)}: its features sum past the float range")
        self.instances = [
            tuple(a[at : at + 1] for a in self.stacks[length])
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


def _lockstep(kernel: _KernelData, cfgs, subsets, *, inv_diag=None) -> np.ndarray:
    """Run one subgradient trajectory per config in lockstep; (B, K) final iterates.

    Row b trains on the instances ``subsets[b]`` of the prepared data.  Each
    epoch it visits them in the order a generator seeded ``cfgs[b].seed``
    draws, keeping its own update count t, epoch and training-set size n; a
    row stops after ``iterations`` epochs, which the configs must share.
    Each row keeps its own ``beta`` and ``C``, and its config's ``radius``
    sets its step rule.  Row b's subgradient is scaled by
    ``1 / inv_diag[b]``: lapmedn's later rounds pass their (B, K) inverse
    variances, already floored, and every other call None, the identity,
    for which the step makes no multiply at all.
    The kernel trusts its arguments, as the ``*_rows`` primitives do:
    :func:`medn.models.train_laplace_grid` checks them at the edge, so
    there is at least one config and each training set is a nonempty int64
    vector of indices into the prepared data.

    * a row without a radius approximately minimizes
      0.5 w' diag(inv) w + C * sum_i hinge_i(w): each update shrinks w by
      (1 - alpha / n), then adds alpha * C times the preconditioned
      subgradient, so stiff coordinates stay numerically stable; its ball
      is infinite, so the projection never moves it;
    * a row with a radius minimizes C * sum_i hinge_i(w) subject to
      ||w||_1 <= radius: each update adds alpha * C times the subgradient,
      then projects onto the ball, so all iterates are feasible.

    hinge_i(w) = max_y [w'f(x_i, y) + hamming(y, y_i)] - w'f(x_i, y_i); an
    instance whose maximizer is its gold labeling adds no data term.
    Starts from w = 0.  Every row is bit-equal to running its config alone
    on its training set; rows that share a config, a training set and an
    ``inv_diag`` row run one trajectory, trained once.  Raises
    ``RuntimeError`` naming the row's seed and beta as soon as a row stops
    being finite or its L2 norm exceeds ``DIVERGENCE_LIMIT``.
    """
    spec = kernel.spec
    # Rows of one config, training set and penalty run one trajectory: train
    # each distinct row once, in first-occurrence order, and copy it back to
    # its config order at the end.
    distinct = {}
    inverse = [
        distinct.setdefault(
            (cfg, s.tobytes(), None if inv_diag is None else inv_diag[b].tobytes()),
            (len(distinct), b),
        )[0]
        for b, (cfg, s) in enumerate(zip(cfgs, subsets))
    ]
    first = [b for _, b in distinct.values()]
    cfgs, subsets = [cfgs[b] for b in first], [subsets[b] for b in first]
    if inv_diag is not None:
        inv_diag = inv_diag[first]
    iterations = cfgs[0].iterations
    batch = len(cfgs)
    # Without a preconditioner the step skips its multiply: x * 1.0 is x.
    scale = None if inv_diag is None else 1.0 / inv_diag
    # A shrinking row's ball is infinite, so projecting onto it never moves it.
    radii = np.array([math.inf if cfg.radius is None else cfg.radius for cfg in cfgs])
    twice_betas = np.array([2.0 * cfg.beta for cfg in cfgs])
    hinge_weights = np.array([cfg.C for cfg in cfgs])

    # Rows of one seed and training set form a group: they visit the same
    # instances, drawn once.  order[s, g] is group g's instance at step s,
    # or -1 once the group has run its epochs.
    groups = {}
    row_group = np.array(
        [groups.setdefault((cfg.seed, s.tobytes()), (len(groups), cfg.seed, s))[0]
         for cfg, s in zip(cfgs, subsets)]
    )
    sizes = np.array([len(s) for _, _, s in groups.values()])
    steps = iterations * int(sizes.max())
    try:
        # numpy's own errors for a schedule this large name neither the
        # flag nor the kernel.
        if steps * len(groups) * np.dtype(np.int64).itemsize > np.iinfo(np.intp).max:
            raise MemoryError
        order = np.full((steps, len(groups)), -1, dtype=np.int64)
        for g, seed, subset in groups.values():
            order[: iterations * len(subset), g] = kernel.draws(seed, subset, iterations)
    except MemoryError:
        raise ValueError(
            f"{iterations} iterations over {sizes.max()} instances are more steps"
            " than the kernel can schedule"
        ) from None

    w = np.zeros((batch, spec.K))

    def make_bucket(live):
        member = np.zeros(len(groups), dtype=bool)
        member[live] = True
        rows = np.flatnonzero(member[row_group])
        row_sizes, row_radii = sizes[row_group[rows]], radii[rows]
        shrinking = row_radii == math.inf
        whole = len(rows) == batch
        return _Bucket(
            rows,
            row_group[rows],
            twice_betas[rows],
            hinge_weights[rows],
            row_sizes,
            None if scale is None else scale.take(rows, axis=0),
            row_radii,
            # A projecting row's infinite size makes its shrink factor exactly 1.0.
            np.where(shrinking, row_sizes, math.inf),
            whole=whole,
            shrinks=bool(shrinking.any()),
            projects=not shrinking.all(),
            # Every update writes w in place, so its views stay valid for the call.
            views=(spec.state_view(w), spec.transition_view(w)) if whole else None,
        )

    buckets = {}
    try:
        # A row that overflows fails _check_iterates; numpy's warnings about it
        # would only precede that error.
        with np.errstate(over="ignore", invalid="ignore"):
            # One row of the schedule at a time: a list of the whole schedule
            # would hold about 64 bytes per step more than the matrix.
            for t, row in enumerate(order, 1):
                current = row.tolist()
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
                        at = kernel.slot[row[bucket.groups]]
                        inputs = [a.take(at, axis=0) for a in kernel.stacks[length]]
                    updated = bucket.step(w, spec, t, *inputs)
                    _check_iterates(updated, bucket, t, cfgs)
    except _Diverged as exc:
        exc.row = first[exc.row]  # the config's index, not its trajectory's
        raise
    return w[inverse]


@dataclass
class _Bucket:
    """Rows decoded in one call: those of the groups whose current instances
    share a length, in config order.  Holds their fixed per-row arrays and,
    for a bucket of every row, the state and transition views of ``w``,
    which stay valid because every update writes ``w`` in place; a bucket
    without them makes its block's views at each step."""

    rows: np.ndarray
    groups: np.ndarray
    twice_betas: np.ndarray  # 2 * beta, the step size's fixed factor
    hinge_weights: np.ndarray
    sizes: np.ndarray  # training-set sizes
    scale: np.ndarray | None  # 1 / inv_diag, None without a preconditioner
    radii: np.ndarray  # L1 balls, infinite for the shrinking rows
    shrink_sizes: np.ndarray  # training-set sizes, infinite for the projecting rows
    whole: bool  # the bucket holds every row of w
    shrinks: bool  # some row has an infinite ball
    projects: bool  # some row has a finite ball
    views: tuple | None = None  # (state, transition) views of w
    limits: np.ndarray = field(init=False)  # radii * _BALL_SLACK, past which a row projects

    def __post_init__(self):
        self.limits = self.radii * _BALL_SLACK

    def step(self, w, spec, t, x, y, onehot, gold):
        """One update of these rows of ``w`` at ``x``, ``y`` with gold
        one-hot ``onehot`` and gold features ``gold``, which hold one
        instance per row or one (1, ...) instance that every row shares;
        returns the updated rows.

        The step is formed in the feature map's own output buffer:
        ``gold - f``, times the preconditioner when there is one, times
        ``alpha * C``, then added to the rows.  Each multiply is the one
        the per-config loop makes, in its order, so every row keeps its
        bits.
        """
        block = w if self.whole else w.take(self.rows, axis=0)
        state, trans = self.views or (spec.state_view(block), spec.transition_view(block))
        alpha = 1.0 / (self.twice_betas * math.sqrt(t))
        y_star, _ = _viterbi(_loss_augmented_scores(state, x, onehot), trans)
        if self.shrinks:
            block *= (1.0 - alpha / self.shrink_sizes)[:, None]
        hit = np.logical_or.reduce(y_star != y, axis=1)
        hits = np.count_nonzero(hit)
        if hits == len(block):  # every row moves: no gathers, no scatter
            f = feature_vectors(spec, x, y_star)
            block += _step_into(f, gold, self.scale, alpha * self.hinge_weights)
        elif hits:
            hit = np.flatnonzero(hit)
            if len(x) == len(block):  # one input per row, not one shared
                x, gold = x.take(hit, axis=0), gold.take(hit, axis=0)
            f = feature_vectors(spec, x, y_star.take(hit, axis=0))
            block[hit] += _step_into(f, gold,
                                     None if self.scale is None else self.scale.take(hit, axis=0),
                                     (alpha * self.hinge_weights)[hit])
        if self.projects:
            _project_rows(block, self.radii, self.limits)
        if not self.whole:
            w[self.rows] = block
        return block


def _step_into(f, gold, scale, coef):
    """``coef * (scale * (gold - f))``, ``coef`` one factor per row, formed
    in ``f``'s buffer and returned.  ``scale`` None is the identity, whose
    multiply would change no bit."""
    np.subtract(gold, f, out=f)
    if scale is not None:
        f *= scale
    f *= coef[:, None]
    return f


class _Diverged(RuntimeError):
    """An iterate that diverged: ``row`` is its config's index in the kernel
    call (:func:`_check_iterates` raises it with the trajectory's index,
    which :func:`_lockstep` maps), ``where`` names its seed, epoch and
    update, and ``norm`` is its L2 norm.  The message blames the step size."""

    def __init__(self, row: int, where: str, beta: float, norm: float):
        super().__init__(f"{where}: beta={beta:g} reached L2 norm {norm:.6g}; "
                         "decrease the step size (raise beta)")
        self.row, self.where, self.norm = row, where, norm


def _check_iterates(updated, bucket, t: int, cfgs):
    """Raise :class:`_Diverged` for the first updated row that is not finite
    or whose L2 norm passes ``DIVERGENCE_LIMIT``.

    One dot product of the whole block clears it without a temporary when
    it lies a millionth below the limit's square: its terms are squares,
    so in any summation order it is within about ``B * K`` ulps of a total
    that is at least each row's squared norm, and a NaN or an infinity
    fails it.  Otherwise the rows' squares, summed row by row, decide, so
    a row at the limit passes or raises by its own sum, whatever order
    the dot product adds in.
    """
    if np.vdot(updated, updated) <= DIVERGENCE_LIMIT**2 * (1.0 - 1e-6):
        return
    squares = np.add.reduce(updated * updated, axis=1)
    bad = np.flatnonzero(~(squares <= DIVERGENCE_LIMIT**2))
    if bad.size:
        row = bucket.rows[bad[0]]
        epoch = (t - 1) // bucket.sizes[bad[0]] + 1
        where = (f"subgradient iterate with seed={cfgs[row].seed} diverged in epoch {epoch} "
                 f"at update t={t}")
        raise _Diverged(row, where, cfgs[row].beta, np.linalg.norm(updated[bad[0]]))


def _project_rows(v: np.ndarray, radii: np.ndarray, limits: np.ndarray):
    """Project each row of (B, K) ``v`` onto the L1 ball of its radius, in place.

    Sort-and-threshold algorithm: rows whose L1 norm is within their
    ``limits``, ``radii * _BALL_SLACK``, which a kernel call makes once per
    bucket, are not written, so they keep their bits; every other row is
    gathered once, and each of its entries shrinks toward zero by the
    threshold that makes the row land on the ball boundary.

    The threshold comes from sums of the largest entries, so its error is
    of their size, and where they dwarf the radius a row can miss the
    boundary or leave the ball (past about 2**53 times it, the radius
    rounds away).  A row whose L1 norm misses the radius by more than
    1e-12 of it is computed again from the gaps between its sorted
    entries, which stay on the radius's scale: the entries above the
    threshold lie within the radius of the smallest of them, so their
    differences to it are exact or small.
    """
    outside = np.flatnonzero(np.add.reduce(np.abs(v), axis=1) > limits)
    if not outside.size:
        return
    v_out, radius = v.take(outside, axis=0), radii[outside]
    mag_out = np.abs(v_out)
    u = np.sort(mag_out, axis=1)[:, ::-1]
    cssv = np.cumsum(u, axis=1)
    above = u * _ramp((v.shape[1],), 1, 1) > cssv - radius[:, None]
    # The largest entry always clears the threshold (u_1 > u_1 - radius),
    # but rounding hides it once u_1 is ~2**53 times the radius.
    above[:, 0] = True
    # rho: one past the last index where the sorted entry clears the threshold.
    rho = v.shape[1] - above[:, ::-1].argmax(axis=1)
    theta = (cssv[np.arange(len(outside)), rho - 1] - radius) / rho
    shrunk = np.maximum(mag_out - theta[:, None], 0.0)
    # A NaN row (an infinite entry) is left as it is, for the caller to see.
    for i in np.flatnonzero(np.abs(np.add.reduce(shrunk, axis=1) - radius) > 1e-12 * radius):
        # mass[j]: the L1 mass above sorted entry j + 1, from the gaps.  The
        # threshold lies below the last entry whose mass is under the
        # radius, the rho-th, and above the next one.
        mass = np.cumsum(np.arange(1, v.shape[1]) * (u[i, :-1] - u[i, 1:]))
        rho_i = 1 + np.count_nonzero(mass < radius[i])
        excess = mag_out[i] - u[i, rho_i - 1]
        kept = excess >= 0.0
        share = (radius[i] - np.add.reduce(excess[kept])) / rho_i
        shrunk[i] = np.where(kept, excess + share, 0.0)
    v[outside] = np.sign(v_out) * shrunk


def l1_ball_project(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of ``v`` onto {u : ||u||_1 <= radius}.

    Returns a new array, never ``v`` or a view of it.  Vectors already
    inside the ball come back unchanged, otherwise every entry shrinks
    toward zero by the threshold that makes the result land on the ball
    boundary.  ``radius`` must be positive and may be infinite.
    """
    v = _check_reals("v", v, (None,)).copy()
    radius = _check_real("radius", radius, "positive")
    radii = np.array([radius])
    with np.errstate(over="ignore"):  # an L1 norm past the float range is past the radius
        _project_rows(v[None], radii, radii * _BALL_SLACK)
    return v


def structured_hinge_objective(
    data: list, spec: FeatureSpec, weights, C: float, inv_diag: np.ndarray | None = None
) -> float:
    """Objective value 0.5 w' diag(inv_diag) w + C * sum_i hinge_i(w) at (K,) ``weights``.

    Pass ``inv_diag=None`` for the unregularized hinge total (the quantity
    constrained trainers minimize inside their feasible set); any other
    ``inv_diag`` must have K entries, each positive and finite.  C must be
    finite and nonnegative.  The data is prepared as for a kernel call and
    evaluated by :func:`_objective`.  Empty ``data`` gives the penalty term
    alone.
    """
    w = _check_reals("weights", weights, (spec.K,))
    C = _check_real("C", C, "nonnegative and finite")
    if inv_diag is not None:
        inv_diag = _check_reals("inv_diag", inv_diag, (spec.K,), "positive and finite")
    return _objective(_KernelData(data, spec) if data else None, w, C, inv_diag)


def _objective(kernel: _KernelData | None, w: np.ndarray, C: float, inv_diag=None) -> float:
    """0.5 w' diag(inv_diag) w + C * sum_i hinge_i(w) over the prepared data
    (None: no data), at checked (K,) ``w`` and (K,) ``inv_diag`` (None: no
    penalty term).

    The instances of one length are decoded in one DP call.  Each hinge
    term is that value minus ``w`` dotted with the gold features, summed in
    instance order.
    """
    reg = 0.0 if inv_diag is None else 0.5 * float(np.dot(w, inv_diag * w))
    hinge = 0.0
    if kernel is not None:
        state, trans = kernel.spec.state_view(w[None]), kernel.spec.transition_view(w[None])
        values = {
            length: _viterbi(_loss_augmented_scores(state, xs, onehot), trans)[1]
            for length, (xs, _, onehot, _) in kernel.stacks.items()
        }
        # Any other order or summation changes the last bits.
        for length, at, (_, _, _, gold) in zip(kernel.lengths, kernel.slot, kernel.instances):
            hinge += float(values[length][at]) - float(np.dot(w, gold[0]))
    return reg + C * hinge
