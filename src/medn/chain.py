"""Linear-chain sequence labeling primitives.

A chain model scores a labeled sequence with real-valued state features
(one per input-feature/label pair) and binary transition indicators (one
per adjacent label pair).  Decoding is exact max-sum dynamic programming.
Everything in this module is a pure function of its inputs.

The ``*_rows`` functions and :func:`feature_vectors` work on a batch: B
weight vectors as a (B, K) array, or B labelings as a (B, L) array; each
row may bring its own same-length input, or all rows share one.  They
skip input checks, so the entry points validate their data once and
then call them on every update.  :func:`decode_instances` decodes a whole
dataset that way: one check of the weights, one DP call per length.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FeatureSpec",
    "SequenceInstance",
    "feature_vectors",
    "decode_rows",
    "decode_instances",
    "loss_augmented_decode_rows",
]


@dataclass(frozen=True)
class FeatureSpec:
    """Feature-space dimensions for a linear chain.

    ``d`` is the number of real-valued input features per position and ``m``
    the label arity (uniform across positions).  Weight vectors hold the
    ``d * m`` state weights first, laid out so that input feature ``k``
    paired with label ``c`` sits at index ``k * m + c``, followed by the
    ``m * m`` transition weights with pair ``(c, c_next)`` at index
    ``d * m + c * m + c_next``.
    """

    d: int
    m: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"need d >= 1, got {self.d}")
        if self.m < 2:
            raise ValueError(f"need m >= 2, got {self.m}")

    @property
    def n_state(self) -> int:
        return self.d * self.m

    @property
    def K(self) -> int:
        """Total weight dimension: d*m state features plus m*m transitions."""
        return self.d * self.m + self.m * self.m

    def state_view(self, weights: np.ndarray) -> np.ndarray:
        """(..., d, m) view of the state block of (..., K) weight-shaped rows."""
        return weights[..., : self.n_state].reshape(*weights.shape[:-1], self.d, self.m)

    def transition_view(self, weights: np.ndarray) -> np.ndarray:
        """(..., m, m) view of the transition block of (..., K) weight-shaped rows."""
        return weights[..., self.n_state :].reshape(*weights.shape[:-1], self.m, self.m)


@dataclass
class SequenceInstance:
    """One observed sequence: an (L, d) feature matrix and L gold labels."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError("features must be a nonempty (L, d) matrix")
        if labels.shape != (self.features.shape[0],):
            raise ValueError("labels must be a vector with one entry per position")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")
        self.labels = _integer_labels(labels)
        if np.any(self.labels < 0):
            raise ValueError("label indices must be nonnegative")

    def __len__(self) -> int:
        return self.features.shape[0]


def _check_weights(spec: FeatureSpec, weights, ndim: int) -> np.ndarray:
    """``weights`` as a finite float array of ``ndim`` dimensions with K
    entries along the last: a (K,) vector or (B, K) rows; ValueError otherwise."""
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != ndim or weights.shape[-1] != spec.K:
        want = f"{spec.K} weights" if ndim == 1 else f"rows of {spec.K} weights"
        raise ValueError(f"expected {want}, got shape {weights.shape}")
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")
    return weights


def _integer_labels(labels: np.ndarray) -> np.ndarray:
    """``labels`` as int64, or ValueError unless their dtype is an integer one.

    Casting floats or strings would truncate 1.7 to 1 and parse '1' as 1.
    """
    if labels.dtype.kind not in "iu":
        raise ValueError("labels must be integer indices")
    return np.asarray(labels, dtype=np.int64)


def _check_instance(spec: FeatureSpec, x: np.ndarray, y: np.ndarray):
    """(x, y) as a float (L, d) matrix and L int labels in [0, m), or ValueError."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("inputs must be a nonempty (L, d) matrix")
    if x.shape[1] != spec.d:
        raise ValueError(f"expected {spec.d} input features, got {x.shape[1]}")
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError("labels must be one-dimensional")
    if y.shape[0] != x.shape[0]:
        raise ValueError("labels and inputs disagree on sequence length")
    y = _integer_labels(y)
    if np.any(y < 0) or np.any(y >= spec.m):
        raise ValueError(f"label indices must lie in [0, {spec.m})")
    return x, y


def feature_vectors(spec: FeatureSpec, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """(B, K) feature vectors of the B labelings ``ys`` (B, L).

    ``xs`` holds each row's input as a (B, L, d) array, or one (L, d) input
    shared by every row.  Unchecked: inputs must be finite floats and
    ``ys`` hold labels in [0, m).  Each state feature (k, c) sums
    ``x[y == c, k]`` in position order, for every d, so rows never depend
    on which other rows share the call; transition feature (c, c') counts
    the adjacent label pairs (c, c').
    """
    batch, length = ys.shape
    m, d = spec.m, spec.d
    xs = xs.reshape(-1, length, d)  # (B, L, d), or (1, L, d) when shared
    if d == 1:
        # numpy sums a lone column pairwise; beside a zero column it sums
        # every column in position order.
        xs = np.concatenate((xs, np.zeros_like(xs)), axis=2)
    f = np.zeros((batch, spec.K))
    picked = ys[:, None, :] == np.arange(m)[:, None]  # (B, m, L)
    # numpy sums the rows of a (count, d) selection in position order;
    # unselected positions add -0.0, which changes no sum, and a label that
    # never occurs gets +0.0.
    sums = np.add.reduce(np.where(picked[..., None], xs[:, None], -0.0), axis=2)[..., :d]
    sums = np.where(np.logical_or.reduce(picked, axis=2)[..., None], sums, 0.0)
    spec.state_view(f)[:] = sums.transpose(0, 2, 1)
    # Pair (c, c') counts as the product of the label indicators at l and
    # l + 1: sums of 0s and 1s, exact in any order.
    picked = picked.astype(float)
    spec.transition_view(f)[:] = picked[:, :, :-1] @ picked[:, :, 1:].transpose(0, 2, 1)
    return f


def _viterbi(node: np.ndarray, trans: np.ndarray):
    """Max-sum DP over (B, L, m) node and (B, m, m) transition scores.

    Returns (B, L) labels and the (B,) attained maxima.  Ties are resolved
    toward the lowest label index at the final argmax and at every
    backpointer, so the result is deterministic.
    """
    batch, length, m = node.shape
    rows, cols = np.arange(batch)[:, None], np.arange(m)
    back = np.zeros((batch, length, m), dtype=np.int64)
    v = node[:, 0]
    for l in range(1, length):
        cand = v[:, :, None] + trans  # (batch, previous, current)
        best = cand.argmax(axis=1)  # first maximum = lowest index
        back[:, l] = best
        v = cand[rows, best, cols] + node[:, l]
    labels = np.zeros((batch, length), dtype=np.int64)
    labels[:, -1] = v.argmax(axis=1)
    rows = rows[:, 0]
    value = v[rows, labels[:, -1]]
    for l in range(length - 1, 0, -1):
        labels[:, l - 1] = back[rows, l, labels[:, l]]
    return labels, value


def decode_rows(spec: FeatureSpec, weights: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """(B, G, L) highest-scoring labelings of G same-length inputs under B weight rows.

    ``weights`` is (B, K) and ``xs`` (G, L, d); all B * G chains go through
    one DP.  numpy runs one matrix product per (row, input) pair, so each
    labeling is bit-equal to decoding that input under that row alone.
    Unchecked: ``xs`` must be finite floats.
    """
    node = xs @ spec.state_view(weights)[:, None]  # (B, G, L, m)
    batch, group, length, m = node.shape
    trans = np.repeat(spec.transition_view(weights), group, axis=0)
    labels, _ = _viterbi(node.reshape(batch * group, length, m), trans)
    return labels.reshape(batch, group, length)


def decode_instances(spec: FeatureSpec, weights, instances) -> list:
    """Highest-scoring labelings of every instance under each row of (B, K) ``weights``.

    Returns one (B, L_i) array per instance, in input order.  The weights
    and each instance's d are checked once; then the instances of one
    length are decoded under all B rows in one :func:`decode_rows` call, so
    each labeling is bit-equal to decoding that instance under that row alone.
    """
    weights = _check_weights(spec, weights, 2)
    by_length = {}
    for i, inst in enumerate(instances):
        if inst.features.shape[1] != spec.d:
            raise ValueError(f"expected {spec.d} input features, got {inst.features.shape[1]}")
        by_length.setdefault(len(inst), []).append(i)
    preds = [None] * len(instances)
    for group in by_length.values():
        labels = decode_rows(spec, weights, np.stack([instances[i].features for i in group]))
        for g, i in enumerate(group):
            preds[i] = labels[:, g]
    return preds


def loss_augmented_decode_rows(
    spec: FeatureSpec, weights: np.ndarray, xs: np.ndarray, golds: np.ndarray
):
    """Loss-augmented Viterbi under each (B, K) weight row.

    Row b decodes its own input against its own gold labels: ``xs`` is
    (B, L, d) and ``golds`` (B, L), or one (L, d) input and (L,) labels
    shared by every row; one (1, K) weight row may likewise be shared by
    B inputs.  Returns (B, L) labelings and their (B,) values.
    numpy runs one matrix product per row, so each row is bit-equal to
    decoding it alone.  Unchecked: inputs must be finite floats and labels
    lie in [0, m).
    """
    node = _loss_augmented_scores(spec, weights, xs, golds[..., None] == np.arange(spec.m))
    return _viterbi(node, spec.transition_view(weights))


def _loss_augmented_scores(spec: FeatureSpec, weights, xs, gold_onehot) -> np.ndarray:
    """(B, L, m) node scores plus the Hamming loss of each label: 1 off the
    gold labels that ``gold_onehot`` (..., L, m) marks with 1 (or True)."""
    node = xs @ spec.state_view(weights) + 1.0
    # Subtracting 1.0 back at the gold labels, and 0.0 elsewhere, leaves the
    # plain score there: (s + 1) - 1, to the bit.
    node -= gold_onehot
    return node
