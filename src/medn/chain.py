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
dataset that way: one check of the weights, one DP call per length, each
input's node scores written in place into one node array.  What
a shape alone fixes is not rebuilt per call: the DP's row index, candidate
offsets and row starts for each (B, m), the feature map's label column for
each m and the projection's ranks 1..K are read-only index ramps from one
memo, :func:`_ramp`, which keeps the last 8.

An instance is checked in one place: a :class:`SequenceInstance` checks
its own shape, dtype and values when it is built, and is frozen, so it
stays checked.  The entry points (the dataset reader, the trainer, the
objective and decoding) pass each instance through
:func:`_check_instance`, which checks only its agreement with a
:class:`FeatureSpec`: d input features and labels below m.

Every number a public object takes is checked by one of three functions,
whose error names its field first: :func:`_check_count` for a count, which
returns it as an ``int``, :func:`_check_real` for a real in one of the
intervals of ``_INTERVALS``, which returns it as a ``float``, and
:func:`_check_reals` for an array of reals of a given shape, each in one
of those intervals, which returns it as a float array.  A frozen config
stores what they return, so a numpy scalar or a ``Fraction`` never
reaches the arithmetic behind a check: a numpy product cannot wrap, and
every stored count and real can be written as JSON.  Bools, strings and
complex numbers are refused alike, as scalars and as array entries, with
one exception: a :class:`SequenceInstance` casts a features list to float,
so bools and numeric strings in it read as numbers.  numpy reads a bool
among numbers in Python lists as a number, so one iterative walk,
:func:`_first_non_number`, finds the first bool or string in nested lists
and tuples for :func:`_check_reals`, for a ``SequenceInstance``'s list
labels and for the dataset reader.
"""

import functools
import math
import numbers
import sys
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

# A count that sizes a float array stays below this.  numpy rejects, in its
# own words, an array of 2**60 floats, whose bytes a 64-bit index cannot
# count, and np.linspace rounds a count just below 2**60 up to it.
_COUNT_LIMIT = 2**59


def _check_count(name: str, value, least: int, limit=_COUNT_LIMIT) -> int:
    """``value`` as an int; ValueError unless it is an integer, not a bool, in
    [least, limit).  ``limit`` is ``_COUNT_LIMIT``, for a count that sizes an
    array, or None."""
    # A plain int skips the far slower isinstance on the ABC.
    count = int(value) if type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)) else None
    if count is None or count < least or limit is not None and count >= limit:
        within = f">= {least}" if limit is None else f"in [{least}, 2**59)"
        raise ValueError(f"{name} must be an integer {within}, got {value!r}")
    return count


_MAX = sys.float_info.max
# Each interval that a real may be asked to lie in, by the words that name it
# in an error; each test holds for a float and entry by entry for an array.
_INTERVALS = {
    "positive and finite": lambda x: (0.0 < x) & (x <= _MAX),
    "nonnegative and finite": lambda x: (0.0 <= x) & (x <= _MAX),
    "finite": lambda x: (-_MAX <= x) & (x <= _MAX),
    "positive": lambda x: 0.0 < x,
    "in (0, 1)": lambda x: (0.0 < x) & (x < 1.0),
    "in [0, 1]": lambda x: (0.0 <= x) & (x <= 1.0),
}


def _check_real(name: str, value, within: str = "positive and finite") -> float:
    """``value`` as a float; ValueError unless it is a real number, not a
    bool, that lies ``within`` an interval named in ``_INTERVALS``."""
    # A plain float skips the far slower isinstance on the ABC.
    is_real = type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        real = float(value) if is_real else math.nan  # so a float32 never meets the largest float
    except OverflowError:  # an int or a Fraction past the float range rounds to an infinity
        real = math.inf if value > 0 else -math.inf
    if not _INTERVALS[within](real):
        shown = f"{value:g}" if isinstance(value, float) else repr(value)
        raise ValueError(f"{name} must be {within}, got {shown}")
    return real


def _check_reals(name: str, value, shape, within: str = "finite") -> np.ndarray:
    """``value`` as a float array; ValueError unless numpy reads it as an
    integer or float array (not bool, string, object or complex) of
    ``shape`` whose every entry lies ``within`` an interval named in
    ``_INTERVALS``.  A None ``shape`` admits any shape, and a None among its
    entries any length along that axis.  A bool nested in Python lists or
    tuples of numbers is refused too, with its index, though numpy reads it
    as a number, and nested sequences that do not form one array name their
    first entry of another shape."""
    try:
        array = np.asarray(value)
    except ValueError:  # numpy's words for ragged nesting
        raise ValueError(f"{name} must have entries of one shared shape, {_unequal_shapes(value)}") from None
    if array.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be an array of real numbers, got dtype {array.dtype}")
    # numpy reads a bool among numbers as a number; a string among them makes
    # a string dtype, refused above.
    at = _first_non_number(value)
    if at is not None:
        raise ValueError(f"{name} must be an array of real numbers, got a bool at index {_shown(at)}")
    if shape is not None and (
        array.ndim != len(shape) or any(want not in (None, got) for want, got in zip(shape, array.shape))
    ):
        raise ValueError(f"{name} must have shape {str(shape).replace('None', 'any')}, got {array.shape}")
    array = np.asarray(array, dtype=float)
    inside = _INTERVALS[within](array)
    if not inside.all():
        at = np.unravel_index(np.argmin(inside), array.shape)
        raise ValueError(f"{name} must be {within}, got {array[at]:g} at index {_shown(at)}")
    return array


def _unequal_shapes(value) -> str:
    """What keeps the nested sequences ``value`` from forming one array: the
    first entry whose shape differs from the first entry's, or that does
    not form one array itself."""
    shapes = []
    for i, entry in enumerate(value):
        try:
            shapes.append(np.shape(entry))
        except ValueError:
            return f"got a ragged entry at index {i}"
        if shapes[i] != shapes[0]:
            return f"got {shapes[0]} at index 0 and {shapes[i]} at index {i}"
    return "got ragged sequences"


def _first_non_number(value) -> tuple | None:
    """Index of the first bool or string in ``value``'s nested lists and
    tuples, or of the first entry of a nonempty bool array among them; None
    if there is none, or if ``value`` is not a list or a tuple.

    Depth first, in index order, with a stack of the lists it is inside,
    not recursion, so no nesting depth reaches Python's recursion limit.
    """
    stack = [((), value, 0)] if isinstance(value, (list, tuple)) else []
    while stack:
        at, seq, start = stack.pop()
        # A list of plain ints and floats alone is passed over in one scan
        # of its entries' types.
        if not start and {int, float}.issuperset(map(type, seq)):
            continue
        for i in range(start, len(seq)):
            entry = seq[i]
            if isinstance(entry, (list, tuple)):
                # Resume this list after the entry's own entries.
                stack += (at, seq, i + 1), (at + (i,), entry, 0)
                break
            if isinstance(entry, (bool, np.bool_, str)):
                return at + (i,)
            if isinstance(entry, np.ndarray) and entry.dtype.kind == "b" and entry.size:
                return at + (i,) + (0,) * entry.ndim
    return None


def _shown(at) -> int | tuple:
    """An index as an error shows it: an int along one axis, else a tuple of ints."""
    return int(at[0]) if len(at) == 1 else tuple(map(int, at))


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
        object.__setattr__(self, "d", _check_count("d", self.d, 1))
        object.__setattr__(self, "m", _check_count("m", self.m, 2))

    @property
    def n_state(self) -> int:
        return self.d * self.m

    @property
    def K(self) -> int:
        """Total weight dimension: d*m state features plus m*m transitions."""
        return self.d * self.m + self.m * self.m

    def state_view(self, weights: np.ndarray) -> np.ndarray:
        """(..., d, m) view of the state block of (..., K) weight-shaped rows."""
        return weights[..., : self.d * self.m].reshape(weights.shape[:-1] + (self.d, self.m))

    def transition_view(self, weights: np.ndarray) -> np.ndarray:
        """(..., m, m) view of the transition block of (..., K) weight-shaped rows."""
        return weights[..., self.d * self.m :].reshape(weights.shape[:-1] + (self.m, self.m))


@dataclass(frozen=True)
class SequenceInstance:
    """One observed sequence: an (L, d) feature matrix and L gold labels.

    Checks itself when built: ``features`` becomes a nonempty, finite
    float (L, d) matrix and ``labels`` an int64 vector of L nonnegative
    indices; labels of any other dtype are rejected, since casting would
    truncate 1.7 to 1 and parse '1' as 1, and so is a bool in a list or a
    tuple of labels, which numpy reads as an int.  Features given as an
    array must hold integers or floats, as :func:`_check_reals` asks;
    features given as a Python list are cast to float, so bools and
    numeric strings in it still read as numbers (complex entries and ints
    past the float range do not).  The cast, not numpy's dtype inference,
    because the dataset reader builds one instance per line, and inference
    costs it about a third more per line.  Frozen, and its arrays are its
    own and read-only, so a built instance stays checked.  Its agreement
    with a :class:`FeatureSpec` (d and m) is checked where it meets one, by
    :func:`_check_instance`.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        features = self.features
        if isinstance(features, np.ndarray) and features.dtype.kind not in "iuf":
            raise ValueError(f"features must be an array of real numbers, got dtype {features.dtype}")
        try:
            features = np.asarray(features, dtype=float)
        except (TypeError, ValueError, OverflowError):  # a complex entry, a ragged list, an int past the floats
            raise ValueError("features must be an (L, d) matrix of real numbers") from None
        labels = np.asarray(self.labels)
        if features.ndim != 2 or features.shape[0] < 1:
            raise ValueError("features must be a nonempty (L, d) matrix")
        if labels.shape != (features.shape[0],):
            raise ValueError(
                "labels must be a vector with one entry per position: "
                f"sequence length {features.shape[0]}, labels of shape {labels.shape}"
            )
        if not np.isfinite(features).all():
            raise ValueError("features must be finite")
        if labels.dtype.kind not in "iu":
            raise ValueError("labels must be integer indices")
        at = _first_non_number(self.labels)  # numpy reads a bool among ints as an int
        if at is not None:
            raise ValueError(f"labels must be integer indices, got a bool at index {_shown(at)}")
        labels = np.asarray(labels, dtype=np.int64)
        if labels.min() < 0:
            raise ValueError("label indices must be nonnegative")
        # The instance owns read-only arrays: the caller's array, or a view
        # of one, is copied, so writing into it later cannot reach a checked
        # instance; arrays built from lists are not.
        for name, array in (("features", features), ("labels", labels)):
            if array is getattr(self, name) or array.base is not None:
                array = array.copy()
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __len__(self) -> int:
        return self.features.shape[0]


def _check_instance(spec: FeatureSpec, inst) -> SequenceInstance:
    """``inst`` as a :class:`SequenceInstance` with d input features and
    labels below m; ValueError otherwise.

    Any object with ``features`` and ``labels`` is built into a
    ``SequenceInstance`` once, which checks its shape, dtype and values; a
    ``SequenceInstance`` is already checked and is returned as it is.
    """
    if not isinstance(inst, SequenceInstance):
        try:
            features, labels = inst.features, inst.labels
        except AttributeError:
            raise ValueError(f"an instance must have features and labels, got {type(inst).__name__}") from None
        inst = SequenceInstance(features, labels)
    if inst.features.shape[1] != spec.d:
        raise ValueError(f"expected {spec.d} input features, got {inst.features.shape[1]}")
    if np.maximum.reduce(inst.labels) >= spec.m:
        raise ValueError(f"label indices must lie in [0, {spec.m})")
    return inst


@functools.lru_cache(maxsize=8)
def _ramp(shape: tuple, step: int = 1, start: int = 0, repeat: int = 1) -> np.ndarray:
    """``np.arange(start, ..., step)`` in ``shape``, each entry ``repeat``
    times in a row, read-only and memoized.

    Holds the index ramps that a shape alone fixes: the DP's row index,
    candidate offsets and row starts for (B, m), the feature map's label
    column for m and the projection's ranks for K.  The last 8 are kept;
    each entry is one ramp of B * m, m or K integers.  Read-only, since
    every caller shares it.
    """
    ramp = np.arange(start, start + step * (math.prod(shape) // repeat), step)
    ramp = ramp.repeat(repeat).reshape(shape)
    ramp.flags.writeable = False
    return ramp


def feature_vectors(spec: FeatureSpec, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """(B, K) feature vectors of the B labelings ``ys`` (B, L).

    ``xs`` holds each row's input as a (B, L, d) array, or one input shared
    by every row, as an (L, d) or a (1, L, d) array, in any memory layout.
    Unchecked: inputs must be finite floats and ``ys`` hold labels in
    [0, m).  Each state feature (k, c) sums ``x[y == c, k]`` in position
    order, for every d and every memory layout, so rows never depend on
    which other rows share the call; transition feature (c, c') counts the
    adjacent label pairs (c, c').
    """
    batch, length = ys.shape
    m, d = spec.m, spec.d
    # einsum sums over the positions of a C-contiguous (B, L, d) operand,
    # or (1, L, d) when shared, in position order; a strided one may not.
    xs = np.ascontiguousarray(xs).reshape(-1, length, d)
    if d == 1:
        # einsum sums a lone column, contiguous along positions, out of order;
        # beside a zero column it sums it in position order.
        xs = np.concatenate((xs, np.zeros_like(xs)), axis=2)
    picked = (ys[:, None, :] == _ramp((m, 1))).astype(float)  # (B, m, L)
    f = np.empty((batch, spec.K))  # both blocks are written in full below
    spec.state_view(f)[:] = np.einsum("...ml,...ld->...dm", picked, xs)[:, :d]
    # Pair (c, c') counts as the product of the label indicators at l and
    # l + 1: sums of 0s and 1s, exact in any order.
    spec.transition_view(f)[:] = picked[:, :, :-1] @ picked[:, :, 1:].transpose(0, 2, 1)
    return f


def _viterbi(node: np.ndarray, trans: np.ndarray):
    """Max-sum DP over the (N, L, m) node scores of N chains under B
    (B, m, m) transition blocks.

    B divides N, and block r serves the G = N / B consecutive chains from
    r * G: one block per chain (the kernel), one block for every chain (the
    objective), or one block per weight row for its G inputs (decoding).
    Returns (N, L) int64 labels, C-contiguous, and the (N,) attained
    maxima.  Ties are resolved toward the lowest label index at the final
    argmax and at every backpointer, so the result is deterministic.

    Each position's candidates lie in one (N, current, previous) buffer per
    call: the forward values' rows gathered into it once per current label
    (a row gather, not a broadcast), then the blocks, transposed once per
    call into (B, 1, m * m), added in place into the buffer's (B, G, m * m)
    view, so no block is copied per chain.  Each candidate is still the one
    add ``v[i, p] + trans[i // G, p, current]``, and at G = 1 the add meets
    an operand of its own shape, which numpy runs faster than a broadcast
    (the same adds through a 4-D (B, G, m, m) view run slower).  The
    argmax runs along the contiguous last axis and writes position l's
    (N, m) slice of the position-major (L, N, m) backpointers in place.
    The forward maxima, the final value and every backpointer step are
    read with one flat ``take`` each.  Each maximum is the candidate taken at
    its argmax, so it keeps that candidate's bits, sign of zero included.
    """
    batch, length, m = node.shape
    # Block r's (current, previous) transitions, flat, once per call.
    trans_t = trans.transpose(0, 2, 1).reshape(len(trans), 1, m * m)
    cand = np.empty((batch, m, m))
    # cand as (blocks, G, current * previous): chain r * G + g is [r, g].
    cand_blocks = cand.reshape(len(trans), -1, m * m)
    # rows[b, c] = b, so taking v's rows by it lays v[b, p] at cand[b, c, p].
    rows = _ramp((batch, m), repeat=m)
    # Flat index of cand[b, c, 0], so adding a previous label p reads cand[b, c, p].
    offsets = _ramp((batch, m), m)
    back = np.empty((length, batch, m), dtype=np.intp)
    v = node[:, 0]
    for l in range(1, length):
        # Under "clip" take writes straight into cand, where "raise" would
        # buffer it; every index is in range, so nothing is clipped.
        v.take(rows, axis=0, out=cand, mode="clip")
        cand_blocks += trans_t
        best = cand.argmax(axis=2, out=back[l])  # first maximum = lowest index
        v = cand.take(best + offsets)
        v += node[:, l]
    labels = np.empty((batch, length), dtype=np.int64)
    starts = _ramp((batch,), m)  # flat index of row b's label 0 in a (B, m) array
    label = labels[:, -1] = v.argmax(axis=1)
    value = v.take(starts + label)
    for l in range(length - 1, 0, -1):
        label = labels[:, l - 1] = back[l].take(starts + label)
    return labels, value


def _decode_rows(spec: FeatureSpec, weights: np.ndarray, xs):
    """:func:`decode_rows`' (B, G, L) labelings, unchecked, and a (G,) mask
    of the inputs whose node scores and attained maxima are finite under
    every row.  The DP reads each row's (m, m) transition block where it
    lies in ``weights``, one block for that row's G chains."""
    batch, group = weights.shape[0], len(xs)
    length = xs[0].shape[0] if group else xs.shape[1]
    state = spec.state_view(weights)
    # (B, G, ...) keeps the reshape to (B * G, L, m) below a view.
    node = np.empty((batch, group, length, spec.m))
    # Finite inputs and weights can still score past the float range; the
    # masks below catch that, so numpy's warnings about it would only
    # precede the error.
    with np.errstate(over="ignore", invalid="ignore"):
        for g, x in enumerate(xs):
            # A strided operand can multiply to other last bits than a contiguous one.
            np.matmul(np.ascontiguousarray(x), state, out=node[:, g])
        labels, value = _viterbi(node.reshape(batch * group, length, spec.m), spec.transition_view(weights))
    finite = np.isfinite(node).all(axis=(0, 2, 3))
    finite &= np.isfinite(value).reshape(batch, group).all(axis=0)
    return labels.reshape(batch, group, length), finite


def _check_scores(finite: np.ndarray):
    """ValueError naming the first instance whose ``finite`` entry is False."""
    if not finite.all():
        raise ValueError(f"instance {np.argmin(finite)}: its scores pass the float range")


def decode_rows(spec: FeatureSpec, weights: np.ndarray, xs) -> np.ndarray:
    """(B, G, L) highest-scoring labelings of G same-length inputs under B weight rows.

    ``weights`` is (B, K) and ``xs`` a list of G (L, d) inputs or a
    (G, L, d) array; all B * G chains go through one DP, under one (m, m)
    transition block per row, never copied per input.  The inputs are
    never copied together: each is scored on its own, through a
    C-contiguous (L, d) operand, into one (B, G, L, m) node array.  numpy
    runs one matrix product per (row, input) pair, so each labeling is
    bit-equal to decoding that input under that row alone.  Unchecked:
    ``xs`` must be finite floats.  Finite inputs and weights whose node
    scores or Viterbi maxima pass the float range raise ``ValueError``
    naming the first such input.  Each input's scores are written in place
    into its (B, L, m) slice of the node array, by ``np.matmul``'s ``out``.
    """
    labels, finite = _decode_rows(spec, weights, xs)
    _check_scores(finite)
    return labels


def decode_instances(spec: FeatureSpec, weights, instances) -> list:
    """Highest-scoring labelings of every instance under each row of (B, K) ``weights``.

    Returns one (B, L_i) array per instance, in input order.  The weights
    are checked once and each instance by :func:`_check_instance`; then the
    instances of one length are decoded under all B rows in one DP call,
    as :func:`decode_rows` decodes them, taking their features as they
    are, without copying them, so each labeling is bit-equal to decoding
    that instance under that row alone.  Scores past the float range raise
    ``ValueError`` naming the first such instance in input order.
    """
    weights = _check_reals("weights", weights, (None, spec.K))
    instances = [_check_instance(spec, inst) for inst in instances]
    by_length = {}
    for i, inst in enumerate(instances):
        by_length.setdefault(len(inst), []).append(i)
    preds = [None] * len(instances)
    finite = np.ones(len(instances), dtype=bool)
    for group in by_length.values():
        labels, finite[group] = _decode_rows(spec, weights, [instances[i].features for i in group])
        for g, i in enumerate(group):
            preds[i] = labels[:, g]
    _check_scores(finite)
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
    onehot = golds[..., None] == np.arange(spec.m)
    node = _loss_augmented_scores(spec.state_view(weights), xs, onehot)
    return _viterbi(node, spec.transition_view(weights))


def _loss_augmented_scores(state, xs, gold_onehot) -> np.ndarray:
    """(B, L, m) node scores under the (..., d, m) ``state`` block plus the
    Hamming loss of each label: 1 off the gold labels that ``gold_onehot``
    (..., L, m) marks with 1 (or True)."""
    node = xs @ state + 1.0
    # A gold label's node score is (s + 1) - 1, which is not always s (0.1
    # comes back as 0.10000000000000009); every other label scores s + 1.
    # The kernel, the objective and the oracles all score through here, so
    # they round alike.  Adding 1.0 - onehot instead would keep s at the
    # gold labels: that moves the last bits of objective values and can
    # flip the DP's choice between near-tied labelings.
    node -= gold_onehot
    return node
