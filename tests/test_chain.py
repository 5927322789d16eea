"""Feature map, exact decoding, loss-augmented decoding, and the input
checks at the entry points that run them."""

import dataclasses
import math
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medn import (
    FeatureSpec,
    SequenceInstance,
    SubgradConfig,
    evaluate_weight_rows,
    l1_ball_project,
    structured_hinge_objective,
    train_laplace_grid,
)
from medn import chain, optimize
from medn.chain import (
    _viterbi,
    decode_instances,
    decode_rows,
    feature_vectors,
    loss_augmented_decode_rows,
)
from oracles import (
    HUGE_WEIGHTS,
    chain_scores,
    enumerate_labelings,
    l1_projection_oracle,
    make_mixed_instances,
    manual_feature_vector,
    manual_score,
    overflowing_gold_instances,
    overflowing_score_instances,
    reference_viterbi,
)


class TestFeatureSpec:
    def test_dimensions(self):
        spec = FeatureSpec(d=100, m=2)
        assert spec.n_state == 200
        assert spec.K == 204

    def test_invalid_dimensions_raise(self):
        with pytest.raises(ValueError):
            FeatureSpec(d=0, m=2)
        with pytest.raises(ValueError):
            FeatureSpec(d=3, m=1)


@st.composite
def _split_sequences(draw):
    """A labeled sequence with quarter-integer features, so that every
    feature sum is exact, and a split point 0 < l < L."""
    d, m, length = draw(st.integers(1, 3)), draw(st.integers(2, 3)), draw(st.integers(2, 6))
    quarters = st.integers(-8, 8).map(lambda k: k / 4.0)
    x = np.array(draw(st.lists(quarters, min_size=length * d, max_size=length * d)))
    y = np.array(draw(st.lists(st.integers(0, m - 1), min_size=length, max_size=length)))
    return FeatureSpec(d, m), x.reshape(length, d), y, draw(st.integers(1, length - 1))


@st.composite
def _feature_map_calls(draw):
    """One feature-map call: per-row (B, L, d) or shared (L, d) inputs in C
    order, Fortran order, or as a view of every other position of a larger
    array; values among +-0.0, +-1, +-1e16 and 1e-300 (signed zeros,
    cancellation, underflow) or scaled standard normals."""
    d, m = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    batch, length = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    shape = (length, d) if draw(st.booleans()) else (batch, length, d)
    size = math.prod(shape)
    if draw(st.booleans()):
        values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 1e-300])
        xs = np.array(draw(st.lists(values, min_size=size, max_size=size))).reshape(shape)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        xs = rng.standard_normal(shape) * 10.0 ** draw(st.integers(-3, 3))
    layout = draw(st.sampled_from(["C", "Fortran", "strided"]))
    if layout == "Fortran":
        xs = np.asfortranarray(xs)
    elif layout == "strided":
        wide = np.zeros((*shape[:-2], 2 * length, d))
        wide[..., ::2, :] = xs
        xs = wide[..., ::2, :]
    labels = st.lists(st.integers(0, m - 1), min_size=batch * length, max_size=batch * length)
    return FeatureSpec(d, m), xs, np.array(draw(labels)).reshape(batch, length)


class TestFeatureVector:
    @settings(max_examples=300, deadline=None)
    @given(_feature_map_calls())
    def test_every_memory_layout_equals_the_oracle_to_the_bit(self, call):
        """Each state feature is summed in position order whatever the
        input's memory layout, so every row equals the position-by-position
        oracle bit for bit, sign of zero included."""
        spec, xs, ys = call
        inputs = np.broadcast_to(xs, (len(ys), *xs.shape[-2:]))
        for got, x, y in zip(feature_vectors(spec, xs, ys), inputs, ys):
            want = manual_feature_vector(spec.d, spec.m, x, y)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (got, want)

    @settings(max_examples=150, deadline=None)
    @given(_split_sequences())
    def test_additive_across_a_split(self, case):
        """f(x, y) = f(x[:l], y[:l]) + f(x[l:], y[l:]) + the one (y[l-1], y[l])
        transition that crosses the split, and f is the position-by-position
        oracle's map."""
        spec, x, y, l = case
        seam = np.zeros(spec.K)
        seam[spec.n_state + y[l - 1] * spec.m + y[l]] = 1.0
        whole = feature_vectors(spec, x, y[None])[0]
        head = feature_vectors(spec, x[:l], y[None, :l])[0]
        tail = feature_vectors(spec, x[l:], y[None, l:])[0]
        assert np.array_equal(whole, head + tail + seam)
        assert np.array_equal(whole, manual_feature_vector(spec.d, spec.m, x, y))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_standard_normal_features_equal_the_oracle_to_the_bit(self, d):
        """Every state feature is summed in position order, for every d, so
        each row equals the position-by-position oracle bit for bit, with
        per-row or shared inputs."""
        rng = np.random.default_rng(60 + d)
        spec = FeatureSpec(d=d, m=2)
        for length in range(1, 61):
            xs = rng.standard_normal((4, length, d))
            ys = rng.integers(0, 2, (4, length))
            for got, x, y in zip(feature_vectors(spec, xs, ys), xs, ys):
                assert np.array_equal(got, manual_feature_vector(d, 2, x, y))
            for got, y in zip(feature_vectors(spec, xs[0], ys), ys):
                assert np.array_equal(got, manual_feature_vector(d, 2, xs[0], y))

    def test_hand_enumerated_two_positions(self):
        """d=1, m=2, x=[[1],[1]], y=[0,0]: state block (2, 0), one (0,0) transition."""
        spec = FeatureSpec(d=1, m=2)
        f = feature_vectors(spec, np.ones((2, 1)), np.array([[0, 0]]))[0]
        np.testing.assert_array_equal(f, [2.0, 0.0, 1.0, 0.0, 0.0, 0.0])

    def test_single_position_has_no_transition_counts(self):
        rng = np.random.default_rng(0)
        spec = FeatureSpec(d=3, m=3)
        for label in range(3):
            f = feature_vectors(spec, rng.standard_normal((1, 3)), np.array([[label]]))[0]
            np.testing.assert_array_equal(spec.transition_view(f), np.zeros((3, 3)))

    def test_self_difference_is_zero(self):
        """Two rows of one labeling in one call are the same map, to the bit,
        and both are the oracle's."""
        rng = np.random.default_rng(1)
        spec = FeatureSpec(d=2, m=3)
        x = rng.standard_normal((5, 2))
        y = rng.integers(0, 3, size=5)
        first, second = feature_vectors(spec, x, np.stack([y, y]))
        np.testing.assert_array_equal(first - second, np.zeros(spec.K))
        np.testing.assert_allclose(first, manual_feature_vector(2, 3, x, y), atol=1e-12)

    def test_state_block_additive_under_concatenation(self):
        rng = np.random.default_rng(2)
        spec = FeatureSpec(d=2, m=2)
        x1, x2 = rng.standard_normal((3, 2)), rng.standard_normal((4, 2))
        y1 = rng.integers(0, 2, size=3)
        y2 = rng.integers(0, 2, size=4)
        joint = feature_vectors(spec, np.vstack([x1, x2]), np.concatenate([y1, y2])[None])[0]
        parts = feature_vectors(spec, x1, y1[None])[0] + feature_vectors(spec, x2, y2[None])[0]
        np.testing.assert_allclose(
            spec.state_view(joint), spec.state_view(parts), atol=1e-12
        )
        # Transitions differ only by the single seam pair.
        seam = np.zeros((2, 2))
        seam[y1[-1], y2[0]] = 1.0
        np.testing.assert_allclose(
            spec.transition_view(joint), spec.transition_view(parts) + seam, atol=1e-12
        )

    def test_repeated_transitions_accumulate(self):
        spec = FeatureSpec(d=1, m=2)
        f = feature_vectors(spec, np.zeros((4, 1)), np.array([[1, 1, 1, 0]]))[0]
        trans = spec.transition_view(f)
        assert trans[1, 1] == 2.0
        assert trans[1, 0] == 1.0
        assert trans.sum() == 3.0

    def test_dimension_mismatch_raises(self):
        """The feature map is unchecked; training and the objective check each
        instance's width and length before they reach it."""
        spec = FeatureSpec(d=2, m=2)
        cfg = SubgradConfig(beta=1.0, iterations=1, C=1.0)
        narrow = SequenceInstance(np.zeros((3, 1)), [0, 0, 0])
        short_labels = SimpleNamespace(features=np.zeros((3, 2)), labels=np.array([0, 0]))
        for bad, message in ((narrow, "input features"), (short_labels, "length")):
            with pytest.raises(ValueError, match=message):
                train_laplace_grid([bad], spec, [cfg])
            with pytest.raises(ValueError, match=message):
                structured_hinge_objective([bad], spec, np.zeros(spec.K), 1.0)

    def test_label_out_of_range_raises(self):
        spec = FeatureSpec(d=2, m=2)
        cfg = SubgradConfig(beta=1.0, iterations=1, C=1.0, radius=1.0)
        bad = SequenceInstance(np.zeros((2, 2)), [0, 2])
        with pytest.raises(ValueError, match="label"):
            train_laplace_grid([bad], spec, [cfg])
        with pytest.raises(ValueError, match="label"):
            structured_hinge_objective([bad], spec, np.zeros(spec.K), 1.0)


class TestScore:
    def test_matches_manual_accumulation(self):
        """The score w . f(x, y) with the package's feature map equals the
        term-by-term sum over positions."""
        rng = np.random.default_rng(5)
        spec = FeatureSpec(d=3, m=2)
        w = rng.standard_normal(spec.K)
        x = rng.standard_normal((3, 3))
        y = rng.integers(0, 2, size=3)
        expected = manual_score(3, 2, w, x.tolist(), y.tolist())
        assert float(w @ feature_vectors(spec, x, y[None])[0]) == pytest.approx(
            expected, abs=1e-10
        )


class TestDecode:
    def test_zero_weights_gives_all_zeros(self):
        """Every labeling ties at score 0, so tie-breaking forces label 0."""
        spec = FeatureSpec(d=2, m=3)
        rng = np.random.default_rng(6)
        instances = [SequenceInstance(rng.standard_normal((6, 2)), np.ones(6, dtype=np.int64))]
        (labels,) = decode_instances(spec, np.zeros((1, spec.K)), instances)
        np.testing.assert_array_equal(labels, np.zeros((1, 6), dtype=np.int64))

    def test_matches_enumeration_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            length = int(rng.integers(1, 7))
            m = int(rng.integers(2, 4))
            d = int(rng.integers(1, 4))
            spec = FeatureSpec(d=d, m=m)
            w = rng.standard_normal(spec.K)
            x = rng.standard_normal((length, d))
            labelings = enumerate_labelings(m, length)
            scores = chain_scores(d, m, w, x, labelings)
            np.testing.assert_array_equal(
                decode_rows(spec, w[None], x[None])[0, 0], labelings[int(np.argmax(scores))]
            )

    def test_single_position_is_state_argmax(self):
        rng = np.random.default_rng(8)
        spec = FeatureSpec(d=4, m=3)
        w = np.zeros(spec.K)
        spec.state_view(w)[:] = rng.standard_normal((4, 3))
        x = rng.standard_normal((1, 4))
        expected = int(np.argmax(x @ spec.state_view(w)))
        assert decode_rows(spec, w[None], x[None])[0, 0, 0] == expected

    def test_empty_input_raises(self):
        """An empty sequence is rejected where instances enter: by
        SequenceInstance, and by the entry points that take duck-typed ones."""
        spec = FeatureSpec(d=2, m=2)
        with pytest.raises(ValueError, match="nonempty"):
            SequenceInstance(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
        empty = SimpleNamespace(features=np.zeros((0, 2)), labels=np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="nonempty"):
            structured_hinge_objective([empty], spec, np.zeros(spec.K), 1.0)

    @pytest.mark.parametrize(
        "labels", [[0.5, 1.7], ["1", "0"], [1e20, 0.0]], ids=["fractions", "strings", "huge"]
    )
    def test_non_integer_labels_raise(self, labels):
        """Labels must have an integer dtype where instances enter, as in a
        dataset file: no truncation to [0, 1], no parsing of strings, and no
        numpy cast warning before the error."""
        spec = FeatureSpec(d=3, m=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^labels must be integer indices$"):
                SequenceInstance(np.zeros((2, 3)), labels)
            duck = SimpleNamespace(features=np.zeros((2, 3)), labels=np.array(labels))
            with pytest.raises(ValueError, match="^labels must be integer indices$"):
                structured_hinge_objective([duck], spec, np.zeros(spec.K), 1.0)
            with pytest.raises(ValueError, match="^labels must be integer indices$"):
                train_laplace_grid([duck], spec, [SubgradConfig(1.0, 1, 1.0, radius=1.0)])

    @pytest.mark.parametrize(
        "labels, index",
        [([True, 1], 0), ([0, 1, False], 2), ((1, np.True_), 1), ([1, np.array(False)], 1)],
        ids=["list", "list-last", "tuple-numpy-bool", "bool-0-d-array"],
    )
    def test_a_bool_among_integer_labels_raises(self, labels, index):
        """numpy reads a list that mixes bools with ints as int64, as it
        would read ``[1, 1]``; the instance refuses it, as it refuses a bool
        array, naming the first bool's index."""
        features = np.zeros((len(labels), 1))
        with pytest.raises(ValueError, match=f"^labels must be integer indices, got a bool at index {index}$"):
            SequenceInstance(features, labels)
        with pytest.raises(ValueError, match="^labels must be integer indices$"):
            SequenceInstance(features, np.ones(len(labels), dtype=bool))

    @pytest.mark.parametrize(
        "labels, shapes",
        [([[0], [1, 2]], "(1,) at index 0 and (2,) at index 1"),
         ([0, [1]], "() at index 0 and (1,) at index 1"),
         ([[0], [[1], 2]], "a ragged entry at index 1")],
        ids=["rows-of-two-lengths", "scalar-then-row", "ragged-entry"],
    )
    def test_ragged_labels_name_their_first_entry_of_another_shape(self, labels, shapes):
        """Labels that form no array are one error naming the field and its
        first entry of another shape, not numpy's words."""
        message = f"labels must have entries of one shared shape, got {shapes}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SequenceInstance([[0.5], [1.0]], labels)

    @pytest.mark.parametrize("entry", ["train", "objective", "decode", "evaluate"])
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_features_raise(self, entry, value):
        """Every entry point builds a duck-typed instance into a checked
        SequenceInstance: a NaN or infinite feature is named, not trained
        into a divergence error, scored to nan or decoded."""
        spec = FeatureSpec(d=3, m=2)
        features = np.zeros((2, 3))
        features[1, 2] = value
        data = [SimpleNamespace(features=features, labels=np.array([0, 1]))]
        run = {
            "train": lambda: train_laplace_grid(data, spec, [SubgradConfig(1.0, 1, 1.0)]),
            "objective": lambda: structured_hinge_objective(data, spec, np.zeros(spec.K), 1.0),
            "decode": lambda: decode_instances(spec, np.zeros((1, spec.K)), data),
            "evaluate": lambda: evaluate_weight_rows(spec, np.zeros((1, spec.K)), data),
        }[entry]
        with pytest.raises(ValueError, match="^features must be finite$"):
            run()

    @pytest.mark.parametrize(
        "features",
        [[[1 + 2j, 0.0]], [[10**400, 0.0]], [[1.0], [1.0, 0.0]], np.array([[1 + 0j, 0.0]]),
         np.array([[True, False]]), np.array([["1", "0"]])],
        ids=["complex-list", "huge-int-list", "ragged-list", "complex-array", "bool-array", "str-array"],
    )
    def test_non_real_features_raise(self, features):
        """Features that are not reals are one ValueError naming them, with
        no warning, where an instance is built and where a duck-typed one
        enters: a complex entry or an int past the float range in a list
        (once a TypeError and an OverflowError), a ragged list, and an array
        of complex numbers, bools or strings."""
        spec = FeatureSpec(d=2, m=2)
        labels = np.zeros(len(features), dtype=np.int64)
        duck = SimpleNamespace(features=features, labels=labels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^features must be "):
                SequenceInstance(features, labels)
            with pytest.raises(ValueError, match="^features must be "):
                decode_instances(spec, np.zeros((1, spec.K)), [duck])

    def test_bools_and_numeric_strings_in_a_list_read_as_numbers(self):
        """A list of features is cast to float, since numpy's dtype inference
        would cost the dataset reader more per line, so its bools and numeric
        strings read as numbers; the reader refuses them before it builds an
        instance."""
        inst = SequenceInstance([[True, "0.5"]], [0])
        np.testing.assert_array_equal(inst.features, [[1.0, 0.5]])

    @pytest.mark.parametrize("entry", ["train", "objective", "decode", "evaluate"])
    @pytest.mark.parametrize(
        "inst", [np.zeros((2, 3)), (np.zeros((2, 3)), [0, 1])], ids=["array", "tuple"]
    )
    def test_an_instance_without_features_or_labels_raises(self, entry, inst):
        """An object without ``features`` or ``labels`` is one ValueError
        that says so, not an AttributeError, at every entry point."""
        spec = FeatureSpec(d=3, m=2)
        run = {
            "train": lambda: train_laplace_grid([inst], spec, [SubgradConfig(1.0, 1, 1.0)]),
            "objective": lambda: structured_hinge_objective([inst], spec, np.zeros(spec.K), 1.0),
            "decode": lambda: decode_instances(spec, np.zeros((1, spec.K)), [inst]),
            "evaluate": lambda: evaluate_weight_rows(spec, np.zeros((1, spec.K)), [inst]),
        }[entry]
        name = type(inst).__name__
        with pytest.raises(ValueError, match=f"^an instance must have features and labels, got {name}$"):
            run()

    def test_duck_typed_instances_decode_and_evaluate_alike(self):
        """Any object with ``features`` and ``labels``, here nested lists,
        decodes and evaluates as the SequenceInstance built from it."""
        rng = np.random.default_rng(14)
        spec = FeatureSpec(d=3, m=3)
        instances = make_mixed_instances(rng, n=6, d=3, m=3, max_length=4)
        ducks = [
            SimpleNamespace(features=inst.features.tolist(), labels=inst.labels.tolist())
            for inst in instances
        ]
        w = rng.standard_normal((2, spec.K))
        for got, want in zip(decode_instances(spec, w, ducks), decode_instances(spec, w, instances)):
            np.testing.assert_array_equal(got, want)
        assert evaluate_weight_rows(spec, w, ducks) == evaluate_weight_rows(spec, w, instances)

    def test_instance_owns_read_only_arrays(self):
        """Writing into the caller's arrays after the build cannot reach a
        checked instance: an array passed in, or a view of one, is copied,
        and the instance's own arrays are read-only."""
        spec = FeatureSpec(3, 2)
        x, y = np.zeros((2, 3)), np.array([0, 1])
        inst = SequenceInstance(x, y)
        viewed = SequenceInstance(x.view(type("Subclass", (np.ndarray,), {})), [0, 1])
        before = structured_hinge_objective([inst, viewed], spec, np.zeros(spec.K), 1.0)
        x[1, 2] = np.nan
        y[0] = 5
        assert structured_hinge_objective([inst, viewed], spec, np.zeros(spec.K), 1.0) == before
        for array in (inst.features, inst.labels, viewed.features):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    @pytest.mark.parametrize("field", ["features", "labels"])
    def test_instance_is_frozen(self, field):
        """A built instance stays checked: its fields cannot be rebound."""
        inst = SequenceInstance(np.zeros((2, 3)), [0, 1])
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(inst, field, np.full((2, 3), np.nan))


@st.composite
def _dyadic_chains(draw):
    """(B, L, m) node and (B, m, m) transition scores with m**L <= 256,
    drawn from halves in [-2, 2] so that exact ties are common and every
    score sum is exact."""
    m = draw(st.integers(2, 4))
    length = draw(st.integers(1, int(math.log(256, m) + 1e-9)))
    batch = draw(st.integers(1, 4))
    halves = st.integers(-4, 4).map(lambda k: k / 2.0)
    node = np.array(draw(st.lists(halves, min_size=batch * length * m, max_size=batch * length * m)))
    trans = np.array(draw(st.lists(halves, min_size=batch * m * m, max_size=batch * m * m)))
    return node.reshape(batch, length, m), trans.reshape(batch, m, m)


# Scores whose sums round (0.1 + 0.2 is not 0.3), both zeros, and scores
# whose sums overflow; a few of them fill many entries, so exact ties and
# ties between 0.0 and -0.0 are common.
_ROUNDING_SCORES = (0.1, 0.2, 0.3, 1 / 3, -2 / 3, -0.7, 0.0, -0.0, 1e308, -1e308)


@st.composite
def _rounding_chains(draw):
    """(B, L, m) node and (B, m, m) transition scores at the batch sizes,
    lengths and arities that training and decoding meet, drawn from
    non-dyadic normals and a few of ``_ROUNDING_SCORES``."""
    batch = draw(st.sampled_from([1, 3, 60]))
    length = draw(st.sampled_from([1, 2, 8, 40]))
    m = draw(st.sampled_from([2, 3, 26]))
    picks = draw(
        st.lists(st.integers(0, len(_ROUNDING_SCORES) - 1), min_size=1, max_size=4, unique=True)
    )
    share = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.array(_ROUNDING_SCORES)[picks]

    def scores(*shape):
        out = rng.standard_normal(shape) * 3.0
        fixed = rng.random(shape) < share
        out[fixed] = rng.choice(values, np.count_nonzero(fixed))
        return out

    return scores(batch, length, m), scores(batch, m, m)


class TestBatchedViterbi:
    @settings(max_examples=200, deadline=None)
    @given(_rounding_chains())
    def test_equals_the_reference_layout_bit_for_bit(self, chains):
        """The DP's labels and maxima equal the reference DP's, the maxima
        compared as bits, so the sign of a zero and the last bit of a
        rounded sum count.  The enumeration test below draws dyadic halves,
        whose sums are exact, so it cannot see either.  Labels are a
        C-contiguous int64 (B, L) array."""
        node, trans = chains
        with np.errstate(over="ignore", invalid="ignore"):
            labels, values = _viterbi(node, trans)
            want_labels, want_values = reference_viterbi(node, trans)
        assert labels.shape == node.shape[:2] and labels.dtype == np.int64
        assert labels.flags.c_contiguous
        assert np.array_equal(labels, want_labels)
        assert values.dtype == np.float64
        assert np.array_equal(values.view(np.int64), want_values.view(np.int64))

    @settings(max_examples=300, deadline=None)
    @given(_dyadic_chains())
    def test_rows_match_enumeration_with_ties_to_the_lowest_label(self, chains):
        """Each row is the best labeling by brute force; among tied optima it
        is the one with the lowest last label, then the lowest label before
        that, and so on, as the DP's lowest-index argmax gives."""
        node, trans = chains
        batch, length, m = node.shape
        labelings = enumerate_labelings(m, length)
        labels, values = _viterbi(node, trans)
        assert labels.shape == (batch, length) and values.shape == (batch,)
        for b in range(batch):
            scores = node[b][np.arange(length), labelings].sum(axis=1)
            if length > 1:
                scores = scores + trans[b][labelings[:, :-1], labelings[:, 1:]].sum(axis=1)
            optimal = labelings[scores == scores.max()]
            want = min(optimal.tolist(), key=lambda y: y[::-1])
            assert labels[b].tolist() == want
            assert values[b] == scores.max()

    @staticmethod
    def _assert_reference_bits(node, trans, reference_trans):
        """``_viterbi(node, trans)`` equals the reference DP on contiguous
        copies of ``node`` and ``reference_trans``: labels equal, maxima equal
        as bits.  Neither input is written."""
        node_bits, trans_bits = node.copy(), trans.copy()
        labels, values = _viterbi(node, trans)
        want_labels, want_values = reference_viterbi(
            np.ascontiguousarray(node), np.ascontiguousarray(reference_trans)
        )
        assert labels.dtype == np.int64 and labels.flags.c_contiguous
        assert np.array_equal(labels, want_labels)
        assert np.array_equal(values.view(np.int64), want_values.view(np.int64))
        assert np.array_equal(node.view(np.int64), node_bits.view(np.int64))
        assert np.array_equal(trans.view(np.int64), trans_bits.view(np.int64))

    @staticmethod
    def _planted_scores(rng, *shape):
        """Normals with about half the entries replaced by 0.0, -0.0, 0.5
        and 1.0, so that candidates tie exactly; the first row holds zeros
        of both signs alone."""
        out = rng.standard_normal(shape)
        planted = rng.random(shape) < 0.5
        out[planted] = rng.choice([0.0, -0.0, 0.5, 1.0], np.count_nonzero(planted))
        out[0] = rng.choice([0.0, -0.0], out[0].shape)
        return out

    def _planted_chain(self, rng, batch, length, m, trans_rows):
        """(B, L, m) node and (trans_rows, m, m) transition scores with
        planted ties.  Row 0's node is -0.0 throughout and its transitions
        are zeros of both signs, so each of its candidates is a zero with its
        transition's sign, and each maximum keeps the sign bit of the
        candidate the argmax picked."""
        node = self._planted_scores(rng, batch, length, m)
        node[0] = -0.0
        return node, self._planted_scores(rng, trans_rows, m, m)

    @pytest.mark.parametrize("group, length, m", [(1, 8, 2), (5, 3, 3), (60, 8, 2), (250, 40, 4)])
    def test_one_shared_transition_block_broadcasts(self, group, length, m):
        """(1, m, m) transitions against a (G, L, m) node, as the objective
        calls the DP, equal the reference with the block repeated G times."""
        rng = np.random.default_rng(group * 100 + length * 10 + m)
        node, trans = self._planted_chain(rng, group, length, m, 1)
        self._assert_reference_bits(node, trans, np.repeat(trans, group, axis=0))

    @pytest.mark.parametrize(
        "batch, length, m", [(1, 1, 2), (5, 1, 26), (1, 8, 2), (1, 8, 26), (3, 8, 26), (49, 8, 26)]
    )
    def test_candidates_gathered_by_row_at_the_edges(self, batch, length, m):
        """Each position's candidates are a row gather of the forward values
        plus the transitions: at L = 1, where no candidate is formed, at
        B = 1, where the add meets an operand of its own shape, and with one
        shared (1, m, m) block at B > 1 and m = 26.  With planted ties, both
        zeros, NaN and infinities in the last row, labels and maxima equal
        the reference DP's to the bit."""
        rng = np.random.default_rng(batch * 1000 + length * 100 + m)
        node, trans = self._planted_chain(rng, batch, length, m, 1)
        special = rng.random(node[-1].shape) < 0.2
        node[-1][special] = rng.choice([np.nan, np.inf, -np.inf], np.count_nonzero(special))
        with np.errstate(invalid="ignore"):  # inf + -inf
            self._assert_reference_bits(node, trans, np.repeat(trans, batch, axis=0))

    @pytest.mark.parametrize("batch, length, m", [(2, 8, 2), (7, 1, 3), (60, 8, 2), (250, 40, 4)])
    def test_strided_transitions_and_node(self, batch, length, m):
        """Transitions given as the transition view of every other row of a
        weight block, and a node that is a strided view, decode as their
        contiguous copies do."""
        rng = np.random.default_rng(batch * 100 + length * 10 + m)
        spec = FeatureSpec(d=3, m=m)
        block = self._planted_scores(rng, 2 * batch, spec.K)
        trans = spec.transition_view(block[::2])
        assert not trans.flags.c_contiguous
        node = self._planted_scores(rng, batch, 2 * length, m + 1)[:, ::2, :m]
        node[0] = -0.0
        self._assert_reference_bits(node, trans, trans)

    @pytest.mark.parametrize("batch, length, m", [(1, 8, 2), (60, 8, 2), (480, 8, 2), (250, 40, 4)])
    def test_workload_shapes_with_planted_zeros_and_ties(self, batch, length, m):
        """One fixed-seed case at each shape that training and decoding meet:
        B = 1 and 60 to 480 rows at L = 8, m = 2, and the wide decode."""
        rng = np.random.default_rng(batch + length + m)
        node, trans = self._planted_chain(rng, batch, length, m, batch)
        self._assert_reference_bits(node, trans, trans)

    @pytest.mark.parametrize("m", [2, 4, 26])
    @pytest.mark.parametrize("blocks", [1, 3])
    @pytest.mark.parametrize("group", [1, 5])
    def test_each_block_serves_its_own_run_of_chains(self, m, blocks, group):
        """B transition blocks over B * G chains, block r serving the G
        chains from r * G, decode as the same call on the blocks tiled once
        per chain: labels equal, maxima equal as bits, sign of zero
        included.  Block 0 is zeros of both signs, under -0.0 node scores
        in each of its chains."""
        rng = np.random.default_rng(m * 100 + blocks * 10 + group)
        node, trans = self._planted_chain(rng, blocks * group, 8, m, blocks)
        node[:group] = -0.0
        labels, values = _viterbi(node, trans)
        want_labels, want_values = _viterbi(node, np.repeat(trans, group, axis=0))
        assert np.array_equal(labels, want_labels)
        assert np.array_equal(values.view(np.int64), want_values.view(np.int64))
        assert np.array_equal(np.signbit(values), np.signbit(want_values))

    def test_ocr_shape_evaluation_holds_no_per_instance_transitions(self):
        """Evaluating 480 instances of (8, 128) under 10 weight rows at
        m = 26, the shape of handwritten-word OCR, peaks below 9 of its
        (B, G, L, m) node arrays: the node scores, the (B * G, m, m)
        candidates (3.25 node arrays at L = 8), the backpointers and the
        labels.  Each row's (m, m) transition block is read where it lies;
        tiling it once per instance, and transposing the tiling, added two
        more (B * G, m, m) arrays, about 12 node arrays in all."""
        rows, n, length, d, m = 10, 480, 8, 128, 26
        rng = np.random.default_rng(26)
        spec = FeatureSpec(d=d, m=m)
        instances = [SequenceInstance(rng.standard_normal((length, d)), rng.integers(0, m, length))
                     for _ in range(n)]
        weights = rng.standard_normal((rows, spec.K))
        node_bytes = rows * n * length * m * 8
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            before, _ = tracemalloc.get_traced_memory()
            evaluate_weight_rows(spec, weights, instances)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak - before < 9 * node_bytes

    def test_batched_decode_and_features_equal_single_row_calls(self):
        rng = np.random.default_rng(13)
        spec = FeatureSpec(d=3, m=3)
        weights = rng.standard_normal((5, spec.K))
        x = rng.standard_normal((7, 3))
        xs = rng.standard_normal((3, 7, 3))
        rows = decode_rows(spec, weights, xs)
        assert rows.shape == (5, 3, 7)
        for w, labels in zip(weights, rows):
            for x, y in zip(xs, labels):
                assert np.array_equal(y, decode_rows(spec, w[None], x[None])[0, 0])
        feats = feature_vectors(spec, xs[0], rows[:, 0])
        for y, f in zip(rows[:, 0], feats):
            assert np.array_equal(f, feature_vectors(spec, xs[0], y[None])[0])

    @pytest.mark.parametrize("d", [1, 3])
    def test_per_row_inputs_equal_single_row_calls(self, d):
        """Each row may bring its own input and gold labels; every row is
        bit-equal to its own call with B = 1."""
        rng = np.random.default_rng(16)
        spec = FeatureSpec(d=d, m=3)
        weights = rng.standard_normal((6, spec.K))
        xs = rng.standard_normal((6, 5, d))
        golds = rng.integers(0, 3, (6, 5))
        labels, values = loss_augmented_decode_rows(spec, weights, xs, golds)
        feats = feature_vectors(spec, xs, labels)
        for b in range(6):
            want_labels, want_values = loss_augmented_decode_rows(
                spec, weights[b][None], xs[b], golds[b]
            )
            assert np.array_equal(labels[b], want_labels[0]) and values[b] == want_values[0]
            assert np.array_equal(feats[b], feature_vectors(spec, xs[b], labels[b][None])[0])

    def test_decode_instances_equals_per_instance_decode_in_input_order(self):
        rng = np.random.default_rng(14)
        spec = FeatureSpec(d=3, m=3)
        weights = rng.standard_normal((2, spec.K))
        instances = make_mixed_instances(rng, n=9, d=3, m=3)
        preds = decode_instances(spec, weights, instances)
        assert len(preds) == len(instances)
        for inst, pred in zip(instances, preds):
            assert pred.shape == (2, len(inst))
            for w, labels in zip(weights, pred):
                assert np.array_equal(labels, decode_rows(spec, w[None], inst.features[None])[0, 0])
        assert decode_instances(spec, weights, []) == []

    def test_decode_rows_of_a_list_scores_as_the_stacked_array(self, monkeypatch):
        """A list of inputs decodes to the labels of their (G, L, d) stack,
        bit for bit, and the DP sees the node scores of the stacked product,
        strided views and Fortran-ordered inputs among them.  An empty
        (0, L, d) array decodes to (B, 0, L)."""
        seen = []

        def recording_viterbi(node, trans):
            seen.append(node.copy())
            return _viterbi(node, trans)

        monkeypatch.setattr(chain, "_viterbi", recording_viterbi)
        rng = np.random.default_rng(18)
        for _ in range(100):
            d, m, length = (int(v) for v in rng.integers(1, 9, 3))
            spec = FeatureSpec(d=d, m=m + 1)
            weights = rng.standard_normal((int(rng.integers(1, 4)), spec.K))
            xs = [
                rng.standard_normal((length, 2 * d))[:, ::2],
                np.asfortranarray(rng.standard_normal((length, d))),
                rng.standard_normal((length, d)),
            ]
            stacked = np.stack(xs)
            assert np.array_equal(decode_rows(spec, weights, xs),
                                  decode_rows(spec, weights, stacked))
            want = (stacked @ spec.state_view(weights)[:, None]).reshape(-1, length, spec.m)
            for node in seen[-2:]:
                assert np.array_equal(node, want)
        spec = FeatureSpec(d=3, m=2)
        assert decode_rows(spec, np.zeros((2, spec.K)), np.empty((0, 5, 3))).shape == (2, 0, 5)

    @pytest.mark.parametrize(
        "instances, weights",
        [(overflowing_gold_instances(), np.ones(8)), (overflowing_score_instances(), HUGE_WEIGHTS)],
        ids=["huge-features", "huge-weights"],
    )
    def test_scores_past_the_float_range_name_the_first_instance(self, instances, weights):
        """Finite features and weights can still score past the float range:
        decoding names the first such instance in input order, without a
        numpy warning, where it decoded labels from NaN scores."""
        spec = FeatureSpec(d=2, m=2)
        rows = np.stack([np.zeros(spec.K), weights])
        with pytest.raises(ValueError, match="^instance 2: its scores pass the float range$"):
            decode_instances(spec, rows, instances)
        # decode_rows names inputs by their place in its own list.
        xs = [inst.features for inst in instances if len(inst) == 2]
        with pytest.raises(ValueError, match="^instance 1: its scores pass the float range$"):
            decode_rows(spec, rows, xs)
        assert decode_rows(spec, rows[:1], xs).shape == (1, len(xs), 2)

    def test_decode_instances_checks_weights_and_width(self):
        rng = np.random.default_rng(15)
        spec = FeatureSpec(d=3, m=3)
        instances = make_mixed_instances(rng, n=3, d=3, m=3)
        for bad in (np.zeros(spec.K), np.zeros((2, spec.K + 1)), np.full((1, spec.K), np.nan)):
            with pytest.raises(ValueError):
                decode_instances(spec, bad, instances)
        narrow = FeatureSpec(d=2, m=3)
        with pytest.raises(ValueError, match="input features"):
            decode_instances(narrow, np.zeros((1, narrow.K)), instances)


class TestLossAugmentedDecode:
    def test_zero_weights_prediction_maximally_wrong(self):
        """With no model signal the loss term dominates: value equals L and
        the winner disagrees with the gold labels everywhere."""
        spec = FeatureSpec(d=2, m=2)
        rng = np.random.default_rng(9)
        x, gold = rng.standard_normal((5, 2)), rng.integers(0, 2, size=5)
        labels, values = loss_augmented_decode_rows(spec, np.zeros((1, spec.K)), x, gold)
        assert values[0] == pytest.approx(5.0)
        assert np.sum(labels[0] != gold) == 5

    def test_matches_enumeration_on_random_instances(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            length = int(rng.integers(1, 7))
            m = int(rng.integers(2, 4))
            d = int(rng.integers(1, 4))
            spec = FeatureSpec(d=d, m=m)
            w = rng.standard_normal(spec.K)
            x = rng.standard_normal((length, d))
            gold = rng.integers(0, m, size=length)
            labelings = enumerate_labelings(m, length)
            augmented = chain_scores(d, m, w, x, labelings)
            augmented = augmented + (labelings != gold).sum(axis=1)
            labels, values = loss_augmented_decode_rows(spec, w[None], x, gold)
            np.testing.assert_array_equal(labels[0], labelings[int(np.argmax(augmented))])
            assert values[0] == pytest.approx(float(augmented.max()), abs=1e-9)

    def test_value_dominates_random_labelings(self):
        rng = np.random.default_rng(11)
        spec = FeatureSpec(d=2, m=3)
        w = rng.standard_normal(spec.K)
        x = rng.standard_normal((6, 2))
        gold = rng.integers(0, 3, size=6)
        _, values = loss_augmented_decode_rows(spec, w[None], x, gold)
        for _ in range(100):
            y = rng.integers(0, 3, size=6)
            lower = manual_score(2, 3, w, x, y) + np.sum(y != gold)
            assert values[0] >= lower - 1e-9

    def test_large_margin_model_returns_gold(self):
        """When every margin exceeds the Hamming loss, the gold labeling is
        itself the loss-augmented winner and the value is its score."""
        spec = FeatureSpec(d=2, m=2)
        w = np.zeros(spec.K)
        spec.state_view(w)[:] = np.array([[30.0, -30.0], [0.0, 0.0]])
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4, 2))
        x[:, 0] = np.array([1.0, -1.0, 1.0, 1.0])
        gold = np.array([0, 1, 0, 0])
        labelings = enumerate_labelings(2, 4)
        scores = chain_scores(2, 2, w, x, labelings)
        gold_score = scores[int(np.argmax((labelings == gold).all(axis=1)))]
        # Confirm the construction: margin over every rival exceeds its loss.
        losses = (labelings != gold).sum(axis=1)
        assert np.all(gold_score - scores >= losses - 1e-9)
        labels, values = loss_augmented_decode_rows(spec, w[None], x, gold)
        np.testing.assert_array_equal(labels[0], gold)
        assert values[0] == pytest.approx(float(gold_score), abs=1e-9)

    @pytest.mark.parametrize("s", [0.1, 1e-17, -0.3, 2.5, 1e17])
    def test_a_gold_label_scores_one_plus_then_minus_one(self, s):
        """A gold label's loss-augmented node score is (s + 1) - 1, which is
        not always s: 0.1 comes back as 0.10000000000000009 and 1e-17 as 0.
        Every other label scores s + 1.  The kernel, the objective and the
        oracles round this way.  Scoring s at the gold labels instead moves
        the last bits of objective values (3 of 18 desk trainings) without
        moving any pinned digest, so only this test sees it."""
        assert (0.1 + 1.0) - 1.0 != 0.1 and (1e-17 + 1.0) - 1.0 == 0.0
        state = np.full((1, 1, 2), s)  # d = 1, m = 2: each label scores s at x = 1
        onehot = np.array([[[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]])
        node = chain._loss_augmented_scores(state, np.ones((1, 3, 1)), onehot)
        want = np.where(onehot == 1.0, (s + 1.0) - 1.0, s + 1.0)
        assert node.tobytes() == want.tobytes()
        # Through the public decoder: label 0 wins at one position, and its
        # value is the gold label's score.
        spec = FeatureSpec(d=1, m=2)
        w = np.array([[s, -1e18, 0.0, 0.0, 0.0, 0.0]])
        gold = np.zeros(1, dtype=np.int64)
        labels, values = loss_augmented_decode_rows(spec, w, np.ones((1, 1)), gold)
        assert labels.tolist() == [[0]]
        assert values.tobytes() == np.array([(s + 1.0) - 1.0]).tobytes()


class TestIndexRamps:
    """The memo of read-only index ramps that the DP, the feature map and
    the projection share: each call's result is what a cold memo gives."""

    def test_every_ramp_is_read_only(self, monkeypatch):
        """Every caller shares what the memo holds, so an in-place write into
        any ramp it serves raises."""
        served, real = [], chain._ramp

        def recording(*args, **kwargs):
            served.append(real(*args, **kwargs))
            return served[-1]

        monkeypatch.setattr(chain, "_ramp", recording)
        monkeypatch.setattr(optimize, "_ramp", recording)
        rng = np.random.default_rng(41)
        _viterbi(rng.standard_normal((2, 3, 2)), rng.standard_normal((2, 2, 2)))
        feature_vectors(FeatureSpec(d=2, m=3), rng.standard_normal((3, 2)), np.array([[0, 2, 1]]))
        l1_ball_project(10.0 * rng.standard_normal(5), 1.0)
        # The DP's row index, offsets and row starts, the label column, the ranks.
        assert [ramp.shape for ramp in served] == [(2, 2), (2, 2), (2,), (3, 1), (5,)]
        for ramp in served:
            with pytest.raises(ValueError):
                ramp[...] = 0
            with pytest.raises(ValueError):
                ramp += 1

    def test_each_call_equals_the_call_from_a_cold_memo(self):
        """Shapes that come back after others, as the kernel's buckets and
        the objective's stacks do: every result is bit-equal to the same
        call after ``cache_clear()``, and the DP's to the reference DP."""
        rng = np.random.default_rng(42)
        calls = []
        for batch, length, m in [(1, 8, 2), (60, 8, 2), (1, 8, 2), (250, 40, 4), (3, 8, 26)]:
            node = rng.standard_normal((batch, length, m))
            calls.append((_viterbi, (node, rng.standard_normal((batch, m, m)))))
        for K in (3, 44, 3):
            calls.append((l1_ball_project, (10.0 * rng.standard_normal(K), 1.0)))
        hits = chain._ramp.cache_info().hits
        warm = [f(*args) for f, args in calls]
        assert chain._ramp.cache_info().hits > hits  # the shapes that came back were served
        for (f, args), got in zip(calls, warm):
            chain._ramp.cache_clear()
            cold = f(*args)
            if f is _viterbi:
                want = reference_viterbi(*args)
                for a, b, c in zip(got, cold, want):
                    assert a.dtype == b.dtype == c.dtype
                    assert a.tobytes() == b.tobytes() == c.tobytes()
            else:
                assert got.tobytes() == cold.tobytes()
                np.testing.assert_allclose(got, l1_projection_oracle(*args), rtol=0, atol=1e-9)

    def test_a_sweep_of_shapes_keeps_the_memo_within_its_bound(self):
        misses = chain._ramp.cache_info().misses
        rng = np.random.default_rng(43)
        for batch in range(1, 11):
            _viterbi(rng.standard_normal((batch, 3, 2)), rng.standard_normal((batch, 2, 2)))
        info = chain._ramp.cache_info()
        assert info.misses >= misses + 10
        assert info.maxsize is not None and info.currsize <= info.maxsize


def _per_label_errors(predicted, gold) -> int:
    """Wrong positions that evaluation counts when the model decodes to
    ``predicted`` and the instance's labels are ``gold``.  The model reads a
    one-hot input column per label (d = m, identity state weights), so its
    Viterbi labeling is ``predicted`` exactly."""
    predicted = np.asarray(predicted)
    m = 3
    spec = FeatureSpec(d=m, m=m)
    w = np.zeros(spec.K)
    spec.state_view(w)[:] = np.eye(m)
    x = 4.0 * np.eye(m)[predicted]
    report = evaluate_weight_rows(spec, w[None], [SequenceInstance(x, gold)])[0]
    return round(report.per_label_err * report.n_positions)


class TestHammingLoss:
    """The Hamming loss as evaluation counts it: the positions where the
    decoded labeling differs from the gold one."""

    def test_equal_sequences_zero(self):
        assert _per_label_errors([1, 2, 0], [1, 2, 0]) == 0

    def test_all_positions_differ(self):
        assert _per_label_errors([0] * 8, [1] * 8) == 8

    def test_direct_count(self):
        assert _per_label_errors([0, 1, 0, 1], [0, 0, 0, 0]) == 2

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            length = int(rng.integers(1, 10))
            a = rng.integers(0, 3, size=length)
            b = rng.integers(0, 3, size=length)
            loss = _per_label_errors(a, b)
            assert loss == _per_label_errors(b, a) == np.sum(a != b)
            assert 0 <= loss <= length

    def test_length_mismatch_raises(self):
        """Each gold label pairs with one position: an instance whose labels
        and positions disagree in number is rejected before evaluation."""
        with pytest.raises(ValueError, match="one entry per position"):
            SequenceInstance(np.zeros((2, 3)), [0, 1, 2])
