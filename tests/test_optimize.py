"""Subgradient trainers and the L1-ball projection."""

import math
import re
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medn import (
    FeatureSpec,
    LaplaceConfig,
    SequenceInstance,
    SubgradConfig,
    evaluate_weight_rows,
    l1_ball_project,
    structured_hinge_objective,
    train_laplace_grid,
)
from medn import models, optimize
from medn.chain import feature_vectors, loss_augmented_decode_rows
from medn.cli import main
from medn.dataio import write_dataset
from medn.optimize import DIVERGENCE_LIMIT
import oracles
from oracles import (
    l1_projection_oracle,
    make_mixed_instances,
    make_signal_instances,
    overflowing_gold_instances,
    reference_l1_constrained_train,
    reference_subgradient_train,
    reference_train_laplace,
)


@st.composite
def _projection_cases(draw):
    dim = draw(st.integers(1, 8))
    entries = st.floats(-100.0, 100.0, allow_subnormal=False)
    return np.array(draw(st.lists(entries, min_size=dim, max_size=dim))), draw(st.floats(1e-3, 100.0))


class TestL1BallProject:
    @settings(max_examples=200, deadline=None)
    @given(_projection_cases())
    def test_kkt_conditions(self, case):
        """The result is feasible.  A point inside the ball comes back
        unchanged; any other lands on the boundary as
        sign(v) * max(|v| - theta, 0) for one threshold theta >= 0."""
        v, radius = case
        u = l1_ball_project(v, radius)
        mag = np.abs(v)
        tol = 1e-9 * max(radius, mag.max())
        assert np.abs(u).sum() <= radius + tol
        if mag.sum() <= radius:
            assert np.array_equal(u, v)
            return
        assert abs(np.abs(u).sum() - radius) <= tol
        support = u != 0.0
        theta = float(np.max(mag[support] - np.abs(u[support])))
        assert theta >= -tol
        np.testing.assert_allclose(u, np.sign(v) * np.maximum(mag - theta, 0.0), rtol=0, atol=tol)

    def test_inside_ball_unchanged(self):
        v = np.array([0.5, 0.5])
        np.testing.assert_array_equal(l1_ball_project(v, 1.0), v)

    def test_axis_case(self):
        np.testing.assert_allclose(l1_ball_project(np.array([3.0, 0.0]), 1.0), [1.0, 0.0])

    def test_hand_computed_threshold(self):
        """(2, 1) at radius 1: the threshold works out to 1, leaving (1, 0)."""
        out = l1_ball_project(np.array([2.0, 1.0]), 1.0)
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(
            out, l1_projection_oracle(np.array([2.0, 1.0]), 1.0), atol=1e-8
        )

    def test_feasible_and_idempotent_on_randoms(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            dim = int(rng.integers(1, 12))
            v = rng.standard_normal(dim) * rng.uniform(0.1, 10)
            radius = float(rng.uniform(0.05, 3.0))
            u = l1_ball_project(v, radius)
            assert np.abs(u).sum() <= radius + 1e-12
            np.testing.assert_array_equal(l1_ball_project(u, radius), u)

    def test_agrees_with_kkt_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            v = rng.standard_normal(5) * rng.uniform(0.2, 5)
            radius = float(rng.uniform(0.1, 2.0))
            np.testing.assert_allclose(
                l1_ball_project(v, radius), l1_projection_oracle(v, radius), atol=1e-8
            )

    def test_entries_far_beyond_the_radius_project_into_the_ball(self):
        """At 1e17 times the radius, u_1 - radius rounds to u_1; the largest
        entry must still count as clearing the threshold."""
        for v in (np.array([1.3e17, -2.0, 5.0]), np.array([-4e18, 4e18, 1.0])):
            u = l1_ball_project(v, 1.0)
            assert np.abs(u).sum() <= 1.0 + 1e-12

    @pytest.mark.parametrize(
        "v, radius, exact",
        [([1.3e17, -2.0, 5.0], 1.0, [1.0, 0.0, 0.0]),
         ([-4e18, 4e18, 1.0], 1.0, [-0.5, 0.5, 0.0]),
         ([3.0 * 2**51, 0.0], 0.75, [0.75, 0.0]),
         ([1e16, 1e16 - 2.0, 3.0], 1.5, [1.5, 0.0, 0.0]),
         ([1e308, 1e308], 1.0, [0.5, 0.5])],
    )
    def test_entries_that_dwarf_the_radius_project_exactly(self, v, radius, exact):
        """Where the largest entries are 2**50 and more times the radius,
        the threshold from their sums loses the radius; these projections
        are exact in floats, and come back without a warning."""
        np.testing.assert_array_equal(l1_ball_project(np.array(v), radius), exact)

    @settings(max_examples=300, deadline=None)
    @given(_projection_cases(), st.integers(-30, 999), st.booleans())
    def test_lands_on_the_ball_at_every_scale(self, case, k, negate_power):
        """Entries scaled by 2**k (or 2**-k) against the radius: the result
        lies in the ball to 1e-12 of the radius, on its boundary to 1e-9 of
        it when the input lay outside, and keeps the KKT form with the
        radius as the scale of every tolerance."""
        v, radius = case
        v = v * 2.0 ** (-k if negate_power else k)
        u = l1_ball_project(v, radius)
        mag, norm = np.abs(v), np.abs(u).sum()
        assert norm <= radius * (1.0 + 1e-12)
        if mag.sum() <= radius * (1.0 + 1e-12):
            assert np.array_equal(u, v)
            return
        assert norm >= radius * (1.0 - 1e-9)
        assert np.all(np.sign(u) * np.sign(v) >= 0.0) and np.all(np.abs(u) <= mag)
        # Every kept entry shrank by one threshold: the gaps between kept
        # entries stay as they were, and every dropped entry lies at least
        # the smallest kept result below the smallest kept entry.  Entries
        # within the radius of each other differ exactly in floats, so the
        # radius sets the tolerance.
        kept, out = mag[u != 0.0], np.abs(u[u != 0.0])
        np.testing.assert_allclose(out - out.min(), kept - kept.min(), rtol=0, atol=1e-9 * radius)
        assert np.all(kept.min() - mag[u == 0.0] >= out.min() - 1e-9 * radius)

    def test_signs_preserved(self):
        out = l1_ball_project(np.array([-2.0, 1.0, -0.5]), 1.0)
        assert out[0] <= 0 and out[1] >= 0 and out[2] <= 0

    @pytest.mark.parametrize("radius", [10.0, 1.0], ids=["inside", "outside"])
    def test_returns_a_new_array(self, radius):
        """The result is never the input or a view of it: writing into it
        leaves the caller's array as it was."""
        v = np.array([2.0, -0.0, -1.5, 0.1])
        before = v.copy()
        u = l1_ball_project(v, radius)
        assert u is not v and not np.shares_memory(u, v)
        u[:] = 7.0
        assert np.array_equal(v.view(np.int64), before.view(np.int64))

    @pytest.mark.parametrize("radius", [np.inf, 10**400], ids=["inf", "int-past-float-range"])
    def test_an_infinite_radius_leaves_the_vector_as_it_is(self, radius):
        """The radius may be infinite, or an int too large for a float,
        which counts as infinite: every finite vector lies in that ball."""
        v = np.array([3.0, -1e308, 0.5])
        np.testing.assert_array_equal(l1_ball_project(v, radius), v)

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            l1_ball_project(np.array([1.0, np.inf]), 1.0)
        with pytest.raises(ValueError):
            l1_ball_project(np.array([1.0, 2.0]), 0.0)


def _identity_cfg(**kw):
    base = dict(beta=1.0, iterations=50, C=1.0, seed=0)
    base.update(kw)
    return SubgradConfig(**base)


class TestSubgradientTrain:
    def test_separable_toy_reaches_zero_training_error(self):
        rng = np.random.default_rng(22)
        spec = FeatureSpec(d=2, m=2)
        data = make_signal_instances(rng, n=2, length=3, d=2)
        cfg = _identity_cfg(iterations=200)
        w = train_laplace_grid(data, spec, [cfg])[0][0]
        assert evaluate_weight_rows(spec, w[None], data)[0].per_label_err == 0.0

    def test_zero_hinge_weight_returns_zero_vector(self):
        """With C = 0 only the quadratic penalty remains, whose minimum is 0."""
        rng = np.random.default_rng(23)
        spec = FeatureSpec(d=2, m=2)
        data = make_signal_instances(rng, n=3, length=4, d=2)
        w = train_laplace_grid(data, spec, [_identity_cfg(C=0.0)])[0][0]
        np.testing.assert_array_equal(w, np.zeros(spec.K))

    def test_single_position_matches_grid_search_minimizer(self):
        """One instance, one position, two labels: the regularized hinge
        objective reduces to g**2/4 + C*max(0, 1 - g) over the score gap g,
        minimized on a dense grid as the oracle."""
        spec = FeatureSpec(d=1, m=2)
        data = [SequenceInstance([[1.0]], [0])]
        cfg = _identity_cfg(iterations=3000, C=2.0)
        w = train_laplace_grid(data, spec, [cfg])[0][0]
        gaps = np.linspace(0.0, 3.0, 300001)
        objective = gaps**2 / 4.0 + 2.0 * np.maximum(0.0, 1.0 - gaps)
        best_gap = gaps[int(np.argmin(objective))]
        np.testing.assert_allclose(w[:2], [best_gap / 2.0, -best_gap / 2.0], atol=0.02)
        trained_obj = structured_hinge_objective(data, spec, w, 2.0, inv_diag=np.ones(spec.K))
        assert trained_obj <= objective.min() + 0.01
        np.testing.assert_array_equal(w[2:], np.zeros(spec.K - 2))

    def test_final_objective_no_worse_than_zero_vector(self):
        rng = np.random.default_rng(24)
        spec = FeatureSpec(d=3, m=2)
        data = make_signal_instances(rng, n=6, length=5, d=3)
        inv = np.ones(spec.K)
        cfg = _identity_cfg(iterations=20)
        w = train_laplace_grid(data, spec, [cfg])[0][0]
        at_zero = structured_hinge_objective(data, spec, np.zeros(spec.K), cfg.C, inv_diag=inv)
        at_final = structured_hinge_objective(data, spec, w, cfg.C, inv_diag=inv)
        assert at_final <= at_zero

    def test_bit_reproducible_for_fixed_seed(self):
        rng = np.random.default_rng(25)
        spec = FeatureSpec(d=2, m=2)
        data = make_signal_instances(rng, n=4, length=4, d=2)
        cfg = _identity_cfg(iterations=15, seed=77)
        first = train_laplace_grid(data, spec, [cfg])[0][0]
        second = train_laplace_grid(data, spec, [cfg])[0][0]
        np.testing.assert_array_equal(first, second)

    def test_divergent_step_size_raises(self):
        """The error names the epoch, the update, the row's beta and its norm."""
        rng = np.random.default_rng(26)
        spec = FeatureSpec(d=2, m=2)
        data = make_signal_instances(rng, n=2, length=3, d=2)
        cfg = SubgradConfig(beta=1e-12, iterations=50, C=1e6, seed=0)
        with pytest.raises(RuntimeError) as info:
            train_laplace_grid(data, spec, [cfg])
        fields = re.search(
            r"epoch (\d+) at update t=(\d+): beta=(\S+) reached L2 norm (\S+);", str(info.value)
        )
        assert fields is not None, str(info.value)
        assert (fields[1], fields[2], fields[3]) == ("1", "1", "1e-12")
        assert float(fields[4]) > DIVERGENCE_LIMIT
        # In lockstep, the error names the diverging row, not the first one.
        stable = SubgradConfig(beta=1.0, iterations=50, C=1.0, seed=0)
        risky = SubgradConfig(beta=0.01, iterations=50, C=1.0, seed=0)
        with pytest.raises(RuntimeError) as info:
            train_laplace_grid(data, spec, [stable, risky])
        fields = re.search(
            r"epoch (\d+) at update t=(\d+): beta=(\S+) reached L2 norm (\S+);", str(info.value)
        )
        assert (fields[1], fields[2], fields[3]) == ("4", "7", "0.01")
        assert float(fields[4]) > DIVERGENCE_LIMIT

    def test_divergence_test_goes_by_row(self):
        """Rows whose squared norms add up past the limit pass while each is
        within it; the first row past it, or not finite, raises."""
        cfgs = [SubgradConfig(beta=1.0, iterations=1, C=1.0, seed=3), SubgradConfig(2.0, 1, 1.0, seed=4)]
        bucket = SimpleNamespace(rows=np.array([0, 1]), sizes=np.array([5, 5]))
        near = np.zeros((2, 4))
        near[:, 0] = 0.9 * DIVERGENCE_LIMIT
        optimize._check_iterates(near, bucket, 7, cfgs)
        for value in (0.5 * DIVERGENCE_LIMIT, np.nan, np.inf):
            rows = near.copy()
            rows[1, 2] = value
            with pytest.raises(RuntimeError, match="seed=4 diverged in epoch 2 at update t=7: beta=2 "):
                optimize._check_iterates(rows, bucket, 7, cfgs)

    def test_divergence_limit_is_the_edge_where_order_cannot_matter(self):
        """A row whose one nonzero entry is the limit has the square 1e16,
        exactly, in any summation order: it passes, alone or beside a row
        whose squares push the block's total past the limit's square.  One
        ulp more raises, naming that row's seed, epoch, update and beta."""
        cfgs = [SubgradConfig(beta=1.0, iterations=1, C=1.0, seed=3), SubgradConfig(2.0, 1, 1.0, seed=4)]
        bucket = SimpleNamespace(rows=np.array([0, 1]), sizes=np.array([5, 3]))
        rows = np.zeros((2, 6))
        rows[1, 4] = DIVERGENCE_LIMIT
        optimize._check_iterates(rows, bucket, 7, cfgs)
        rows[0] = 1.0
        optimize._check_iterates(rows, bucket, 7, cfgs)
        rows[1, 4] = np.nextafter(DIVERGENCE_LIMIT, np.inf)
        message = (r"^subgradient iterate with seed=4 diverged in epoch 3 at update t=7: "
                   r"beta=2 reached L2 norm 1e\+08; decrease the step size \(raise beta\)$")
        with pytest.raises(RuntimeError, match=message):
            optimize._check_iterates(rows, bucket, 7, cfgs)

    @pytest.mark.parametrize("raises", [False, True], ids=["passes", "raises"])
    def test_a_row_at_the_limit_goes_by_its_own_sum(self, raises):
        """A row of squares 1e16 - 2, 1.125**2 and 1.125**2 sums to 1e16
        when the small squares meet first and to 1e16 + 2 when each meets
        the large one: its own sum decides, as a dot product of the block,
        which may add them in yet another order, must not."""
        cfgs = [SubgradConfig(beta=1.0, iterations=1, C=1.0, seed=3), SubgradConfig(2.0, 1, 1.0, seed=4)]
        bucket = SimpleNamespace(rows=np.array([0, 1]), sizes=np.array([5, 3]))
        rows = np.zeros((2, 44))
        # numpy's row sum adds entries 0 and 1 (and 2 and 3) before the rest.
        rows[1, [0, 1, 3] if raises else [2, 0, 1]] = np.nextafter(DIVERGENCE_LIMIT, 0.0), 1.125, 1.125
        squares = rows[1] * rows[1]
        assert sorted(squares[:4].tolist()) == [0.0, 1.265625, 1.265625, 1e16 - 2]
        assert np.add.reduce(squares) == (1e16 + 2 if raises else 1e16)
        assert math.fsum(squares) == 1e16
        if raises:
            with pytest.raises(RuntimeError, match="^subgradient iterate with seed=4 diverged in epoch 3 "):
                optimize._check_iterates(rows, bucket, 7, cfgs)
        else:
            optimize._check_iterates(rows, bucket, 7, cfgs)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("bad", [0, 1])
    def test_a_row_that_is_not_finite_is_named_beside_a_finite_one(self, bad, value):
        """A NaN or an infinity fails the block's bound, and the error names
        its row, first or second, by that row's seed, epoch and beta."""
        cfgs = [SubgradConfig(beta=1.0, iterations=1, C=1.0, seed=3), SubgradConfig(2.0, 1, 1.0, seed=4)]
        bucket = SimpleNamespace(rows=np.array([0, 1]), sizes=np.array([5, 3]))
        rows = np.full((2, 6), 0.5)
        rows[bad, 2] = value
        seed, epoch, beta = ((3, 2, 1), (4, 3, 2))[bad]
        message = rf"^subgradient iterate with seed={seed} diverged in epoch {epoch} at update t=7: beta={beta} "
        with pytest.raises(RuntimeError, match=message):
            optimize._check_iterates(rows, bucket, 7, cfgs)

    def test_empty_data_raises(self):
        spec = FeatureSpec(d=2, m=2)
        with pytest.raises(ValueError):
            train_laplace_grid([], spec, [_identity_cfg()])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SubgradConfig(beta=0.0, iterations=10, C=1.0)
        with pytest.raises(ValueError):
            SubgradConfig(beta=1.0, iterations=0, C=1.0)
        with pytest.raises(ValueError):
            SubgradConfig(beta=1.0, iterations=10, C=-1.0)
        # numpy would reject these seeds only inside the kernel, naming neither.
        for seed, shown in ((-1, "-1"), (1.5, "1.5"), (True, "True"), ("3", "'3'")):
            message = f"^seed must be an integer >= 0, got {shown}$"
            with pytest.raises(ValueError, match=message):
                SubgradConfig(beta=1.0, iterations=10, C=1.0, seed=seed)
        assert SubgradConfig(1.0, 10, 1.0, seed=np.int64(3)).seed == 3
        # An infinite beta is a zero step size: the weights would stay 0.
        for beta, shown in ((math.inf, "inf"), (0.0, "0"), (-1.0, "-1"), (np.nan, "nan")):
            with pytest.raises(ValueError, match=f"^beta must be positive and finite, got {shown}$"):
                SubgradConfig(beta=beta, iterations=10, C=1.0)
        for radius, shown in ((0.0, "0"), (-1.0, "-1"), (np.nan, "nan"), (math.inf, "inf")):
            message = f"^radius must be positive and finite, got {shown}$"
            with pytest.raises(ValueError, match=message):
                SubgradConfig(beta=1.0, iterations=10, C=1.0, radius=radius)


class TestL1ConstrainedTrain:
    def test_tiny_radius_keeps_iterates_feasible(self):
        rng = np.random.default_rng(27)
        spec = FeatureSpec(d=2, m=2)
        data = make_signal_instances(rng, n=3, length=4, d=2)
        w = train_laplace_grid(data, spec, [_identity_cfg(iterations=10, radius=1e-9)])[0][0]
        assert np.abs(w).sum() <= 1e-9 + 1e-12

    def test_huge_radius_matches_unprojected_iterates(self):
        """With the ball too large to touch, the trajectory must equal a
        hand-rolled unconstrained hinge subgradient loop, step for step."""
        rng = np.random.default_rng(28)
        spec = FeatureSpec(d=2, m=2)
        data = make_signal_instances(rng, n=3, length=4, d=2)
        cfg = _identity_cfg(iterations=12, seed=5, radius=1e6)
        trained = train_laplace_grid(data, spec, [cfg])[0][0]

        gold = [feature_vectors(spec, inst.features, inst.labels[None])[0] for inst in data]
        loop_rng = np.random.default_rng(cfg.seed)
        w = np.zeros(spec.K)
        t = 0
        for _ in range(cfg.iterations):
            for idx in loop_rng.permutation(len(data)):
                t += 1
                alpha = 1.0 / (2.0 * cfg.beta * math.sqrt(t))
                inst = data[idx]
                y_star = loss_augmented_decode_rows(spec, w[None], inst.features, inst.labels)[0][0]
                if not np.array_equal(y_star, inst.labels):
                    delta = gold[idx] - feature_vectors(spec, inst.features, y_star[None])[0]
                    w = w + alpha * cfg.C * delta
        assert np.abs(w).sum() < 1e6  # the ball really was inactive
        np.testing.assert_array_equal(trained, w)

    def test_noise_feature_gets_little_weight(self):
        rng = np.random.default_rng(29)
        spec = FeatureSpec(d=2, m=2)
        data = make_signal_instances(rng, n=10, length=5, d=2)
        # Column 1 is pure noise; replace the mild 0.1-scaled noise with unit noise.
        for i, inst in enumerate(data):
            x = inst.features.copy()
            x[:, 1] = rng.standard_normal(len(inst))
            data[i] = SequenceInstance(x, inst.labels)
        w = train_laplace_grid(data, spec, [_identity_cfg(iterations=60, radius=1.0)])[0][0]
        state = np.abs(spec.state_view(w))
        assert state[1].sum() < 0.1 * state[0].sum()

    def test_invalid_radius_raises(self):
        rng = np.random.default_rng(30)
        spec = FeatureSpec(d=2, m=2)
        data = make_signal_instances(rng, n=2, length=3, d=2)
        with pytest.raises(ValueError):
            train_laplace_grid(data, spec, [_identity_cfg(radius=0.0)])


class TestStructuredHingeObjective:
    def _problem(self):
        rng = np.random.default_rng(145)
        spec = FeatureSpec(d=3, m=3)
        data = make_mixed_instances(rng, n=30, d=3, m=3)
        return spec, data, 3.0 * rng.standard_normal(spec.K), rng.uniform(0.5, 2.0, spec.K)

    def test_values_are_pinned(self):
        """Recorded when every instance was decoded and scored one checked
        call at a time.  On this data, summing the hinge terms in any other
        order (reversed, values and scores apart, or by np.sum) changes the
        last bit."""
        spec, data, w, inv = self._problem()
        assert structured_hinge_objective(data, spec, w, 2.5, inv_diag=inv) == 1356.239719678744
        assert structured_hinge_objective(data, spec, w, 2.5) == 1253.972226518211

    def test_desk_size_values_are_pinned(self):
        """250 instances with d = 20 and lengths 1 to 12, recorded when each
        length was decoded in one DP call and each hinge term formed as
        ``value - w . gold`` in instance order.  Scoring the golds of a
        length by one ``golds @ w`` product changes the last bit here."""
        rng = np.random.default_rng(250)
        spec = FeatureSpec(d=20, m=2)
        data = make_mixed_instances(rng, n=250, d=20, m=2, max_length=12)
        w = rng.standard_normal(spec.K)
        inv = rng.uniform(0.5, 2.0, spec.K)
        with_penalty = structured_hinge_objective(data, spec, w, 2.5, inv_diag=inv)
        assert repr(with_penalty) == "6636.783854911485"
        assert repr(structured_hinge_objective(data, spec, w, 2.5)) == "6610.456089421349"

    def test_empty_data_gives_the_penalty_term(self):
        spec, _, w, inv = self._problem()
        assert structured_hinge_objective([], spec, w, 2.5, inv_diag=inv) == 0.5 * float(
            np.dot(w, inv * w)
        )
        assert structured_hinge_objective([], spec, w, 2.5) == 0.0

    def test_overflowing_gold_features_name_the_first_instance(self):
        """Finite features whose gold feature vector overflows are one error
        when the data is prepared, naming the first such instance in data
        order, for the objective and the trainer alike."""
        spec = FeatureSpec(2, 2)
        data = overflowing_gold_instances()
        message = "^instance 2: its features sum past the float range$"
        with pytest.raises(ValueError, match=message):
            structured_hinge_objective(data, spec, np.zeros(spec.K), 1.0)
        with pytest.raises(ValueError, match=message):
            train_laplace_grid(data, spec, [SubgradConfig(1.0, 1, 1.0)])

    def test_bad_instances_raise(self):
        spec, data, w, _ = self._problem()
        wide = SequenceInstance(np.zeros((2, 4)), [0, 1])
        with pytest.raises(ValueError, match="input features"):
            structured_hinge_objective(data + [wide], spec, w, 1.0)
        out_of_range = SequenceInstance(np.zeros((2, 3)), [0, 3])
        with pytest.raises(ValueError, match="label"):
            structured_hinge_objective([out_of_range] + data, spec, w, 1.0)

    def test_bad_weights_raise(self):
        spec, data, w, _ = self._problem()
        for bad in (w[:-1], w[None], np.append(w, 0.0)):
            with pytest.raises(ValueError, match=rf"^weights must have shape \({spec.K},\), got "):
                structured_hinge_objective(data, spec, bad, 1.0)
        for value in (np.nan, np.inf):
            bad = w.copy()
            bad[2] = value
            with pytest.raises(ValueError, match="finite"):
                structured_hinge_objective(data, spec, bad, 1.0)

    def test_bad_inv_diag_raises(self):
        """The penalty is checked as the kernel checks it: a length-1 array
        used to broadcast, and a negative one gave a negative objective."""
        spec, data, w, inv = self._problem()
        for bad in (np.full(1, 2.0), inv[None], inv[:-1], np.float64(2.0)):
            with pytest.raises(ValueError, match=rf"^inv_diag must have shape \({spec.K},\), got "):
                structured_hinge_objective(data, spec, w, 1.0, inv_diag=bad)
        for value in (-1.0, 0.0, np.nan, np.inf):
            one_bad = inv.copy()
            one_bad[3] = value
            for bad in (one_bad, np.full(spec.K, value)):
                with pytest.raises(ValueError, match="^inv_diag must be positive and finite, got "):
                    structured_hinge_objective(data, spec, w, 1.0, inv_diag=bad)

    def test_bad_hinge_weight_raises(self):
        """C is checked as a config checks it: a negative one used to give a
        negative objective, and a non-finite one a non-finite value."""
        spec, data, _, inv = self._problem()
        for c in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match=f"^C must be nonnegative and finite, got {c:g}$"):
                structured_hinge_objective(data, spec, np.zeros(spec.K), c, inv_diag=inv)


def _kernel(data, spec, cfgs, inv_diag):
    """The kernel's rows on all of ``data`` under the (B, K) preconditioner
    ``inv_diag``, which only lapmedn's later rounds set (None: the identity)."""
    subsets = [np.arange(len(data))] * len(cfgs)
    return optimize._lockstep(optimize._KernelData(data, spec), cfgs, subsets, inv_diag=inv_diag)


def _lockstep_problem(seed, m):
    rng = np.random.default_rng(seed)
    spec = FeatureSpec(d=3, m=m)
    return spec, make_mixed_instances(rng, n=7, d=3, m=m, max_length=6)


@pytest.mark.parametrize("m", [2, 3, 4])
class TestLockstepEqualsPerConfigLoops:
    """Every row of the lockstep kernel is bit-equal to the per-config loop
    it replaced, on instances of mixed lengths."""

    def test_m3n_rows(self, m):
        spec, data = _lockstep_problem(100 + m, m)
        cfgs = [
            SubgradConfig(beta=beta, iterations=4, C=c, seed=m)
            for beta, c in ((1.0, 200.0), (0.5, 1.0), (10.0, 3.0))
        ]
        inv = np.ones((len(cfgs), spec.K))
        inv[1] = np.linspace(0.5, 4.0, spec.K)
        rows = _kernel(data, spec, cfgs, inv)
        for row, cfg, inv_row in zip(rows, cfgs, inv):
            want = reference_subgradient_train(data, spec, inv_row, cfg)
            assert np.array_equal(row, want)

    def test_lapmedn_every_round(self, m):
        spec, data = _lockstep_problem(110 + m, m)
        cfgs = [
            LaplaceConfig(
                lam=lam, inner=SubgradConfig(beta=beta, iterations=3, C=1.0, seed=m), outer_iters=4
            )
            for lam in (4.0, 36.0)
            for beta in (1.0, 10.0)
        ]
        for rounds in (1, 2, 3):
            grid = [LaplaceConfig(c.lam, c.inner, outer_iters=rounds + 1) for c in cfgs]
            means, variances = train_laplace_grid(data, spec, grid)
            for got_mean, got_var, cfg in zip(means, variances, cfgs):
                mean, var = reference_train_laplace(data, spec, cfg)[rounds - 1]
                assert np.array_equal(got_mean, mean)
                assert np.array_equal(got_var, var)

    def test_l1m3n_rows(self, m):
        spec, data = _lockstep_problem(120 + m, m)
        cfgs = [SubgradConfig(beta=beta, iterations=4, C=1.0, seed=m) for beta in (1.0, 10.0)]
        grid = [(radius, cfg) for radius in (0.5, 3.0, 1e6) for cfg in cfgs]
        balls = [replace(cfg, radius=radius) for radius, cfg in grid]
        rows = train_laplace_grid(data, spec, balls)[0]
        for row, (radius, cfg) in zip(rows, grid):
            want = reference_l1_constrained_train(data, spec, radius, cfg)
            # compare signs too: the projection leaves -0.0 entries
            assert np.array_equal(row, want)
            assert np.array_equal(np.signbit(row), np.signbit(want))


def test_train_laplace_grid_over_mixed_families(monkeypatch):
    """Rows of all three families, interleaved out of family order, each on
    its own subset of mixed lengths with its own seed, in one call: every
    row is bit-equal, sign bits included, to its reference loop run alone
    on its subset.  Only the lapmedn rows run past round 1."""
    spec, data = _lockstep_problem(170, 3)

    def inner(beta, c, seed, radius=None):
        return SubgradConfig(beta=beta, iterations=4, C=c, seed=seed, radius=radius)

    cfgs = [
        inner(1.0, 2.0, 1, radius=0.5),
        LaplaceConfig(lam=4.0, inner=inner(10.0, 1.0, 2), outer_iters=4),
        inner(0.5, 3.0, 3),
        LaplaceConfig(lam=36.0, inner=inner(1.0, 0.5, 4), outer_iters=4),
        inner(10.0, 1.0, 5, radius=1e6),
    ]
    subsets = [np.array(s) for s in ([0, 1, 2, 3], [2, 3, 4, 5, 6], range(7), [1, 3, 5], [6, 0, 4])]
    assert all(len({len(data[i]) for i in subset}) > 1 for subset in subsets)
    kernel_calls = _count_calls(monkeypatch, models, "_lockstep")
    means, variances = train_laplace_grid(data, spec, cfgs, subsets=subsets)
    for mean, var, cfg, subset in zip(means, variances, cfgs, subsets):
        fold = [data[i] for i in subset]
        if isinstance(cfg, LaplaceConfig):
            want, want_var = reference_train_laplace(fold, spec, cfg)[-1]
        elif cfg.radius is None:
            want = reference_subgradient_train(fold, spec, np.ones(spec.K), cfg)
            want_var = np.ones(spec.K)
        else:
            want = reference_l1_constrained_train(fold, spec, cfg.radius, cfg)
            want_var = np.ones(spec.K)
        assert _same_bits(mean, want), cfg
        assert np.array_equal(var, want_var), cfg
    assert np.abs(means[0]).sum() == 0.5 and np.signbit(means[0]).any()  # the ball binds
    assert [len(args[1]) for args in kernel_calls] == [5, 2, 2]


def test_identical_rows_train_once(monkeypatch):
    """Round 1 does not depend on lambda, so two lapmedn rows that differ
    only in lambda run one round-1 trajectory, and a repeated m3n row runs
    one: round 1 decodes 2 rows, not 4, and round 2 the two lapmedn rows.
    Every row is bit-equal to training its config alone."""
    spec, data = _lockstep_problem(180, 3)
    inner = SubgradConfig(beta=1.0, iterations=3, C=1.0, seed=2)
    m3n = SubgradConfig(beta=10.0, iterations=3, C=2.0, seed=2)
    cfgs = [LaplaceConfig(lam=4.0, inner=inner, outer_iters=3), m3n,
            LaplaceConfig(lam=36.0, inner=inner, outer_iters=3), m3n]
    alone = [train_laplace_grid(data, spec, [cfg]) for cfg in cfgs]
    decodes = _count_calls(monkeypatch, optimize, "_viterbi")
    means, variances = train_laplace_grid(data, spec, cfgs)
    for mean, var, (want_mean, want_var) in zip(means, variances, alone):
        assert _same_bits(mean, want_mean[0]) and _same_bits(var, want_var[0])
    steps = inner.iterations * len(data)  # one bucket per step: every row shares its instance
    batches = [len(args[0]) for args in decodes]
    assert batches == [2] * steps + [2] * steps


def test_identical_rows_name_the_first_diverging_row():
    """A repeated diverging row raises the error its first copy raises alone."""
    rng = np.random.default_rng(26)
    spec = FeatureSpec(d=2, m=2)
    data = make_signal_instances(rng, n=2, length=3, d=2)
    stable = SubgradConfig(beta=1.0, iterations=50, C=1.0, seed=0)
    risky = SubgradConfig(beta=0.01, iterations=50, C=1.0, seed=0)
    with pytest.raises(RuntimeError) as alone:
        train_laplace_grid(data, spec, [stable, risky])
    with pytest.raises(RuntimeError) as repeated:
        train_laplace_grid(data, spec, [stable, risky, stable, risky])
    assert str(repeated.value) == str(alone.value)


@pytest.mark.parametrize("seeds", [(7, 7, 7, 7), (7, 7, 8, 8)], ids=["one-group", "two-groups"])
def test_rows_that_partly_hit_map_the_right_inputs(monkeypatch, seeds):
    """A bucket whose rows are only partly hit at one step maps the hit
    rows' winners on their inputs: the one-row input that every row of one
    seed and training set shares, as it is, or each row's own input,
    gathered to the hit rows.  Both kinds of step occur, and every row is
    bit-equal to its per-config loop."""
    spec, data = _lockstep_problem(192, 3)
    cfgs = [SubgradConfig(beta=beta, iterations=4, C=c, seed=seed)
            for (beta, c), seed in zip(((1.0, 200.0), (0.5, 1.0), (10.0, 3.0), (2.0, 0.01)), seeds)]
    kernel = optimize._KernelData(data, spec)
    events, decode, fmap = [], optimize._viterbi, optimize.feature_vectors

    def decoding(node, trans):
        events.append(("decode", len(node)))
        return decode(node, trans)

    def mapping(spec, xs, ys):
        events.append(("map", len(ys), len(xs)))
        return fmap(spec, xs, ys)

    monkeypatch.setattr(optimize, "_viterbi", decoding)
    monkeypatch.setattr(optimize, "feature_vectors", mapping)
    rows = optimize._lockstep(kernel, cfgs, [np.arange(len(data))] * len(cfgs))
    for row, cfg in zip(rows, cfgs):
        assert _same_bits(row, reference_subgradient_train(data, spec, np.ones(spec.K), cfg))
    # (rows decoded, rows hit, input rows) of each step that hit only some rows.
    partial = [(before[1], event[1], event[2]) for before, event in zip(events, events[1:])
               if event[0] == "map" and event[1] < before[1]]
    whole = len(cfgs)
    if len(set(seeds)) == 1:  # every bucket shares one input
        assert any(rows == whole and hits > inputs == 1 for rows, hits, inputs in partial)
    else:  # a bucket of both groups has one input per row
        assert any(rows == whole and hits == inputs > 1 for rows, hits, inputs in partial)


def test_instances_are_one_row_views_of_their_stacks():
    """Each prepared instance is a (1, ...) slice of its length's stacks,
    not a copy, holding that instance's input, labels, gold one-hot and
    gold features."""
    spec, data = _lockstep_problem(200, 3)
    kernel = optimize._KernelData(data, spec)
    for inst, parts, length, at in zip(data, kernel.instances, kernel.lengths, kernel.slot):
        for part, stack in zip(parts, kernel.stacks[length]):
            assert part.shape == (1,) + stack.shape[1:]
            assert np.shares_memory(part, stack)
            assert np.array_equal(part[0], stack[at])
        x, y, onehot, gold = parts
        assert np.array_equal(x[0], inst.features) and np.array_equal(y[0], inst.labels)
        assert np.array_equal(onehot[0], np.eye(spec.m)[inst.labels])
        assert np.array_equal(gold[0], feature_vectors(spec, inst.features, inst.labels[None])[0])


class TestLockstepValidation:
    def test_configs_must_share_the_instance_order(self):
        """Each row draws its own order from its seed, but every row runs
        the same number of epochs."""
        spec, data = _lockstep_problem(130, 2)
        a = SubgradConfig(beta=1.0, iterations=3, C=1.0, seed=0)
        b = SubgradConfig(1.0, 4, 1.0, seed=0)
        with pytest.raises(ValueError, match="share iterations"):
            train_laplace_grid(data, spec, [a, b])

    @pytest.mark.parametrize(
        "outer_iters, message",
        [((), "^need at least one configuration$"),
         ((2, 3), "^lockstep configurations must share outer_iters$")],
        ids=["no-configs", "unequal-outer-iters"],
    )
    def test_an_empty_grid_or_unequal_rounds_is_refused(self, outer_iters, message):
        spec, data = _lockstep_problem(131, 2)
        inner = SubgradConfig(beta=1.0, iterations=3, C=1.0)
        cfgs = [LaplaceConfig(lam=4.0, inner=inner, outer_iters=t) for t in outer_iters]
        with pytest.raises(ValueError, match=message):
            train_laplace_grid(data, spec, cfgs)

    def test_training_sets_are_checked(self):
        spec, data = _lockstep_problem(132, 2)
        cfg = SubgradConfig(beta=1.0, iterations=3, C=1.0)
        for subsets in ([], [[0], [1]], [[]], [[0, 7]], [[-1, 0]], [[0.0]], [[[0]]]):
            with pytest.raises(ValueError):
                train_laplace_grid(data, spec, [cfg], subsets=subsets)

    @pytest.mark.parametrize(
        "subsets, message",
        [([[0, 1], [True, 1]], "training set 1 must hold instance indices, got a bool at index 0"),
         ([(0, np.True_)], "training set 0 must hold instance indices, got a bool at index 1"),
         ([[0], [1, [0]]], "training set 1 must have entries of one shared shape, got () at index 0 "
                           "and (1,) at index 1")],
        ids=["bool-first", "numpy-bool-in-tuple", "ragged"],
    )
    def test_a_bool_or_ragged_training_set_names_it(self, subsets, message):
        """numpy reads ``[True, 1]`` as the indices ``[1, 1]``, which would
        train on instance 1 twice; the training set is refused by its
        number, with the bool's index, as is one that forms no array."""
        spec, data = _lockstep_problem(134, 2)
        cfg = SubgradConfig(beta=1.0, iterations=3, C=1.0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            train_laplace_grid(data, spec, [cfg] * len(subsets), subsets=subsets)

    def test_training_sets_of_any_integer_dtype(self):
        """[5, 0] as int32 has the bytes of [5] as int64; each row must still
        train on its own training set."""
        spec, data = _lockstep_problem(133, 2)
        cfg = SubgradConfig(beta=1.0, iterations=3, C=1.0, seed=4)
        subsets = [np.array([5], dtype=np.int64), np.array([5, 0], dtype=np.int32)]
        rows = train_laplace_grid(data, spec, [cfg, cfg], subsets=subsets)[0]
        for row, subset in zip(rows, subsets):
            fold = [data[i] for i in subset]
            want = reference_subgradient_train(fold, spec, np.ones(spec.K), cfg)
            assert np.array_equal(row, want)

    def test_iterations_must_be_an_integer(self):
        """A fractional or bool epoch count is rejected with the config, not
        inside the kernel."""
        for iterations in (2.5, True):
            with pytest.raises(ValueError, match=f"^iterations must be an integer >= 1, got {iterations!r}$"):
                SubgradConfig(beta=1.0, iterations=iterations, C=1.0)

    @pytest.mark.parametrize("where, name", [(np, "full"), (optimize._KernelData, "draws")],
                             ids=["schedule", "draws"])
    def test_schedule_out_of_memory_is_one_error(self, monkeypatch, where, name):
        """A schedule or instance order the machine cannot allocate is the
        same ``ValueError`` as one past the index range."""
        spec, data = _lockstep_problem(133, 2)

        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(where, name, out_of_memory)
        cfg = SubgradConfig(beta=1.0, iterations=3, C=1.0)
        message = "^3 iterations over 7 instances are more steps than the kernel can schedule$"
        with pytest.raises(ValueError, match=message):
            train_laplace_grid(data, spec, [cfg])

    def test_schedule_memory_per_step_before_the_first_update(self, monkeypatch):
        """The kernel walks its schedule one row at a time.  Stopped at its
        first update, one row over 50 desk-shaped instances for 2,000 epochs
        (100,000 steps) peaked at 26.6 traced bytes per step: the int64
        schedule, the cached instance order and the epochs' permutations
        while they are joined.  A list of the whole schedule made it 88.1."""

        class FirstUpdate(Exception):
            pass

        def first_update(*args):
            raise FirstUpdate

        rng = np.random.default_rng(0)
        spec = FeatureSpec(20, 2)
        data = [SequenceInstance(rng.standard_normal((8, 20)), rng.integers(0, 2, 8))
                for _ in range(50)]
        monkeypatch.setattr(optimize._Bucket, "step", first_update)
        cfg = SubgradConfig(beta=1.0, iterations=2000, C=1.0)
        tracemalloc.start()
        try:
            with pytest.raises(FirstUpdate):
                train_laplace_grid(data, spec, [cfg])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 50 % above the measured 26.6 bytes per step.
        assert peak / (50 * 2000) < 40.0


def _count_calls(monkeypatch, module, name) -> list:
    """Patch ``module.name`` to record the arguments of every call."""
    calls, real = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def _same_bits(got, want) -> bool:
    """Equal values and equal sign bits (the projection leaves -0.0 entries)."""
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def _label_signal_instances(rng, n, d, m, max_length, labels=None):
    """Instances of lengths 1..max_length whose feature 0 is the label
    centered on 0 plus a little noise, which a single feature can learn.
    Labels are drawn from ``labels``, all m by default."""
    labels = np.arange(m) if labels is None else np.asarray(labels)
    instances = []
    for _ in range(n):
        length = int(rng.integers(1, max_length + 1))
        y = labels[rng.integers(0, len(labels), size=length)]
        x = 0.1 * rng.standard_normal((length, d))
        x[:, 0] += y - (m - 1) / 2
        instances.append(SequenceInstance(x, y))
    return instances


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("m", [2, 3, 26])
class TestKernelBranches:
    """Every branch of the update against the per-config loops, bit for bit
    and sign bits included, up to the OCR task's 26 labels.  A bucket whose
    rows are all hit updates them without gathering rows; one where only
    some are hit gathers those.  Each is run with and without a
    preconditioner, which the update then skips."""

    def test_one_row_under_each_step_rule(self, monkeypatch, d, m):
        rng = np.random.default_rng(150 + 10 * d + m)
        spec = FeatureSpec(d=d, m=m)
        # Feature 0 is linear in the label and no feature is constant, so a
        # score can make only the two end labels win: past 3 labels, only
        # instances of those can stop being hit.
        ends = None if m <= 3 else [0, m - 1]
        data = _label_signal_instances(rng, n=6, d=d, m=m, max_length=3, labels=ends)
        cfg = SubgradConfig(beta=1.0, iterations=6, C=2.0, seed=d + m)
        ones, inv = np.ones(spec.K), np.linspace(0.5, 4.0, spec.K)
        ball = replace(cfg, radius=3.0)
        rules = [
            (cfg, None, lambda: reference_subgradient_train(data, spec, ones, cfg)),
            (cfg, inv[None], lambda: reference_subgradient_train(data, spec, inv, cfg)),
            (ball, None, lambda: reference_l1_constrained_train(data, spec, 3.0, cfg)),
        ]
        maps = _count_calls(monkeypatch, optimize, "feature_vectors")
        lengths = len({len(inst) for inst in data})
        for row_cfg, inv_diag, reference in rules:
            maps.clear()
            row = _kernel(data, spec, [row_cfg], inv_diag)[0]
            assert _same_bits(row, reference())
            # one feature map per length for the golds, then one per hit update
            hits = len(maps) - lengths
            assert 0 < hits < cfg.iterations * len(data)

    @pytest.mark.parametrize("seeds", [(0, 0, 0, 0), (0, 1, 0, 1)], ids=["shared", "per-row"])
    def test_bucket_with_hit_and_missed_rows(self, monkeypatch, d, m, seeds):
        """Equal-length instances, so every step decodes all four rows in one
        bucket; with one seed they share an input, with two each row brings
        its own.  Rows differ in C and step rule, so their hits differ."""
        _bucket_against_loops(monkeypatch, d, m, seeds, preconditioned=True)

    @pytest.mark.parametrize("seeds", [(0, 0, 0, 0), (0, 1, 0, 1)], ids=["shared", "per-row"])
    def test_bucket_without_a_preconditioner(self, monkeypatch, d, m, seeds):
        """The same bucket with no ``inv_diag``, as every m3n and l1m3n call
        and lapmedn's first round run it."""
        _bucket_against_loops(monkeypatch, d, m, seeds, preconditioned=False)


def _bucket_against_loops(monkeypatch, d, m, seeds, preconditioned):
    """Four rows, two shrinking and two projecting, on five equal-length
    instances: each row bit-equal to its per-config loop, and at least one
    step where every row is hit and one where only some are."""
    rng = np.random.default_rng(160 + 10 * d + m)
    spec = FeatureSpec(d=d, m=m)
    data = [
        SequenceInstance(np.tile(inst.features, (3, 1)), np.tile(inst.labels, 3))
        for inst in _label_signal_instances(rng, n=5, d=d, m=m, max_length=1)
    ]
    hinge_weights = (4.0, 1e-3, 2.0, 30.0)
    cfgs = [
        SubgradConfig(beta=1.0, iterations=5, C=c, seed=seed)
        for c, seed in zip(hinge_weights, seeds)
    ]
    inv = np.vstack([np.ones(spec.K), np.linspace(0.5, 4.0, spec.K)])
    if not preconditioned:
        inv[1] = 1.0
    radii = [2.0, 1e6]
    cfgs[len(inv):] = [replace(cfg, radius=r) for cfg, r in zip(cfgs[len(inv):], radii)]
    maps = _count_calls(monkeypatch, optimize, "feature_vectors")
    ones = np.ones((len(radii), spec.K))  # a projecting row's scale of 1 is exact
    rows = _kernel(data, spec, cfgs, np.vstack([inv, ones]) if preconditioned else None)
    for b, cfg in enumerate(cfgs):
        if b < len(inv):
            want = reference_subgradient_train(data, spec, inv[b], cfg)
        else:
            want = reference_l1_constrained_train(data, spec, radii[b - len(inv)], cfg)
        assert _same_bits(rows[b], want)
    mapped = [len(args[2]) for args in maps[1:]]  # after the golds' one call
    assert len(cfgs) in mapped  # every row hit: no gathers
    assert any(0 < rows_hit < len(cfgs) for rows_hit in mapped)  # some rows hit


@pytest.mark.parametrize("whole", [True, False], ids=["whole", "some-rows"])
def test_row_inside_its_ball_keeps_its_bits_when_another_row_projects(whole):
    """One update of three rows at one instance.  Row 0 (l1m3n) decodes to
    the gold labels and lies inside its ball; row 1 (l1m3n) is hit and
    steps outside its ball; row 2 (m3n) shrinks and is hit.  Row 0's shrink
    factor is exactly 1.0 and the projection does not write it, so its
    bits stay, zeros' signs included; row 1 lands on its boundary."""
    spec = FeatureSpec(d=1, m=2)
    x, y = np.ones((1, 1)), np.zeros(1, dtype=np.int64)
    onehot = np.array([[1.0, 0.0]])
    gold = feature_vectors(spec, x, y[None])[0]
    inside = np.array([5.0, -0.0, -0.0, 0.1, -0.0, 1 / 3])
    # Without ``whole`` the bucket holds rows 0 to 2 of four.
    w = np.vstack([inside, np.zeros((2, spec.K)), np.full(spec.K, 9.0)])[: 3 if whole else 4]
    bucket = optimize._Bucket(
        rows=np.arange(3),
        groups=np.zeros(3, dtype=np.int64),
        twice_betas=np.ones(3),
        hinge_weights=np.array([1.0, 10.0, 1.0]),
        sizes=np.array([1, 1, 4]),
        scale=np.ones((3, spec.K)),
        radii=np.array([10.0, 0.5, math.inf]),
        shrink_sizes=np.array([math.inf, math.inf, 4.0]),
        whole=whole,
        shrinks=True,
        projects=True,
    )
    updated = bucket.step(w, spec, 1, x, y, onehot, gold)
    assert np.array_equal(w[0].view(np.int64), inside.view(np.int64))
    np.testing.assert_allclose(w[1], [0.25, -0.25, 0.0, 0.0, 0.0, 0.0], rtol=0, atol=1e-15)
    assert np.array_equal(w[2], [1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(updated, w[:3])
    if not whole:
        assert np.array_equal(w[3], np.full(spec.K, 9.0))


def test_kernel_call_at_the_ocr_shape_holds_no_idle_whole_block():
    """One kernel call at the OCR task's shape (m = 26, d = 128, so K =
    4,004) with B = 60 rows of two seeds and no preconditioner: three
    updates of a bucket in which each row brings its own instance.  Its
    traced peak measured 4.26 (B, K) float blocks: the weights, the
    feature map's output, in which the step is formed, and the rows'
    gathered golds and inputs.  A ones matrix for the absent
    preconditioner, a block of squares for the norm bound and the step's
    temporaries made it 6.41."""
    rng = np.random.default_rng(7)
    spec = FeatureSpec(d=128, m=26)
    data = [SequenceInstance(rng.standard_normal((8, 128)), rng.integers(0, 26, 8))
            for _ in range(3)]
    kernel = optimize._KernelData(data, spec)
    cfgs = [SubgradConfig(beta=1.0, iterations=1, C=1.0 + b, seed=b % 2) for b in range(60)]
    tracemalloc.start()
    try:
        optimize._lockstep(kernel, cfgs, [np.arange(3)] * len(cfgs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Midway between the two peaks: a block of slack either way, for
    # another numpy version's temporaries.
    assert peak / (len(cfgs) * spec.K * 8) < 5.3


class TestLayerCounts:
    """What one kernel call costs, layer by layer: one DP call per update,
    one feature map per length for the golds plus one per hit update, and
    one check per instance.  The reference loop maps each gold once and
    then once per hit, which counts the hits independently."""

    def test_one_row_kernel_call(self, monkeypatch):
        spec, data = _lockstep_problem(140, 3)
        cfg = SubgradConfig(beta=1.0, iterations=4, C=2.0, seed=3)
        reference_maps = _count_calls(monkeypatch, oracles, "feature_vectors")
        want = reference_subgradient_train(data, spec, np.ones(spec.K), cfg)
        hits = len(reference_maps) - len(data)
        decodes = _count_calls(monkeypatch, optimize, "_viterbi")
        maps = _count_calls(monkeypatch, optimize, "feature_vectors")
        checks = _count_calls(monkeypatch, optimize, "_check_instance")
        row = train_laplace_grid(data, spec, [cfg])[0][0]
        assert np.array_equal(row, want)
        assert 0 < hits < cfg.iterations * len(data)
        assert len(decodes) == cfg.iterations * len(data)
        assert len(maps) == hits + len({len(inst) for inst in data})
        assert len(checks) == len(data)

    def test_lapmedn_rounds_check_and_map_the_golds_once(self, monkeypatch):
        spec, data = _lockstep_problem(141, 2)
        inner = SubgradConfig(beta=1.0, iterations=3, C=1.0, seed=2)
        cfg = LaplaceConfig(lam=4.0, inner=inner, outer_iters=4)
        reference_maps = _count_calls(monkeypatch, oracles, "feature_vectors")
        want_mean, want_var = reference_train_laplace(data, spec, cfg)[-1]
        rounds = cfg.outer_iters - 1
        hits = len(reference_maps) - rounds * len(data)
        decodes = _count_calls(monkeypatch, optimize, "_viterbi")
        maps = _count_calls(monkeypatch, optimize, "feature_vectors")
        checks = _count_calls(monkeypatch, optimize, "_check_instance")
        means, variances = train_laplace_grid(data, spec, [cfg])
        assert np.array_equal(means[0], want_mean) and np.array_equal(variances[0], want_var)
        assert len(decodes) == rounds * inner.iterations * len(data)
        assert len(maps) == hits + len({len(inst) for inst in data})
        assert len(checks) == len(data)

    @pytest.mark.parametrize("flags", [["m3n"], ["lapmedn", "--lambda", "4"], ["l1m3n", "--radius", "2"]],
                             ids=["m3n", "lapmedn", "l1m3n"])
    def test_train_command_prepares_its_data_once(self, monkeypatch, tmp_path, capsys, flags):
        """A whole ``train`` command checks each instance once: one
        preparation trains the model and evaluates its final objective."""
        spec, data = _lockstep_problem(142, 3)
        path = tmp_path / "train.jsonl"
        write_dataset(path, data, spec, meta={})
        checks = _count_calls(monkeypatch, optimize, "_check_instance")
        preparations = _count_calls(monkeypatch, optimize._KernelData, "__init__")
        argv = ["train", "--model", *flags, "--data", str(path), "--iters", "2",
                "--out", str(tmp_path / "model.json")]
        assert main(argv) == 0
        assert "final objective: " in capsys.readouterr().out
        assert len(checks) == len(data)
        assert len(preparations) == 1
