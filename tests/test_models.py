"""Model-family trainers and the Laplace-posterior analysis functions."""

import itertools
import json
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog

from medn import (
    DualWeights,
    FeatureSpec,
    LaplaceConfig,
    SequenceInstance,
    SubgradConfig,
    decode_instances,
    evaluate_weight_rows,
    kl_norm,
    laplace_log_z,
    laplace_log_z_grad,
    shrinkage_mean,
    structured_hinge_objective,
    train_laplace_grid,
)
from medn.cli import main
from medn.dataio import write_dataset
from medn.models import VARIANCE_FLOOR
from oracles import (
    enumerate_labelings,
    inverse_variance_expectation,
    laplace_tilted_mean,
    make_mixed_instances,
    make_signal_instances,
    manual_feature_vector,
)


def _cfg(**kw):
    base = dict(beta=1.0, iterations=30, C=1.0, seed=0)
    base.update(kw)
    return SubgradConfig(**base)


class TestTrainGaussian:
    def test_untrained_baseline_is_the_prior(self, tmp_path):
        """C = 0 leaves the weights at zero, so the m3n model file records
        the posterior N(0, I)."""
        rng = np.random.default_rng(40)
        spec = FeatureSpec(d=2, m=2)
        data_path, model_path = tmp_path / "data.jsonl", tmp_path / "m3n.json"
        write_dataset(data_path, make_signal_instances(rng, n=3, length=4, d=2), spec)
        flags = ["--data", str(data_path), "--c", "0", "--iters", "30", "--out", str(model_path)]
        assert main(["train", "--model", "m3n", *flags]) == 0
        payload = json.loads(model_path.read_text())
        assert payload["weights"] == [0.0] * spec.K
        assert payload["var_diag"] == [1.0] * spec.K

    def test_separable_toy_zero_training_error(self):
        rng = np.random.default_rng(41)
        spec = FeatureSpec(d=2, m=2)
        data = make_signal_instances(rng, n=4, length=5, d=2)
        cfg = _cfg(iterations=100)
        w = train_laplace_grid(data, spec, [cfg])[0][0]
        assert evaluate_weight_rows(spec, w[None], data)[0].per_label_err == 0.0


def _zero_column_data(rng, n=4, length=4, d=2, dead_col=1):
    """Toy data whose dead column is identically zero in every instance."""
    data = make_signal_instances(rng, n=n, length=length, d=d)
    for i, inst in enumerate(data):
        x = inst.features.copy()
        x[:, dead_col] = 0.0
        data[i] = SequenceInstance(x, inst.labels)
    return data


class TestTrainLaplace:
    def test_unused_feature_variance_after_one_round(self):
        """A feature that never appears keeps mean 0, so its first variance
        update gives sqrt(1 / lam) exactly."""
        rng = np.random.default_rng(44)
        spec = FeatureSpec(d=2, m=2)
        data = _zero_column_data(rng)
        lam = 4.0
        means, variances = train_laplace_grid(
            data, spec, [LaplaceConfig(lam=lam, inner=_cfg(), outer_iters=2)]
        )
        mean, var = means[0], variances[0]
        # state indices of dead input column 1 under the k*m + c layout
        dead_idx = [1 * spec.m + c for c in range(spec.m)]
        np.testing.assert_array_equal(mean[dead_idx], np.zeros(2))
        # second moment is 1 (prior variance) + 0, so the update is sqrt(1/4)
        np.testing.assert_allclose(var[dead_idx], [0.5, 0.5], atol=1e-15)

    def test_variance_update_matches_quadrature(self):
        """The coordinatewise refresh sqrt(second_moment / lam) agrees with
        integrating the inverse variance under its exact posterior."""
        for second_moment, lam in ((1.0, 4.0), (0.7, 9.0), (2.3, 16.0)):
            expected = inverse_variance_expectation(second_moment, lam)
            assert math.sqrt(lam / second_moment) == pytest.approx(expected, rel=1e-7)
            # the refreshed variance is the reciprocal of that expectation
            assert math.sqrt(second_moment / lam) == pytest.approx(
                1.0 / expected, rel=1e-7
            )

    def test_two_outer_iters_equal_one_solve_plus_one_update(self):
        rng = np.random.default_rng(45)
        spec = FeatureSpec(d=2, m=2)
        data = make_signal_instances(rng, n=4, length=4, d=2)
        lam = 9.0
        inner = _cfg(iterations=20, C=2.0)
        means, variances = train_laplace_grid(
            data, spec, [LaplaceConfig(lam=lam, inner=inner, outer_iters=2)]
        )
        mean, var = means[0], variances[0]
        # manual replay: one penalty solve at unit variances with C = 2, then
        # one variance refresh from the diagonal second moment
        solved = train_laplace_grid(data, spec, [inner])[0][0]
        second_moment = np.ones(spec.K) + solved**2
        np.testing.assert_array_equal(mean, solved)
        np.testing.assert_array_equal(
            var, np.maximum(np.sqrt(second_moment / lam), VARIANCE_FLOOR)
        )

    def test_dead_coordinate_variance_non_increasing(self):
        """For lam >= 1 the no-signal variance recursion contracts toward its
        fixed point 1/lam from above, so successive values never increase."""
        rng = np.random.default_rng(46)
        spec = FeatureSpec(d=2, m=2)
        data = _zero_column_data(rng)
        dead_idx = [1 * spec.m + c for c in range(spec.m)]
        lam = 4.0
        previous = np.ones(2)
        for total in range(2, 7):
            _, variances = train_laplace_grid(
                data,
                spec,
                [LaplaceConfig(lam=lam, inner=_cfg(), outer_iters=total)],
            )
            current = variances[0, dead_idx]
            assert np.all(current > 0)
            assert np.all(current <= previous + 1e-15)
            previous = current
        # limit of the recursion v <- sqrt(v / lam) is 1/lam
        np.testing.assert_allclose(previous, np.full(2, 1.0 / lam), atol=0.02)

    def test_all_variances_stay_positive(self):
        rng = np.random.default_rng(47)
        spec = FeatureSpec(d=3, m=2)
        data = make_signal_instances(rng, n=5, length=4, d=3)
        _, variances = train_laplace_grid(
            data, spec, [LaplaceConfig(lam=1e12, inner=_cfg(), outer_iters=5)]
        )
        assert np.all(variances >= VARIANCE_FLOOR)

    def test_overflowing_variance_names_the_round_and_lam(self):
        """A subnormal lam overflows sqrt(second_moment / lam) in the first
        refresh: one ValueError, and no overflow warning."""
        rng = np.random.default_rng(48)
        spec = FeatureSpec(d=2, m=2)
        data = make_signal_instances(rng, n=3, length=4, d=2)
        cfgs = [
            LaplaceConfig(lam=lam, inner=_cfg(iterations=3), outer_iters=4)
            for lam in (4.0, 1e-320)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                train_laplace_grid(data, spec, cfgs)
        message = str(info.value)
        assert "round 1" in message and "lam=9.99989e-321" in message
        assert "\n" not in message

    def test_config_validation(self):
        for lam in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="lam must be positive and finite"):
                LaplaceConfig(lam=lam, inner=_cfg())
        with pytest.raises(ValueError):
            LaplaceConfig(lam=1.0, inner=_cfg(), outer_iters=1)
        # The inner config's C is the hinge weight, and a lapmedn row has no ball.
        with pytest.raises(ValueError, match="^C must be positive$"):
            LaplaceConfig(lam=1.0, inner=_cfg(C=0.0))
        with pytest.raises(ValueError, match="^a lapmedn inner config takes no radius$"):
            LaplaceConfig(lam=1.0, inner=_cfg(radius=1.0))
        # Rejected here, not by range() inside the trainer.
        for outer_iters in (2.5, True):
            with pytest.raises(ValueError, match="^outer_iters must be an integer$"):
                LaplaceConfig(lam=1.0, inner=_cfg(), outer_iters=outer_iters)


class TestPredictMean:
    def test_zero_mean_gives_all_zeros(self):
        spec = FeatureSpec(d=2, m=3)
        rng = np.random.default_rng(48)
        instances = [SequenceInstance(rng.standard_normal((4, 2)), np.ones(4, dtype=np.int64))]
        np.testing.assert_array_equal(
            decode_instances(spec, np.zeros((1, spec.K)), instances)[0],
            np.zeros((1, 4), dtype=np.int64),
        )

    def test_matches_monte_carlo_score_averaging(self):
        """Averaging w'f over posterior samples and then taking the argmax
        must reproduce the mean-weight decoder (score is linear in w)."""
        spec = FeatureSpec(d=2, m=2)
        rng = np.random.default_rng(77)
        mean, var_diag = rng.standard_normal(spec.K), np.full(spec.K, 0.5)
        x = rng.standard_normal((3, 2))
        labelings = enumerate_labelings(2, 3)
        feats = np.stack([manual_feature_vector(2, 2, x, y) for y in labelings])
        draws = rng.standard_normal((100_000, spec.K)) * np.sqrt(var_diag) + mean
        mc_scores = (draws @ feats.T).mean(axis=0)
        exact_scores = feats @ mean
        gap = np.sort(exact_scores)[-1] - np.sort(exact_scores)[-2]
        assert gap > 0.5  # the argmax is identifiable at this sample size
        (decoded,) = decode_instances(spec, mean[None], [SequenceInstance(x, labelings[0])])
        np.testing.assert_array_equal(labelings[int(np.argmax(mc_scores))], decoded[0])


class TestShrinkageMean:
    def test_zero_eta_maps_to_zero(self):
        for lam in (0.5, 4.0, 100.0):
            assert shrinkage_mean(0.0, lam) == 0.0

    def test_known_values(self):
        assert shrinkage_mean(1.0, 4.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert shrinkage_mean(2.0, 9.0) == pytest.approx(0.8, abs=1e-15)

    def test_matches_quadrature_oracle(self):
        for lam in (4.0, 9.0):
            for eta in (-1.5, -0.3, 0.7, 1.9):
                if eta * eta >= lam:
                    continue
                assert shrinkage_mean(eta, lam) == pytest.approx(
                    laplace_tilted_mean(eta, lam), abs=1e-6
                )

    def test_odd_and_increasing(self):
        lam = 6.0
        grid = np.linspace(-0.9 * math.sqrt(lam), 0.9 * math.sqrt(lam), 41)
        values = [shrinkage_mean(float(e), lam) for e in grid]
        for e, v in zip(grid, values):
            assert shrinkage_mean(float(-e), lam) == pytest.approx(-v, abs=1e-12)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_larger_lam_shrinks_more(self):
        for eta in (0.1, 0.5, 0.9):
            assert shrinkage_mean(eta, 6.0) < shrinkage_mean(eta, 4.0)

    def test_domain_error(self):
        for eta in (2.0, 2.5, np.nan):
            with pytest.raises(ValueError):
                shrinkage_mean(eta, 4.0)
        # kl_norm's penalty is undefined there too; numpy gave NaN with a warning.
        for mu in (np.nan, np.inf):
            with pytest.raises(ValueError, match="^mu must be finite$"):
                kl_norm([0.5, mu], 4.0)


def _tiny_dual_problem(seed=0):
    """One instance, two positions, two labels; duals over the 3 rivals."""
    rng = np.random.default_rng(seed)
    spec = FeatureSpec(d=2, m=2)
    inst = SequenceInstance(rng.standard_normal((2, 2)), [0, 0])
    rivals = [y for y in itertools.product(range(2), repeat=2) if y != (0, 0)]
    return spec, [inst], rivals, rng


def _random_feasible_dual(spec, data, rivals, rng, lam, C=1.0):
    raw = {y: float(rng.uniform(0.0, 1.0)) for y in rivals}
    total = sum(raw.values())
    if total > C:
        raw = {y: a * C / total for y, a in raw.items()}
    dual = DualWeights(spec=spec, alphas=[raw])
    eta = dual.eta(data)
    peak = float(np.abs(eta).max())
    if peak >= 0.7 * math.sqrt(lam):
        factor = 0.7 * math.sqrt(lam) / peak
        raw = {y: a * factor for y, a in raw.items()}
        dual = DualWeights(spec=spec, alphas=[raw])
    return dual


class TestLaplaceLogZ:
    def test_zero_duals_give_zero(self):
        spec, data, rivals, _ = _tiny_dual_problem()
        dual = DualWeights(spec=spec, alphas=[{y: 0.0 for y in rivals}])
        assert laplace_log_z(dual, data, 4.0) == 0.0

    def test_gradient_matches_finite_differences(self):
        spec, data, rivals, rng = _tiny_dual_problem(seed=50)
        lam = 4.0
        step = 1e-5
        for _ in range(5):
            dual = _random_feasible_dual(spec, data, rivals, rng, lam)
            grads = laplace_log_z_grad(dual, data, lam)[0]
            for y in rivals:
                up = dict(dual.alphas[0])
                dn = dict(dual.alphas[0])
                up[y] += step
                dn[y] -= step
                if dn[y] < 0:
                    continue
                plus = laplace_log_z(DualWeights(spec, [up]), data, lam)
                minus = laplace_log_z(DualWeights(spec, [dn]), data, lam)
                fd = (plus - minus) / (2.0 * step)
                assert abs(fd - grads[y]) <= 1e-4 * max(1.0, abs(grads[y]))

    def test_monotone_blowup_toward_the_domain_edge(self):
        """Scaling the duals toward the eta**2 = lam pole sends the
        log-normalizer to +inf; near the pole it increases monotonically."""
        spec, data, rivals, _ = _tiny_dual_problem(seed=51)
        lam = 4.0
        base = {rivals[0]: 0.6, rivals[1]: 0.25, rivals[2]: 0.1}
        eta = DualWeights(spec, [base]).eta(data)
        t_max = math.sqrt(lam) / float(np.abs(eta).max())
        values = []
        for fraction in (0.9, 0.97, 0.99, 0.997, 0.999, 0.9999):
            scaled = {y: a * fraction * t_max for y, a in base.items()}
            values.append(laplace_log_z(DualWeights(spec, [scaled]), data, lam))
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > values[0] + 2.0

    def test_domain_error_past_the_pole(self):
        spec, data, rivals, _ = _tiny_dual_problem(seed=52)
        base = {rivals[0]: 0.6, rivals[1]: 0.25, rivals[2]: 0.1}
        eta = DualWeights(spec, [base]).eta(data)
        t_max = math.sqrt(4.0) / float(np.abs(eta).max())
        bad = {y: a * 1.01 * t_max for y, a in base.items()}
        with pytest.raises(ValueError):
            laplace_log_z(DualWeights(spec, [bad]), data, 4.0)

    def test_negative_duals_rejected(self):
        spec, data, rivals, _ = _tiny_dual_problem()
        for bad in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="^dual weights must be finite and nonnegative$"):
                DualWeights(spec=spec, alphas=[{rivals[0]: bad}])

    def test_bad_labelings_rejected(self):
        spec, data, rivals, _ = _tiny_dual_problem()
        with pytest.raises(ValueError, match="label indices"):
            DualWeights(spec=spec, alphas=[{(0, 2): 0.1}])
        with pytest.raises(ValueError, match="sequence length"):
            laplace_log_z(DualWeights(spec=spec, alphas=[{(0, 1, 1): 0.1}]), data, 4.0)

    def test_values_are_pinned(self):
        """Recorded when each labeling's features were recomputed, one checked
        feature map at a time, for the value and again for the gradient."""
        rng = np.random.default_rng(150)
        spec = FeatureSpec(d=2, m=3)
        data = make_mixed_instances(rng, n=3, d=2, m=3, max_length=3)
        alphas = []
        for inst in data:
            ys = [tuple(rng.integers(0, 3, len(inst)).tolist()) for _ in range(3)]
            alphas.append({y: float(rng.uniform(0, 0.1)) for y in ys})
        dual = DualWeights(spec, alphas)
        assert laplace_log_z(dual, data, 9.0) == -0.5177917886031935
        assert laplace_log_z_grad(dual, data, 9.0) == [
            {(1, 0): -1.7231053981515418, (1, 2): -1.770331923738206, (2, 0): -1.739317965753064},
            {(2, 2, 0): -0.9888094001256699, (1, 0, 0): -2.9156221815266092,
             (2, 1, 1): -0.9468023568337971},
            {(0,): 0.0, (1,): -0.8411066013057018},
        ]


class TestKlNorm:
    def test_value_at_zero(self):
        """At mu = 0 each coordinate contributes exactly 1/sqrt(lam)."""
        assert kl_norm(0.0, 4.0) == pytest.approx(0.5, abs=1e-15)
        assert kl_norm(np.zeros(3), 4.0) == pytest.approx(1.5, abs=1e-14)

    def test_approaches_l1_norm_for_large_lam(self):
        assert abs(kl_norm(np.array([1.0]), 1e6) - 1.0) <= 0.01

    def test_monotone_in_magnitude(self):
        assert kl_norm(np.array([0.5]), 4.0) < kl_norm(np.array([1.0]), 4.0)

    def test_scaled_value_is_a_nonnegative_divergence(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            k = int(rng.integers(1, 8))
            mu = rng.standard_normal(k) * rng.uniform(0.1, 3.0)
            lam = float(rng.uniform(0.5, 50.0))
            assert math.sqrt(lam) * kl_norm(mu, lam) - k >= 0.0
        assert abs(math.sqrt(7.0) * kl_norm(np.zeros(4), 7.0) - 4.0) <= 1e-10


class TestL1M3N:
    def test_tiny_radius_is_feasible(self):
        rng = np.random.default_rng(55)
        spec = FeatureSpec(d=2, m=2)
        data = make_signal_instances(rng, n=3, length=4, d=2)
        w = train_laplace_grid(data, spec, [_cfg(iterations=5, radius=1e-9)])[0][0]
        assert np.abs(w).sum() <= 1e-9 + 1e-12

    def test_sparse_toy_prefers_relevant_features(self):
        rng = np.random.default_rng(56)
        spec = FeatureSpec(d=3, m=2)
        data = make_signal_instances(rng, n=8, length=5, d=3)
        for i, inst in enumerate(data):
            x = inst.features.copy()
            x[:, 1:] = rng.standard_normal((len(inst), 2))
            data[i] = SequenceInstance(x, inst.labels)
        w = train_laplace_grid(data, spec, [_cfg(iterations=60, radius=1.0)])[0][0]
        state = np.abs(spec.state_view(w))
        assert state[1:].sum() < state[0].sum()


def _l1m3n_lp(data, spec, C, radius=None):
    """Solve min C * sum(xi) s.t. xi_i >= loss(y) - w'(f(gold) - f(y)) for
    every rival labeling y, xi >= 0 and, given a radius, ||w||_1 <= radius,
    exactly with HiGHS over every labeling; w = u - v with u, v >= 0.

    Returns w, the optimum, the duals alpha_i(y) of the margin rows (one
    dict per instance) and the multiplier nu of the ball row."""
    K, n = spec.K, len(data)
    rows, rhs, keys = [], [], []
    for i, inst in enumerate(data):
        gold = manual_feature_vector(spec.d, spec.m, inst.features, inst.labels)
        for y in map(tuple, enumerate_labelings(spec.m, len(inst)).tolist()):
            if y == tuple(inst.labels):
                continue
            delta = gold - manual_feature_vector(spec.d, spec.m, inst.features, y)
            xi = np.zeros(n)
            xi[i] = -1.0
            rows.append(np.concatenate([-delta, delta, xi]))
            rhs.append(-float(sum(a != b for a, b in zip(y, inst.labels))))
            keys.append((i, y))
    if radius is not None:
        rows.append(np.concatenate([np.ones(2 * K), np.zeros(n)]))
        rhs.append(radius)
    cost = np.concatenate([np.zeros(2 * K), np.full(n, C)])
    res = linprog(cost, A_ub=np.array(rows), b_ub=np.array(rhs), method="highs")
    assert res.status == 0, res.message
    alphas = [{} for _ in data]
    for (i, y), marginal in zip(keys, res.ineqlin.marginals):
        alphas[i][y] = -float(marginal)
    nu = -float(res.ineqlin.marginals[-1]) if radius is not None else 0.0
    return res.x[:K] - res.x[K : 2 * K], float(res.fun), alphas, nu


def test_l1m3n_lp_certificate_is_radius_dual_and_sparse():
    """The exact l1m3n optimum at a binding radius: its duals close the gap
    of the radius problem's dual sum(alpha * loss) - radius * ||eta||_inf,
    the ball multiplier nu = ||eta||_inf exceeds 1/2 (so the 1/2-box of the
    penalty form ||w||_1 / 2 + C * sum(xi) does not hold), the package's
    objective agrees with the LP, and both w and alpha are sparse: at most
    3 of the 8 weights and 7 of the 42 rival duals are nonzero (HiGHS finds
    1 to 3 and 6 or 7 on these five problems)."""
    spec, C = FeatureSpec(d=2, m=2), 1.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        data = [
            SequenceInstance(rng.standard_normal((3, 2)), rng.integers(0, 2, 3).tolist())
            for _ in range(6)
        ]
        free = _l1m3n_lp(data, spec, C)[0]
        radius = 0.25 * float(np.abs(free).sum())
        w, primal, alphas, nu = _l1m3n_lp(data, spec, C, radius)
        eta = DualWeights(spec, alphas).eta(data)
        loss = sum(
            a * sum(p != q for p, q in zip(y, inst.labels))
            for inst, amap in zip(data, alphas)
            for y, a in amap.items()
        )
        dual = loss - radius * float(np.abs(eta).max())
        assert abs(dual - primal) <= 1e-9 * abs(primal)
        assert nu == pytest.approx(float(np.abs(eta).max()), rel=1e-9)
        assert nu > 0.5
        assert structured_hinge_objective(data, spec, w, C) == pytest.approx(primal, rel=1e-9)
        duals = [a for amap in alphas for a in amap.values()]
        assert len(duals) == 42
        assert np.count_nonzero(np.abs(w) > 1e-12) <= 3
        assert sum(a > 1e-12 for a in duals) <= 7
