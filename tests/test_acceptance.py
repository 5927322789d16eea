"""Acceptance suite: one test per exit criterion, each at its stated
tolerance and runtime budget, printing a PASS or FAIL line (run with -s to
see them interleaved; pytest's captured output shows them either way)."""

import itertools
import math
import time
from contextlib import contextmanager

import mpmath
import numpy as np

from medn import (
    BoundInputs,
    FeatureSpec,
    GeneratorConfig,
    LaplaceConfig,
    SequenceInstance,
    SubgradConfig,
    decode_instances,
    evaluate_weight_rows,
    gen_crf,
    gen_dataset,
    gen_features,
    gibbs_chains,
    kl_norm,
    l1_ball_project,
    margin_sample_count,
    pac_bound,
    shrinkage_mean,
    train_laplace_grid,
)
from medn.chain import feature_vectors, loss_augmented_decode_rows
from medn.cli import main
from oracles import (
    DualWeights,
    chain_scores,
    enumerate_labelings,
    l1_projection_oracle,
    laplace_log_z,
    laplace_log_z_grad,
    laplace_tilted_mean,
)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL: {title}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS: {title}")


def test_01_exact_decoding_matches_enumeration():
    with criterion(1, "decode and loss-augmented decode match exhaustive enumeration"):
        started = time.perf_counter()
        rng = np.random.default_rng(1001)
        mismatches = 0
        for _ in range(1000):
            length = int(rng.integers(1, 7))
            m = int(rng.integers(2, 4))
            d = int(rng.integers(1, 4))
            spec = FeatureSpec(d=d, m=m)
            w = rng.standard_normal(spec.K)
            x = rng.standard_normal((length, d))
            gold = rng.integers(0, m, size=length)
            labelings = enumerate_labelings(m, length)
            scores = chain_scores(d, m, w, x, labelings)
            (decoded,) = decode_instances(spec, w[None], [SequenceInstance(x, gold)])
            if not np.array_equal(decoded[0], labelings[int(np.argmax(scores))]):
                mismatches += 1
            augmented = scores + (labelings != gold).sum(axis=1)
            labels, values = loss_augmented_decode_rows(spec, w[None], x, gold)
            if not np.array_equal(labels[0], labelings[int(np.argmax(augmented))]):
                mismatches += 1
            if abs(values[0] - float(augmented.max())) > 1e-9:
                mismatches += 1
        elapsed = time.perf_counter() - started
        assert mismatches == 0
        assert elapsed < 10.0


def test_02_shrinkage_formula_matches_quadrature():
    with criterion(2, "closed-form shrinkage matches the integration oracle to 1e-6"):
        started = time.perf_counter()
        for lam in (4.0, 6.0):
            half_width = 0.9 * math.sqrt(lam)
            for eta in np.linspace(-half_width, half_width, 50):
                closed = shrinkage_mean(float(eta), lam)
                assert abs(closed - laplace_tilted_mean(float(eta), lam)) <= 1e-6
        # the flat-prior curve is the identity map, exactly
        from medn.curves import identity_points

        for point in identity_points(np.linspace(-2.0, 2.0, 11)):
            assert point.y == point.x
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0


def test_03_log_normalizer_gradient_matches_finite_differences():
    with criterion(3, "log-normalizer gradient agrees with finite differences to 1e-4"):
        started = time.perf_counter()
        rng = np.random.default_rng(1003)
        spec = FeatureSpec(d=2, m=2)
        inst = SequenceInstance(rng.standard_normal((2, 2)), [0, 0])
        data = [inst]
        rivals = [y for y in itertools.product(range(2), repeat=2) if y != (0, 0)]
        lam = 4.0
        step = 1e-5
        checked = 0
        for _ in range(20):
            raw = {y: float(rng.uniform(0.0, 1.0)) for y in rivals}
            total = sum(raw.values())
            if total > 1.0:
                raw = {y: a / total for y, a in raw.items()}
            dual = DualWeights(spec=spec, alphas=[raw])
            peak = float(np.abs(dual.eta(data)).max())
            if peak >= 0.7 * math.sqrt(lam):
                factor = 0.7 * math.sqrt(lam) / peak
                dual = DualWeights(spec=spec, alphas=[{y: a * factor for y, a in raw.items()}])
            grads = laplace_log_z_grad(dual, data, lam)[0]
            for y in rivals:
                up, dn = dict(dual.alphas[0]), dict(dual.alphas[0])
                up[y] += step
                dn[y] -= step
                if dn[y] < 0:
                    continue
                plus = laplace_log_z(DualWeights(spec, [up]), data, lam)
                minus = laplace_log_z(DualWeights(spec, [dn]), data, lam)
                fd = (plus - minus) / (2.0 * step)
                assert abs(fd - grads[y]) <= 1e-4 * max(1.0, abs(grads[y]))
                checked += 1
        assert checked >= 20
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0


def test_04_averaged_and_point_predictions_coincide():
    with criterion(4, "averaged prediction equals point decoding on all 250 sequences"):
        started = time.perf_counter()
        cfg = GeneratorConfig(d=20, d_rel=5, L=8, m=2, n_samples=250, gibbs_iters=200, seed=1004)
        dataset = gen_dataset(cfg)
        spec = dataset.crf.spec
        cfg = SubgradConfig(beta=1.0, iterations=30, C=1.0, seed=0)
        mean = train_laplace_grid(dataset.instances[:50], spec, [cfg])[0]
        decoded = decode_instances(spec, mean, dataset.instances)
        # The score is linear in the weights, so its posterior expectation
        # is exactly the score under the mean: feats @ mean.
        labelings = enumerate_labelings(2, 8)
        agreements = 0
        for inst, pred in zip(dataset.instances, decoded):
            expected_scores = feature_vectors(spec, inst.features, labelings) @ mean[0]
            best = labelings[int(np.argmax(expected_scores))]
            agreements += int(np.array_equal(best, pred[0]))
        elapsed = time.perf_counter() - started
        assert agreements == 250
        assert elapsed < 30.0


def test_05_weight_penalty_approaches_l1_and_scaled_form_is_a_divergence():
    with criterion(5, "penalty tends to the L1 norm at lam=1e6; scaled form nonnegative"):
        rng = np.random.default_rng(1005)
        for _ in range(100):
            magnitudes = rng.uniform(0.7, 1.0, size=8)
            mu = magnitudes * rng.choice([-1.0, 1.0], size=8)
            l1 = float(np.abs(mu).sum())
            assert abs(kl_norm(mu, 1e6) - l1) / l1 <= 0.01
        for _ in range(200):
            k = int(rng.integers(1, 10))
            mu = rng.standard_normal(k) * rng.uniform(0.05, 3.0)
            lam = float(rng.uniform(0.3, 200.0))
            assert math.sqrt(lam) * kl_norm(mu, lam) - k >= 0.0
        assert abs(math.sqrt(4.0) * kl_norm(np.zeros(5), 4.0) - 5.0) <= 1e-10


def test_06_desk_scale_trend_quadratic_vs_laplace_prior():
    with criterion(
        6, "Laplace-prior training matches max-margin error and shrinks noise weights"
    ):
        started = time.perf_counter()
        m3n_errs, lap_errs = [], []
        m3n_weights, lap_weights = [], []
        spec = FeatureSpec(20, 2)
        for seed in range(5):
            cfg = GeneratorConfig(
                d=20, d_rel=5, L=8, m=2, n_samples=250, gibbs_iters=500, seed=100 + seed
            )
            dataset = gen_dataset(cfg)
            train_set = dataset.instances[:50]
            test_set = dataset.instances[50:]
            inner = SubgradConfig(beta=1.0, iterations=30, C=1.0, seed=seed)
            gauss = train_laplace_grid(train_set, spec, [inner])[0][0]
            lap = train_laplace_grid(
                train_set, spec, [LaplaceConfig(lam=36.0, inner=inner, outer_iters=4)]
            )[0][0]
            m3n_report, lap_report = evaluate_weight_rows(spec, np.stack([gauss, lap]), test_set)
            m3n_errs.append(m3n_report.per_label_err)
            lap_errs.append(lap_report.per_label_err)
            m3n_weights.append(gauss)
            lap_weights.append(lap)
        pooled_std = float(np.std(np.concatenate([m3n_errs, lap_errs])))

        def irrelevant_to_relevant_ratio(weight_list):
            relevant = np.concatenate(
                [np.abs(spec.state_view(w)[:5]).ravel() for w in weight_list]
            )
            irrelevant = np.concatenate(
                [np.abs(spec.state_view(w)[5:]).ravel() for w in weight_list]
            )
            return irrelevant.mean() / relevant.mean()

        elapsed = time.perf_counter() - started
        # (a) the Laplace-prior model is no worse than one pooled deviation
        assert np.mean(lap_errs) <= np.mean(m3n_errs) + pooled_std
        # (b) both families beat the 0.5 chance rate with margin
        assert np.mean(m3n_errs) <= 0.40 and np.mean(lap_errs) <= 0.40
        # (c) relative weight mass on irrelevant features is strictly smaller
        assert irrelevant_to_relevant_ratio(lap_weights) < irrelevant_to_relevant_ratio(
            m3n_weights
        )
        assert elapsed < 300.0


def test_07_l1_projection_against_kkt_oracle():
    with criterion(7, "L1 projection matches the KKT oracle to 1e-8, feasible, idempotent"):
        rng = np.random.default_rng(1007)
        for _ in range(100):
            v = rng.standard_normal(5) * rng.uniform(0.2, 5.0)
            radius = float(rng.uniform(0.1, 2.0))
            projected = l1_ball_project(v, radius)
            np.testing.assert_allclose(projected, l1_projection_oracle(v, radius), atol=1e-8)
            assert np.abs(projected).sum() <= radius + 1e-12
            np.testing.assert_array_equal(l1_ball_project(projected, radius), projected)


def test_08_gibbs_sampler_matches_enumerated_distribution():
    with criterion(8, "Gibbs chain within total variation 0.02 of the exact conditional"):
        started = time.perf_counter()
        cfg = GeneratorConfig(d=2, d_rel=2, L=3, m=2, n_samples=1, gibbs_iters=1, seed=1008)
        crf = gen_crf(cfg)
        x = gen_features(cfg, rng=np.random.default_rng(18))
        _, samples = gibbs_chains(crf, [x], [19], burn_in=100, n_record=100_000)
        samples = samples[:, 0]
        spec = crf.spec
        node = x @ spec.state_view(crf.weights)
        trans = spec.transition_view(crf.weights)
        exact = {}
        for y in itertools.product(range(2), repeat=3):
            exact[y] = (
                node[0][y[0]]
                + node[1][y[1]]
                + node[2][y[2]]
                + trans[y[0]][y[1]]
                + trans[y[1]][y[2]]
            )
        top = max(exact.values())
        z = sum(math.exp(v - top) for v in exact.values())
        exact = {y: math.exp(v - top) / z for y, v in exact.items()}
        from collections import Counter

        counts = Counter(map(tuple, samples.tolist()))
        tv = 0.5 * sum(abs(counts.get(y, 0) / len(samples) - p) for y, p in exact.items())
        elapsed = time.perf_counter() - started
        assert tv <= 0.02
        assert elapsed < 30.0


def test_09_bound_calculator_matches_high_precision_oracle():
    with criterion(9, "bound calculator reproduces the 50-digit evaluation to 1e-9"):
        inputs = BoundInputs(
            n=100, y_card=256, c=1.0, gamma=1.0, kl=1.0, delta=0.1, empirical_margin_rate=0.0
        )
        assert margin_sample_count(inputs) == 241
        mpmath.mp.dps = 50
        m = int(mpmath.ceil(16 * mpmath.log(100 * mpmath.mpf(256) ** 2 / 2)))
        tail = 256 * mpmath.e ** (-mpmath.mpf(m) / 32)
        slack = mpmath.sqrt(
            (m + mpmath.log(100) + 3 * mpmath.log((m + 1) / mpmath.mpf("0.1")) + 2) / 199
        )
        oracle = float(tail + slack)
        assert abs(pac_bound(inputs) - oracle) <= 1e-9
        assert abs(pac_bound(inputs) - 1.30) <= 0.01
        # monotonicity spot checks
        base = dict(n=200, y_card=64, c=1.0, gamma=0.5, delta=0.05, empirical_margin_rate=0.0)
        kl_values = [pac_bound(BoundInputs(kl=kl, **base)) for kl in (0.0, 1.0, 10.0)]
        assert kl_values[0] <= kl_values[1] <= kl_values[2]
        delta_values = [
            pac_bound(BoundInputs(kl=1.0, **{**base, "delta": d})) for d in (0.5, 0.05, 0.005)
        ]
        assert delta_values[0] <= delta_values[1] <= delta_values[2]


def test_10_artifact_determinism_across_reruns(tmp_path):
    with criterion(10, "generation and training commands are byte-deterministic"):
        data_a = tmp_path / "data_a.jsonl"
        data_b = tmp_path / "data_b.jsonl"
        gen_flags = ["gen-synth", "--d", "6", "--d-rel", "2", "--n", "16",
                     "--gibbs-iters", "60", "--seed", "33"]
        assert main(gen_flags + ["--out", str(data_a)]) == 0
        assert main(gen_flags + ["--out", str(data_b)]) == 0
        assert data_a.read_bytes() == data_b.read_bytes()
        for model, extra in (
            ("m3n", ["--c", "1"]),
            ("lapmedn", ["--lambda", "16"]),
            ("l1m3n", ["--radius", "2"]),
        ):
            out_a = tmp_path / f"{model}_a.json"
            out_b = tmp_path / f"{model}_b.json"
            flags = ["train", "--model", model, "--data", str(data_a),
                     "--iters", "20", "--seed", "2"] + extra
            assert main(flags + ["--out", str(out_a)]) == 0
            assert main(flags + ["--out", str(out_b)]) == 0
            assert out_a.read_bytes() == out_b.read_bytes()
