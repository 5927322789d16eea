"""Synthetic data: model sampling, feature generation, Gibbs labeling."""

import hashlib
import itertools
from collections import Counter

import numpy as np
import pytest

from medn import (
    ChainModel,
    FeatureSpec,
    GeneratorConfig,
    TrueCrf,
    gen_crf,
    gen_dataset,
    gen_features,
    gibbs_label,
    gibbs_samples,
)
from medn.cli import main
from medn.synth import _STREAM_FEATURES, _STREAM_GIBBS
from oracles import scalar_gibbs_states


def _cfg(**kw):
    base = dict(d=4, d_rel=2, L=5, m=2, n_samples=3, gibbs_iters=50, seed=0)
    base.update(kw)
    return GeneratorConfig(**base)


class TestGeneratorConfig:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            _cfg(d_rel=5)  # more relevant than total
        with pytest.raises(ValueError):
            _cfg(gibbs_iters=0)
        with pytest.raises(ValueError):
            _cfg(correlated=True, group_size=3)  # does not divide d_rel=2
        with pytest.raises(ValueError):
            _cfg(correlated=True, noise_sd=0.0)


class TestGenCrf:
    def test_no_relevant_features_means_zero_state_weights(self):
        crf = gen_crf(_cfg(d_rel=0))
        spec = crf.model.spec
        np.testing.assert_array_equal(spec.state_view(crf.model.weights), np.zeros((4, 2)))

    def test_sparsity_pattern_counts(self):
        cfg = _cfg(d=100, d_rel=10, m=2)
        crf = gen_crf(cfg)
        spec = crf.model.spec
        state = spec.state_view(crf.model.weights)
        trans = spec.transition_view(crf.model.weights)
        assert np.count_nonzero(state) == 20
        assert np.count_nonzero(state[10:]) == 0
        assert np.count_nonzero(trans) == 4
        np.testing.assert_array_equal(crf.relevant, np.arange(10))

    def test_deterministic_per_seed(self):
        a = gen_crf(_cfg(seed=5))
        b = gen_crf(_cfg(seed=5))
        c = gen_crf(_cfg(seed=6))
        np.testing.assert_array_equal(a.model.weights, b.model.weights)
        assert not np.array_equal(a.model.weights, c.model.weights)


class TestGenFeatures:
    def test_iid_moments(self):
        cfg = _cfg(d=100, L=1000, correlated=False)
        x = gen_features(cfg, rng=np.random.default_rng(1))
        assert x.shape == (1000, 100)
        assert abs(x.mean()) <= 0.02
        assert abs(x.var() - 1.0) <= 0.05

    def test_correlated_groups_share_signal(self):
        cfg = _cfg(d=8, d_rel=4, L=10_000, correlated=True, group_size=2, noise_sd=0.05)
        x = gen_features(cfg, rng=np.random.default_rng(2))
        # within-group correlation is essentially 1/(1 + noise_sd**2) ~ 0.998
        r01 = np.corrcoef(x[:, 0], x[:, 1])[0, 1]
        r23 = np.corrcoef(x[:, 2], x[:, 3])[0, 1]
        assert r01 >= 0.99 and r23 >= 0.99
        # across groups and among irrelevant columns nothing correlates
        for i, j in [(0, 2), (1, 3), (4, 5), (5, 6), (0, 5)]:
            assert abs(np.corrcoef(x[:, i], x[:, j])[0, 1]) <= 0.05

    def test_default_stream_is_deterministic(self):
        cfg = _cfg(seed=9)
        np.testing.assert_array_equal(gen_features(cfg), gen_features(cfg))


def _uniform_crf(d=2, m=2):
    spec = FeatureSpec(d, m)
    return TrueCrf(model=ChainModel(spec, np.zeros(spec.K)), relevant=np.arange(0))


class TestGibbs:
    def test_zero_weights_sample_uniformly(self):
        """Symmetric potentials: label 0 frequency is 1/2 at every position."""
        crf = _uniform_crf()
        x = np.zeros((3, 2))
        draws = np.stack(
            [gibbs_label(crf, x, sweeps=1, seed=seed) for seed in range(10_000)]
        )
        freqs = (draws == 0).mean(axis=0)
        assert np.all(np.abs(freqs - 0.5) <= 0.02)

    def test_chain_matches_enumerated_conditional(self):
        """Empirical distribution over all 8 labelings of a 3-site chain stays
        within total variation 0.05 of the exact conditional (20k sweeps)."""
        cfg = _cfg(d=2, d_rel=2, L=3, m=2, seed=3)
        crf = gen_crf(cfg)
        x = gen_features(cfg, rng=np.random.default_rng(3))
        samples = gibbs_samples(crf, x, n_samples=20_000, burn_in=100, seed=4)
        spec = crf.model.spec
        node = x @ spec.state_view(crf.model.weights)
        trans = spec.transition_view(crf.model.weights)
        scores = {}
        for y in itertools.product(range(2), repeat=3):
            scores[y] = (
                node[0][y[0]] + node[1][y[1]] + node[2][y[2]] + trans[y[0]][y[1]] + trans[y[1]][y[2]]
            )
        top = max(scores.values())
        z = sum(np.exp(v - top) for v in scores.values())
        exact = {y: float(np.exp(v - top) / z) for y, v in scores.items()}
        counts = Counter(map(tuple, samples.tolist()))
        tv = 0.5 * sum(abs(counts.get(y, 0) / len(samples) - p) for y, p in exact.items())
        assert tv <= 0.05

    def test_attractive_transitions_freeze_the_chain(self):
        """A +10 bonus on equal neighbors makes constant sequences dominate."""
        spec = FeatureSpec(2, 2)
        w = np.zeros(spec.K)
        spec.transition_view(w)[:] = np.array([[10.0, 0.0], [0.0, 10.0]])
        crf = TrueCrf(model=ChainModel(spec, w), relevant=np.arange(0))
        x = np.zeros((3, 2))
        constant = 0
        for seed in range(200):
            y = gibbs_label(crf, x, sweeps=50, seed=seed)
            constant += int(np.all(y == y[0]))
        assert constant / 200 >= 0.95

    def test_deterministic_per_seed(self):
        cfg = _cfg(seed=11)
        crf = gen_crf(cfg)
        x = gen_features(cfg, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(
            gibbs_label(crf, x, sweeps=20, seed=42), gibbs_label(crf, x, sweeps=20, seed=42)
        )

    @pytest.mark.parametrize("m, length", [(2, 1), (3, 5), (4, 4)])
    def test_chain_matches_scalar_reference(self, m, length):
        """Every recorded state equals the one-site-at-a-time python loop's."""
        cfg = _cfg(d=3, d_rel=3, L=length, m=m, seed=21)
        crf = gen_crf(cfg)
        spec = crf.model.spec
        x = gen_features(cfg, rng=np.random.default_rng(5))
        got = gibbs_samples(crf, x, n_samples=150, burn_in=0, seed=6)
        want = scalar_gibbs_states(
            x @ spec.state_view(crf.model.weights),
            spec.transition_view(crf.model.weights),
            np.random.default_rng(6),
            sweeps=150,
        )
        np.testing.assert_array_equal(got, want)

    def test_sweeps_must_be_positive(self):
        crf = _uniform_crf()
        with pytest.raises(ValueError):
            gibbs_label(crf, np.zeros((2, 2)), sweeps=0, seed=0)


class TestGenDataset:
    def test_empty_dataset(self):
        assert gen_dataset(_cfg(n_samples=0)).instances == []

    def test_desk_scale_shapes_and_marginals(self):
        cfg = GeneratorConfig(d=20, d_rel=5, L=8, m=2, n_samples=250, gibbs_iters=100, seed=1)
        dataset = gen_dataset(cfg)
        assert len(dataset.instances) == 250
        for inst in dataset.instances:
            assert inst.features.shape == (8, 20)
            assert inst.labels.shape == (8,)
        labels = np.concatenate([inst.labels for inst in dataset.instances])
        for label in range(2):
            assert np.mean(labels == label) >= 0.05

    def test_regeneration_is_identical(self):
        cfg = _cfg(n_samples=5, seed=13)
        first = gen_dataset(cfg)
        second = gen_dataset(cfg)
        np.testing.assert_array_equal(first.crf.model.weights, second.crf.model.weights)
        for a, b in zip(first.instances, second.instances):
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.labels, b.labels)

    def test_batched_chains_equal_one_chain_at_a_time(self):
        """gen_dataset advances all chains together; each labeling must equal
        a lone chain run from that instance's own seed stream."""
        cfg = _cfg(d=4, d_rel=3, L=5, m=3, n_samples=12, gibbs_iters=40, seed=17)
        dataset = gen_dataset(cfg)
        for i, inst in enumerate(dataset.instances):
            x = gen_features(cfg, rng=np.random.default_rng([_STREAM_FEATURES, cfg.seed, i]))
            np.testing.assert_array_equal(inst.features, x)
            alone = gibbs_label(
                dataset.crf,
                x,
                cfg.gibbs_iters,
                seed=np.random.default_rng([_STREAM_GIBBS, cfg.seed, i]),
            )
            np.testing.assert_array_equal(inst.labels, alone)

    def test_instances_differ_from_each_other(self):
        dataset = gen_dataset(_cfg(n_samples=3, seed=14))
        assert not np.array_equal(
            dataset.instances[0].features, dataset.instances[1].features
        )


# sha256 of gen-synth files as written by the one-site-at-a-time sampler
# that preceded the lockstep kernel.  A change of these bytes is a change of
# the generator and must be named as such.
PINNED_GEN_SYNTH = [
    (
        ["--d", "6", "--d-rel", "2", "--n", "16", "--gibbs-iters", "60", "--seed", "33"],
        "027bbb77a7e9ca2739dcdbc709b7ddd023d696b640a27d9772bb22bfa9bd92c7",
    ),
    (
        ["--m", "4", "--length", "12", "--n", "80", "--gibbs-iters", "50", "--seed", "5"],
        "56b1a2a425d70d0b2f1ca9744e0b3eda111134d98e417f6f86e13575998f1cc9",
    ),
]


@pytest.mark.parametrize("flags, digest", PINNED_GEN_SYNTH)
def test_gen_synth_bytes_are_pinned(tmp_path, flags, digest):
    out = tmp_path / "synth.jsonl"
    assert main(["gen-synth", *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
