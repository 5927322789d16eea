"""Synthetic data: model sampling, feature generation, Gibbs labeling."""

import hashlib
import itertools
import re
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medn import (
    FeatureSpec,
    GeneratorConfig,
    TrueCrf,
    gen_crf,
    gen_dataset,
    gen_features,
    gibbs_chains,
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
        # A float, a bool, a negative or a non-number count is one ValueError
        # that names its field, not numpy's TypeError later or a bool read as 1.
        for name in ("d", "d_rel", "L", "m", "n_samples", "gibbs_iters", "group_size", "seed"):
            for value in (1.5, 2.0, True, -1, None, "3"):
                kind = "an integer >= 0" if name == "seed" else "an integer in \\["
                with pytest.raises(ValueError, match=f"^{name} must be {kind}"):
                    _cfg(**{name: value})
        # A truthy string used to switch correlated mode on, and a noise_sd
        # of None or a string ended in math.isfinite's TypeError.
        for value in ("no", 1, None, np.bool_(True)):
            with pytest.raises(ValueError, match="^correlated must be a bool, got "):
                _cfg(correlated=value)
        for value in (None, "0.1", True, np.bool_(False), [0.1]):
            with pytest.raises(ValueError, match="^noise_sd must be finite, got "):
                _cfg(noise_sd=value)
        assert _cfg(noise_sd=np.float32(0.5), correlated=False).noise_sd == 0.5
        assert len(gen_dataset(_cfg(n_samples=np.int64(2), seed=np.uint32(7))).instances) == 2


    def test_counts_stay_below_every_array(self):
        """A count of 2**59 or more is rejected where it is checked, before
        numpy sizes an array from it; a seed sizes none and may be larger."""
        for name in ("d", "d_rel", "L", "m", "n_samples", "gibbs_iters", "group_size"):
            message = f"^{name} must be an integer in \\[[012], 2\\*\\*59\\), got {2**59}$"
            with pytest.raises(ValueError, match=message):
                _cfg(**{name: 2**59})
        assert _cfg(seed=2**64).seed == 2**64

    @pytest.mark.parametrize(
        "counts, name, expr",
        [
            (dict(L=2**58, d=2), "L", "L * d"),
            (dict(L=1, d=2**58, m=2), "d", "d * m + m * m"),
            (dict(d=1, m=2**30), "m", "d * m + m * m"),
            (dict(d=1, L=2**20, m=2**20, n_samples=2**20), "L", "L * m * n_samples"),
            (dict(d=1, L=2**20, n_samples=2**34, gibbs_iters=2**58), "n_samples",
             "min(64, gibbs_iters) * L * n_samples"),
            (dict(d=2**20, L=2**20, n_samples=2**20), "n_samples", "n_samples * L * d"),
        ],
    )
    def test_products_of_counts_stay_below_every_array(self, counts, name, expr):
        """Counts that pass alone but whose product sizes an array past 2**59
        entries are rejected before any array is sized, naming the largest
        factor: ``gibbs_iters`` counts as at most one block of 64 sweeps."""
        message = f"^{name} must keep {re.escape(expr)} below 2\\*\\*59, got \\d+$"
        with pytest.raises(ValueError, match=message):
            _cfg(d_rel=0, **counts)

    def test_numpy_counts_do_not_wrap_in_a_product(self):
        """Counts are stored as Python ints before their products are taken:
        in int64, L * d = 2**64 wrapped to 0 and passed, and gen_dataset
        then asked for 64 GiB of features."""
        with pytest.raises(ValueError, match=rf"^L must keep L \* d below 2\*\*59, got {2**64}$"):
            GeneratorConfig(d=np.int64(2**32), L=np.int64(2**32), d_rel=0, m=2, n_samples=1,
                            gibbs_iters=1)


class TestGenCrf:
    def test_no_relevant_features_means_zero_state_weights(self):
        crf = gen_crf(_cfg(d_rel=0))
        spec = crf.spec
        np.testing.assert_array_equal(spec.state_view(crf.weights), np.zeros((4, 2)))

    def test_sparsity_pattern_counts(self):
        cfg = _cfg(d=100, d_rel=10, m=2)
        crf = gen_crf(cfg)
        spec = crf.spec
        state = spec.state_view(crf.weights)
        trans = spec.transition_view(crf.weights)
        assert np.count_nonzero(state) == 20
        assert np.count_nonzero(state[10:]) == 0
        assert np.count_nonzero(trans) == 4
        np.testing.assert_array_equal(crf.relevant, np.arange(10))

    def test_deterministic_per_seed(self):
        a = gen_crf(_cfg(seed=5))
        b = gen_crf(_cfg(seed=5))
        c = gen_crf(_cfg(seed=6))
        np.testing.assert_array_equal(a.weights, b.weights)
        assert not np.array_equal(a.weights, c.weights)

    def test_weights_are_checked(self):
        spec = FeatureSpec(2, 2)
        for bad in (np.zeros(spec.K - 1), np.zeros((1, spec.K))):
            with pytest.raises(ValueError, match=rf"^weights must have shape \({spec.K},\), got "):
                TrueCrf(spec, bad, relevant=np.arange(0))
        for value in (np.nan, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                TrueCrf(spec, np.full(spec.K, value), relevant=np.arange(0))


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


def _uniform_crf(d=2, m=2):
    spec = FeatureSpec(d, m)
    return TrueCrf(spec, np.zeros(spec.K), relevant=np.arange(0))


class TestGibbs:
    def test_zero_weights_sample_uniformly(self):
        """Symmetric potentials: label 0 frequency is 1/2 at every position."""
        crf = _uniform_crf()
        draws, _ = gibbs_chains(crf, [np.zeros((3, 2))] * 10_000, range(10_000), 1, 0)
        freqs = (draws == 0).mean(axis=0)
        assert np.all(np.abs(freqs - 0.5) <= 0.02)

    def test_chain_matches_enumerated_conditional(self):
        """Empirical distribution over all 8 labelings of a 3-site chain stays
        within total variation 0.05 of the exact conditional (20k sweeps)."""
        cfg = _cfg(d=2, d_rel=2, L=3, m=2, seed=3)
        crf = gen_crf(cfg)
        x = gen_features(cfg, rng=np.random.default_rng(3))
        _, samples = gibbs_chains(crf, [x], [4], burn_in=100, n_record=20_000)
        samples = samples[:, 0]
        spec = crf.spec
        node = x @ spec.state_view(crf.weights)
        trans = spec.transition_view(crf.weights)
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
        crf = TrueCrf(spec, w, relevant=np.arange(0))
        labels, _ = gibbs_chains(crf, [np.zeros((3, 2))] * 200, range(200), 50, 0)
        constant = np.count_nonzero(np.all(labels == labels[:, :1], axis=1))
        assert constant / 200 >= 0.95

    def test_deterministic_per_seed(self):
        cfg = _cfg(seed=11)
        crf = gen_crf(cfg)
        x = gen_features(cfg, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(
            gibbs_chains(crf, [x], [42], 20, 0)[0], gibbs_chains(crf, [x], [42], 20, 0)[0]
        )

    @pytest.mark.parametrize("m, length", [(2, 1), (3, 5), (4, 4), (9, 3)])
    def test_chain_matches_scalar_reference(self, m, length):
        """Every recorded state equals the one-site-at-a-time python loop's."""
        cfg = _cfg(d=3, d_rel=3, L=length, m=m, seed=21)
        crf = gen_crf(cfg)
        spec = crf.spec
        x = gen_features(cfg, rng=np.random.default_rng(5))
        _, got = gibbs_chains(crf, [x], [6], burn_in=0, n_record=150)
        want = scalar_gibbs_states(
            x @ spec.state_view(crf.weights),
            spec.transition_view(crf.weights),
            np.random.default_rng(6),
            sweeps=150,
        )
        np.testing.assert_array_equal(got[:, 0], want)

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(2, 9),
        length=st.integers(1, 6),
        n=st.integers(1, 4),
        burn_in=st.integers(0, 70),
        n_record=st.integers(1, 8),
        draw_seed=st.integers(0, 2**32 - 1),
    )
    def test_each_of_several_chains_matches_scalar_reference(
        self, m, length, n, burn_in, n_record, draw_seed
    ):
        """Run together, every chain records what the one-site-at-a-time
        python loop records for it alone: distinct inputs and seeds, and
        asymmetric transitions, so a swapped neighbour term or a chain read
        from another's column shows."""
        rng = np.random.default_rng(draw_seed)
        spec = FeatureSpec(3, m)
        weights = 2.0 * rng.standard_normal(spec.K)
        spec.transition_view(weights)[:] += np.triu(np.full((m, m), 1.5), 1)
        crf = TrueCrf(spec, weights, relevant=np.arange(3))
        xs = rng.standard_normal((n, length, 3))
        seeds = [int(s) for s in rng.choice(2**31, size=n, replace=False)]
        _, got = gibbs_chains(crf, xs, seeds, burn_in, n_record)
        assert got.shape == (n_record, n, length)
        for i, seed in enumerate(seeds):
            want = scalar_gibbs_states(
                xs[i] @ spec.state_view(crf.weights),
                spec.transition_view(crf.weights),
                np.random.default_rng(seed),
                sweeps=burn_in + n_record,
            )
            np.testing.assert_array_equal(got[:, i], want[burn_in:])

    @pytest.mark.parametrize("m", [2, 3, 9])
    def test_largest_uniform_draws_the_last_label(self, m):
        """A uniform of 1 - 2**-53 at every site, the largest ``random``
        returns, draws the last label everywhere, as the scalar loop does.
        That uniform times a total of at least 1 stays below the total, so
        the pick counts no more than the m - 1 rows below the top one."""
        top = np.nextafter(1.0, 0.0)

        class LargestUniform(np.random.Generator):
            def random(self, size=None, dtype=np.float64, out=None):
                return np.full(() if size is None else size, top)[()]

        totals = np.linspace(1.0, m, 10_001)
        assert (top * totals < totals).all()
        rng = np.random.default_rng(m)
        spec = FeatureSpec(3, m)
        crf = TrueCrf(spec, rng.standard_normal(spec.K), relevant=np.arange(3))
        x = rng.standard_normal((5, 3))
        _, got = gibbs_chains(crf, [x], [LargestUniform(np.random.PCG64(7))], 0, 4)
        want = scalar_gibbs_states(
            x @ spec.state_view(crf.weights),
            spec.transition_view(crf.weights),
            LargestUniform(np.random.PCG64(7)),
            sweeps=4,
        )
        np.testing.assert_array_equal(got[:, 0], want)
        assert (want == m - 1).all()

    def test_sweeps_must_be_positive(self):
        crf = _uniform_crf()
        with pytest.raises(ValueError, match="at least one sweep"):
            gibbs_chains(crf, [np.zeros((2, 2))], [0], 0, 0)

    def test_shapes_and_stacked_inputs(self):
        """(n, L) final labels and (n_record, n, L) recorded states; an
        (n, L, d) array draws what the list of its matrices draws."""
        crf = gen_crf(_cfg(d=2, d_rel=2, L=4, m=3, seed=8))
        xs = np.random.default_rng(9).standard_normal((5, 4, 2))
        labels, states = gibbs_chains(crf, xs, range(5), 3, 7)
        assert labels.shape == (5, 4) and states.shape == (7, 5, 4)
        np.testing.assert_array_equal(labels, states[-1])
        again = gibbs_chains(crf, list(xs), [np.random.default_rng(s) for s in range(5)], 3, 7)
        np.testing.assert_array_equal(again[0], labels)
        np.testing.assert_array_equal(again[1], states)


_X = np.zeros((3, 2))


class TestGibbsChainsChecks:
    """Each input gibbs_chains rejects gives one ValueError and no numpy
    warning, not labels drawn from uninitialised memory (a negative burn_in),
    from NaN scores, or from a 1-D input read as m positions."""

    @pytest.mark.parametrize(
        "xs, seeds, burn_in, n_record, match",
        [
            ([], [], 1, 0, "at least one chain"),
            ([_X, _X], [0], 1, 0, "one seed per input"),
            ([_X], [0, 1], 1, 0, "one seed per input"),
            ([_X], [1.5], 1, 0, "seed"),
            ([_X], [None], 1, 0, "seed"),
            ([_X], [-1], 1, 0, "seed"),
            ([_X], [True], 1, 0, "seed"),
            ([np.zeros(2)], [0], 1, 0, r"^xs must have shape \(any, any, 2\), got \(1, 2\)$"),
            ([np.zeros((2, 2, 2))], [0], 1, 0, r"^xs must have shape \(any, any, 2\), got \(1, 2, 2, 2\)$"),
            ([np.zeros((0, 2))], [0], 1, 0, "nonempty"),
            ([np.full((3, 2), np.nan)], [0], 1, 0, "finite"),
            ([np.full((3, 2), np.inf)], [0], 1, 0, "finite"),
            ([np.zeros((3, 3))], [0], 1, 0, r"^xs must have shape \(any, any, 2\), got \(1, 3, 3\)$"),
            ([_X, np.zeros((4, 2))], [0, 1], 1, 0, "one shared"),
            # Inputs that do not stack name the first shape that differs.
            ([_X, _X, np.zeros((4, 2))], [0, 1, 2], 1, 0,
             r"^xs must have entries of one shared shape, got \(3, 2\) at index 0 and \(4, 2\) at index 2$"),
            ([_X, np.zeros((3, 3))], [0, 1], 1, 0,
             r"^xs must have entries of one shared shape, got \(3, 2\) at index 0 and \(3, 3\) at index 1$"),
            ([_X, [[0.0, 0.0], [0.0]]], [0, 1], 1, 0,
             r"^xs must have entries of one shared shape, got a ragged entry at index 1$"),
            ([[["a", "b"]]], [0], 1, 0, "^xs must be an array of real numbers, got dtype <U1$"),
            ([_X], [0], -4, 5, "burn_in"),
            ([_X], [0], 2.5, 0, "burn_in"),
            ([_X], [0], True, 0, "burn_in"),
            ([_X], [0], 1, -1, "n_record"),
            ([_X], [0], 1, 1.0, "n_record"),
        ],
    )
    def test_bad_input_is_one_value_error(self, xs, seeds, burn_in, n_record, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                gibbs_chains(_uniform_crf(), xs, seeds, burn_in, n_record)

    @pytest.mark.parametrize(
        "d, m, state, trans, x, first",
        [
            # Node scores of 4e308.
            (2, 3, 2.0, 2.0, 1e308, 1),
            (2, 3, 2.0, 2.0, -1e308, 1),
            # Finite node scores 2e308 apart.
            (1, 2, [[1.0, -1.0]], 0.0, 1e308, 1),
            # Finite node scores whose two transition terms pass the range:
            # every chain's middle site.
            (1, 2, 0.0, [[1e308, 0.0], [0.0, 1e308]], 0.0, 0),
        ],
        ids=["node-up", "node-down", "spread", "transitions"],
    )
    def test_scores_past_the_float_range_name_the_first_chain(self, d, m, state, trans, x, first):
        """Finite inputs whose scores pass the float range raise one
        ValueError naming the first such chain, before any chain draws,
        where numpy warned and every site drew label 0."""
        spec = FeatureSpec(d, m)
        weights = np.empty(spec.K)
        spec.state_view(weights)[:] = state
        spec.transition_view(weights)[:] = trans
        crf = TrueCrf(spec, weights, relevant=np.arange(spec.d))
        xs = np.zeros((3, 3, spec.d))
        xs[1:] = x
        rngs = [np.random.default_rng(seed) for seed in range(3)]
        states = [rng.bit_generator.state for rng in rngs]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^chain {first}: its scores pass the float range$"):
                gibbs_chains(crf, xs, rngs, 1, 0)
        assert [rng.bit_generator.state for rng in rngs] == states

    def test_equal_scores_near_the_float_range_still_sample(self):
        """Node scores of 1.6e308 at every label are finite and 0 apart, so
        the chain draws, as the scalar loop does."""
        spec = FeatureSpec(1, 3)
        weights = np.zeros(spec.K)
        spec.state_view(weights)[:] = 1.6
        crf = TrueCrf(spec, weights, relevant=np.arange(1))
        x = np.full((4, 1), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, got = gibbs_chains(crf, [x], [3], 0, 5)
        want = scalar_gibbs_states(x @ spec.state_view(weights), spec.transition_view(weights),
                                   np.random.default_rng(3), sweeps=5)
        np.testing.assert_array_equal(got[:, 0], want)


class TestGenDataset:
    def test_empty_dataset(self):
        assert gen_dataset(_cfg(n_samples=0)).instances == []

    def test_features_past_the_float_range_name_noise_sd(self):
        """Correlated noise that passes the float range is one ValueError
        naming noise_sd and the first such instance, not numpy's overflow
        warning and then the sampler's "features must be finite"."""
        cfg = _cfg(correlated=True, group_size=1, noise_sd=1e308)
        with pytest.raises(ValueError, match=r"^noise_sd 1e\+308 puts the features of instance \d+ "):
            gen_dataset(cfg)

    def test_scores_past_the_float_range_name_noise_sd(self):
        """Noise that leaves the features finite but takes their scores past
        the float range is one ValueError naming noise_sd and the first such
        instance, where the sampler alone would name a chain."""
        cfg = _cfg(d=20, d_rel=5, L=8, n_samples=8, correlated=True, group_size=1, noise_sd=3e307)
        xs = [gen_features(cfg, np.random.default_rng([_STREAM_FEATURES, cfg.seed, i]))
              for i in range(cfg.n_samples)]
        assert np.isfinite(xs).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = r"^noise_sd 3e\+307 puts the scores of instance 7 past the float range$"
            with pytest.raises(ValueError, match=message):
                gen_dataset(cfg)

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
        np.testing.assert_array_equal(first.crf.weights, second.crf.weights)
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
            alone, _ = gibbs_chains(
                dataset.crf,
                [x],
                [np.random.default_rng([_STREAM_GIBBS, cfg.seed, i])],
                cfg.gibbs_iters,
                0,
            )
            np.testing.assert_array_equal(inst.labels, alone[0])

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
    # The benchmark's synth workload at seed 0, recorded from the chain-major
    # lockstep kernel.
    (
        ["--d", "20", "--d-rel", "5", "--length", "8", "--m", "2", "--n", "250",
         "--gibbs-iters", "100", "--seed", "0"],
        "4ca630e6cd6d510280a3b8041d63f235ca513d9d34ef34ebba80a5736badcba9",
    ),
    # The same config at gen-synth's default 500 sweeps, recorded from the
    # kernel that summed each site's label CDF with numpy's cumsum.
    (
        ["--d", "20", "--d-rel", "5", "--length", "8", "--m", "2", "--n", "250",
         "--gibbs-iters", "500", "--seed", "0"],
        "00ca5e50aa5b0114a7ef7e62faba93328d538fd95302eb10986b361da2150d7b",
    ),
]


@pytest.mark.parametrize("flags, digest", PINNED_GEN_SYNTH)
def test_gen_synth_bytes_are_pinned(tmp_path, flags, digest):
    out = tmp_path / "synth.jsonl"
    assert main(["gen-synth", *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
