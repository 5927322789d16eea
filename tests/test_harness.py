"""File formats, metrics, the bound calculator, and curve generation."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from medn import (
    BoundInputs,
    ChainModel,
    FeatureSpec,
    GeneratorConfig,
    SequenceInstance,
    TrueCrf,
    evaluate_weight_rows,
    gen_dataset,
    kl_norm,
    margin_sample_count,
    mean_std,
    pac_bound,
)
from medn.curves import (
    identity_points,
    l1_unit_ball,
    l2_unit_ball,
    norm_ball_boundary,
    norm_ball_level,
    shrinkage_eta_grid,
    shrinkage_points,
)
from medn.dataio import (
    ModelFile,
    read_dataset,
    read_model_file,
    write_dataset,
    write_model_file,
)
from oracles import laplace_tilted_mean


# Up to three single-character edits: (position, operation, character).
_EDITS = st.lists(
    st.tuples(
        st.integers(0, 10**6),
        st.sampled_from(["delete", "insert", "replace"]),
        st.sampled_from(list('{}[]",:-+.0123456789eExydm \n')),
    ),
    min_size=1,
    max_size=3,
)


def _mutate(path, edits):
    text = path.read_text()
    for pos, op, char in edits:
        i = pos % (len(text) + (op == "insert"))
        tail = text[i:] if op == "insert" else text[i + 1 :]
        text = text[:i] + ("" if op == "delete" else char) + tail
    path.write_text(text)


def _assert_parses_or_fails_in_one_located_line(reader, path):
    try:
        reader(path)
    except ValueError as exc:
        message = str(exc)
        assert re.match(rf"{re.escape(str(path))}:\d+: ", message), message
        assert "\n" not in message


class TestDatasetFiles:
    def test_round_trip_is_byte_stable(self, tmp_path):
        cfg = GeneratorConfig(d=3, d_rel=2, L=4, m=2, n_samples=6, gibbs_iters=30, seed=2)
        dataset = gen_dataset(cfg)
        spec = dataset.crf.model.spec
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        write_dataset(path_a, dataset.instances, spec, meta={"seed": 2})
        instances, spec_back, meta = read_dataset(path_a)
        assert spec_back == spec
        assert meta == {"seed": 2}
        assert len(instances) == 6
        for orig, back in zip(dataset.instances, instances):
            np.testing.assert_array_equal(orig.features, back.features)
            np.testing.assert_array_equal(orig.labels, back.labels)
        write_dataset(path_b, instances, spec_back, meta=meta)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_dataset(path, [], FeatureSpec(2, 2), meta={})
        instances, spec, _ = read_dataset(path)
        assert instances == [] and spec == FeatureSpec(2, 2)
        assert len(path.read_text().splitlines()) == 1

    def test_bad_width_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_dataset(path, [SequenceInstance([[1.0, 2.0]], [0])], FeatureSpec(2, 2))
        lines = path.read_text().splitlines()
        lines.append('{"x":[[1.0]],"y":[0]}')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            read_dataset(path)

    def test_label_exceeding_arity_rejected(self, tmp_path):
        path = tmp_path / "bad2.jsonl"
        write_dataset(path, [], FeatureSpec(1, 2))
        with open(path, "a") as fh:
            fh.write('{"x":[[1.0]],"y":[2]}\n')
        with pytest.raises(ValueError):
            read_dataset(path)

    @settings(max_examples=200, deadline=None)
    @given(edits=_EDITS)
    def test_mutated_file_parses_or_fails_with_one_located_line(self, tmp_path_factory, edits):
        """Deleting, inserting or replacing up to three characters of a valid
        file either leaves it readable or gives a one-line ``ValueError``
        that starts with ``path:line:``."""
        path = tmp_path_factory.getbasetemp() / "mutated.jsonl"
        write_dataset(
            path,
            [SequenceInstance([[0.5, -1.0], [2.0, 0.0]], [1, 2]), SequenceInstance([[1.0, 3.0]], [0])],
            FeatureSpec(2, 3),
        )
        _mutate(path, edits)
        _assert_parses_or_fails_in_one_located_line(read_dataset, path)


class TestModelFiles:
    def test_round_trip_preserves_predictions(self, tmp_path):
        rng = np.random.default_rng(70)
        spec = FeatureSpec(3, 2)
        weights = rng.standard_normal(spec.K)
        var = np.abs(rng.standard_normal(spec.K)) + 0.1
        path = tmp_path / "model.json"
        write_model_file(
            path,
            ModelFile(kind="lapmedn", spec=spec, weights=weights, var_diag=var,
                      hyper={"lambda": 4.0, "seed": 1, "n_train": 10}),
        )
        loaded = read_model_file(path)
        assert loaded.kind == "lapmedn"
        np.testing.assert_array_equal(loaded.weights, weights)
        np.testing.assert_array_equal(loaded.var_diag, var)
        assert loaded.hyper["lambda"] == 4.0
        x = rng.standard_normal((5, 3))
        from medn import decode

        np.testing.assert_array_equal(
            decode(ChainModel(spec, weights), x), decode(ChainModel(spec, loaded.weights), x)
        )

    @settings(max_examples=200, deadline=None)
    @given(edits=_EDITS)
    def test_mutated_file_parses_or_fails_with_one_located_line(self, tmp_path_factory, edits):
        """Deleting, inserting or replacing up to three characters of a valid
        model file either leaves it readable or gives a one-line
        ``ValueError`` that starts with ``path:line:``."""
        path = tmp_path_factory.getbasetemp() / "mutated.json"
        spec = FeatureSpec(1, 2)
        write_model_file(
            path,
            ModelFile(kind="lapmedn", spec=spec, weights=np.linspace(-1.0, 2.0, spec.K),
                      var_diag=np.full(spec.K, 0.5), hyper={"lambda": 4.0, "seed": 1}),
        )
        _mutate(path, edits)
        _assert_parses_or_fails_in_one_located_line(read_model_file, path)

    def test_unknown_kind_rejected(self):
        spec = FeatureSpec(2, 2)
        with pytest.raises(ValueError):
            ModelFile(kind="other", spec=spec, weights=np.zeros(spec.K), var_diag=None, hyper={})


class TestMetrics:
    def test_counts_match_hand_evaluation(self):
        """Zero weights decode everything to label 0, so the error rates are
        exactly the fraction of nonzero gold labels."""
        spec = FeatureSpec(2, 2)
        instances = [
            SequenceInstance(np.zeros((4, 2)), [0, 0, 1, 1]),
            SequenceInstance(np.zeros((4, 2)), [0, 0, 0, 0]),
        ]
        report = evaluate_weight_rows(spec, np.zeros((1, spec.K)), instances)[0]
        assert report.per_label_err == pytest.approx(2 / 8)
        assert report.seq_err == pytest.approx(1 / 2)
        assert report.n_sequences == 2 and report.n_positions == 8

    def test_zero_weight_model_on_symmetric_data_errs_about_half(self):
        """Uniformly sampled binary labels: predicting all zeros is wrong on
        about half the positions."""
        spec = FeatureSpec(2, 2)
        crf = TrueCrf(model=ChainModel(spec, np.zeros(spec.K)), relevant=np.arange(0))
        rng = np.random.default_rng(71)
        instances = [
            SequenceInstance(rng.standard_normal((8, 2)), rng.integers(0, 2, size=8))
            for _ in range(250)
        ]
        report = evaluate_weight_rows(spec, crf.model.weights[None], instances)[0]
        assert abs(report.per_label_err - 0.5) <= 0.05

    def test_mean_std_aggregation(self):
        mean, std = mean_std([0.1, 0.2, 0.3])
        assert mean == pytest.approx(0.2)
        assert std == pytest.approx(np.std([0.1, 0.2, 0.3]))
        with pytest.raises(ValueError):
            mean_std([])

    def test_rates_validated(self):
        from medn import MetricsReport

        with pytest.raises(ValueError):
            MetricsReport(per_label_err=1.5, seq_err=0.0, n_sequences=1, n_positions=1)


class TestPacBound:
    def test_fixture_against_high_precision_evaluation(self):
        """N=100, 256 labelings, c=gamma=1, kl=1, delta=0.1: the derived
        sample count is 241 and the bound about 1.304, recomputed here with
        50-digit arithmetic."""
        inputs = BoundInputs(
            n=100, y_card=256, c=1.0, gamma=1.0, kl=1.0, delta=0.1, empirical_margin_rate=0.0
        )
        assert margin_sample_count(inputs) == 241
        mpmath.mp.dps = 50
        m = int(mpmath.ceil(16 * mpmath.log(100 * mpmath.mpf(256) ** 2 / 2)))
        assert m == 241
        tail = 256 * mpmath.e ** (-mpmath.mpf(m) / 32)
        slack = mpmath.sqrt((m + mpmath.log(100) + 3 * mpmath.log((m + 1) / mpmath.mpf("0.1")) + 2) / 199)
        oracle = float(tail + slack)
        assert pac_bound(inputs) == pytest.approx(oracle, abs=1e-9)
        assert pac_bound(inputs) == pytest.approx(1.304, abs=5e-3)

    def test_monotone_in_kl(self):
        base = dict(n=500, y_card=64, c=1.0, gamma=0.5, delta=0.05, empirical_margin_rate=0.1)
        values = [pac_bound(BoundInputs(kl=kl, **base)) for kl in (0.0, 0.5, 1.0, 5.0, 50.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_monotone_in_inverse_delta(self):
        base = dict(n=500, y_card=64, c=1.0, gamma=0.5, kl=1.0, empirical_margin_rate=0.1)
        values = [pac_bound(BoundInputs(delta=d, **base)) for d in (0.5, 0.1, 0.01)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_complexity_term_shrinks_with_more_data(self):
        """For fixed m the third term decays like 1/sqrt(n); with n growing
        the whole bound approaches rate + discretization tail."""
        base = dict(y_card=64, c=1.0, gamma=1.0, kl=1.0, delta=0.1, empirical_margin_rate=0.2)
        big_n = BoundInputs(n=10**9, **base)
        m = margin_sample_count(big_n)
        residual = pac_bound(big_n) - 0.2 - 64 * math.exp(-m / 32.0)
        assert residual <= math.sqrt(m * 1.0 / (2e9 - 1)) + 1e-4
        assert residual < 0.01

    def test_vacuous_bounds_not_clipped(self):
        inputs = BoundInputs(
            n=10, y_card=1000, c=2.0, gamma=0.1, kl=10.0, delta=0.01, empirical_margin_rate=0.5
        )
        assert pac_bound(inputs) > 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            BoundInputs(n=0, y_card=4, c=1.0, gamma=1.0, kl=0.0, delta=0.1, empirical_margin_rate=0.0)
        with pytest.raises(ValueError):
            BoundInputs(n=5, y_card=4, c=1.0, gamma=1.0, kl=-1.0, delta=0.1, empirical_margin_rate=0.0)
        with pytest.raises(ValueError):
            BoundInputs(n=5, y_card=4, c=1.0, gamma=1.0, kl=0.0, delta=1.5, empirical_margin_rate=0.0)


class TestShrinkageCurves:
    def test_identity_curve_is_exact(self):
        points = identity_points([0.7, -1.2])
        assert points[0].y == 0.7 and points[1].y == -1.2

    def test_known_point_and_quadrature(self):
        points = dict((p.x, p.y) for p in shrinkage_points(4.0, [0.0, 1.0]))
        assert points[1.0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert points[1.0] == pytest.approx(laplace_tilted_mean(1.0, 4.0), abs=1e-6)

    def test_sharper_prior_curve_lies_below(self):
        grid = np.linspace(0.05, 1.9, 60)
        four = [p.y for p in shrinkage_points(4.0, grid)]
        six = [p.y for p in shrinkage_points(6.0, grid)]
        assert all(s < f for s, f in zip(six, four))

    def test_grid_touching_the_domain_edge_rejected(self):
        with pytest.raises(ValueError):
            shrinkage_points(4.0, [0.0, 2.0])

    def test_default_grid_stays_inside(self):
        grid = shrinkage_eta_grid(6.0)
        assert len(grid) == 50
        assert np.all(np.abs(grid) < math.sqrt(6.0))


class TestNormBall:
    def test_level_equals_the_two_coordinate_penalty_at_unit_point(self):
        for lam in (1.0, 4.0, 36.0):
            assert norm_ball_level(lam) == pytest.approx(
                kl_norm(np.array([0.0, 1.0]), lam), abs=1e-12
            )

    def test_boundary_points_satisfy_the_level_equation(self):
        for lam in (1.0, 16.0):
            level = norm_ball_level(lam)
            for w1, w2 in norm_ball_boundary(lam, 90):
                assert abs(kl_norm(np.array([w1, w2]), lam) - level) <= 1e-8

    def test_boundary_passes_the_unit_axis_points(self):
        points = norm_ball_boundary(4.0, 360)
        for target in ([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]):
            distance = np.min(np.linalg.norm(points - np.array(target), axis=1))
            assert distance <= 1e-6

    def test_large_lam_boundary_approaches_the_l1_diamond(self):
        points = norm_ball_boundary(1e6, 720)
        diamond = l1_unit_ball(720)
        distances = cdist(points, diamond)
        hausdorff = max(distances.min(axis=0).max(), distances.min(axis=1).max())
        assert hausdorff <= 0.01

    def test_unit_ball_helpers(self):
        circle = l2_unit_ball(64)
        np.testing.assert_allclose(np.linalg.norm(circle, axis=1), 1.0, atol=1e-12)
        diamond = l1_unit_ball(64)
        np.testing.assert_allclose(np.abs(diamond).sum(axis=1), 1.0, atol=1e-12)
