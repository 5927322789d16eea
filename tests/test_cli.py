"""End-to-end command-line workflows."""

import csv
import hashlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import warnings
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from medn import (BoundInputs, FeatureSpec, GeneratorConfig, LaplaceConfig, SequenceInstance,
                  SubgradConfig)
from medn.cli import (
    DEFAULT_BETA_GRID,
    DEFAULT_LAMBDA_GRID,
    DEFAULT_OUTER_ITERS,
    DEFAULT_RADIUS_GRID,
    main,
)
from medn import cli, optimize
from medn.metrics import _mean_std_rows, mean_std
from medn.dataio import ModelFile, read_dataset, read_model_file, write_dataset, write_model_file
from oracles import (
    HUGE_WEIGHTS,
    make_mixed_instances,
    make_signal_instances,
    overflowing_gold_instances,
    overflowing_score_instances,
    pac_bound_oracle,
    reference_l1_constrained_train,
    reference_subgradient_train,
    reference_train_laplace,
)


SRC = Path(__file__).resolve().parents[1] / "src"


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _run_quietly(argv):
    """Exit code, stdout and stderr of one ``main`` call, and every warning
    it raised (pytest would otherwise swallow them)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def _assert_clean_exit(code, err, caught):
    """Exit 0 with a silent stderr, or exit 2 with one ``error:`` line."""
    assert not caught
    if code == 0:
        assert err == ""
    else:
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, err


def _write_signal_dataset(path, n=10, length=5, d=3, seed=80, noise_cols=True):
    rng = np.random.default_rng(seed)
    spec = FeatureSpec(d, 2)
    instances = make_signal_instances(rng, n=n, length=length, d=d)
    if noise_cols and d > 1:
        for i, inst in enumerate(instances):
            x = inst.features.copy()
            x[:, 1:] = rng.standard_normal((length, d - 1))
            instances[i] = SequenceInstance(x, inst.labels)
    write_dataset(path, instances, spec, meta={"seed": seed})
    return instances, spec


class TestGenSynth:
    def test_zero_instances_yields_header_only_file(self, tmp_path):
        out = tmp_path / "empty.jsonl"
        assert main(["gen-synth", "--n", "0", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1
        header = json.loads(lines[0])
        assert header["d"] == 20 and header["m"] == 2

    def test_default_desk_config_round_trips(self, tmp_path):
        out = tmp_path / "desk.jsonl"
        assert (
            main(["gen-synth", "--gibbs-iters", "50", "--seed", "4", "--out", str(out)]) == 0
        )
        assert len(out.read_text().splitlines()) == 251  # header + 250 instances
        from medn.dataio import read_dataset

        instances, spec, meta = read_dataset(out)
        assert len(instances) == 250
        assert spec == FeatureSpec(20, 2)
        assert meta["generator"]["seed"] == 4
        assert meta["relevant"] == [0, 1, 2, 3, 4]

    def test_same_flags_give_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        flags = ["gen-synth", "--n", "12", "--gibbs-iters", "40", "--seed", "7"]
        assert main(flags + ["--out", str(a)]) == 0
        assert main(flags + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_correlated_flag(self, tmp_path):
        out = tmp_path / "corr.jsonl"
        assert (
            main(
                [
                    "gen-synth", "--d", "6", "--d-rel", "4", "--n", "2",
                    "--gibbs-iters", "10", "--correlated", "--group-size", "2",
                    "--out", str(out),
                ]
            )
            == 0
        )


class TestTrainPredictEval:
    def test_m3n_perfect_on_separable_data(self, tmp_path, capsys):
        data = tmp_path / "train.jsonl"
        _write_signal_dataset(data, n=8, seed=81)
        model = tmp_path / "m3n.json"
        code = main(
            [
                "train", "--model", "m3n", "--data", str(data), "--beta", "1",
                "--c", "1", "--iters", "80", "--seed", "0", "--out", str(model),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "final objective" in printed
        assert main(["eval", "--model-file", str(model), "--data", str(data)]) == 0
        assert "per-label error 0.0000" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--lambda", "1e-320", "--outer-iters", "2"],
             "error: variance refresh overflowed in round 1 at lam=9.99989e-321"),
            (["--lambda", "1e-320"], "error: variance refresh overflowed in round 1"),
            (["--lambda", "inf"], "error: --lambda must be positive and finite, got inf"),
        ],
        ids=["subnormal-two-rounds", "subnormal", "inf"],
    )
    def test_lapmedn_lambda_past_the_float_range_is_one_line(self, tmp_path, flags, message):
        data = tmp_path / "train.jsonl"
        _write_signal_dataset(data, n=4, seed=84)
        code, _, err, caught = _run_quietly(
            ["train", "--model", "lapmedn", "--data", str(data), "--iters", "3", *flags,
             "--out", str(tmp_path / "m.json")]
        )
        assert (code, caught) == (2, [])
        assert err.startswith(message) and err.count("\n") == 1
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["train", "--model", "m3n", "--beta", "1e-300"],
             "error: subgradient iterate with seed=0 diverged in epoch 1 at update t=2: "
             "beta=1e-300 reached L2 norm "),
            (["train", "--model", "m3n", "--c", "1e308"],
             "error: subgradient iterate with seed=0 diverged in epoch 1 at update t=1: "
             "beta=1 reached L2 norm inf;"),
            (["cv", "--folds", "2", "--betas", "1,1e-300", "--seed", "5"],
             "error: subgradient iterate with seed=5 diverged in epoch 1 at update t=1: "
             "beta=1e-300 reached L2 norm "),
        ],
        ids=["tiny-beta", "huge-c", "cv-tiny-beta"],
    )
    def test_divergence_is_one_error_line_without_warnings(self, tmp_path, argv, message):
        """The error names the row's seed (in cv, seed + fold) and beta, and
        no numpy overflow warning precedes it."""
        data = tmp_path / "train.jsonl"
        _write_signal_dataset(data, n=4, seed=85)
        code, _, err, caught = _run_quietly(
            [*argv, "--data", str(data), "--iters", "3", "--out", str(tmp_path / "o")]
        )
        assert (code, caught) == (2, [])
        assert err.startswith(message) and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["train", "--model", "lapmedn", "--lambda", "1e-300"],
             "error: --lambda 1e-300 made round 2 diverge: subgradient iterate with seed=0 "
             "diverged in epoch 1 at update t=1 and reached L2 norm "),
            (["cv", "--folds", "2", "--models", "lapmedn", "--lambdas", "9,1e-300", "--betas", "1"],
             "error: --lambdas 1e-300 made round 2 diverge: subgradient iterate with seed=0 "
             "diverged in epoch 1 at update t=1 and reached L2 norm "),
        ],
        ids=["train", "cv"],
    )
    def test_a_later_round_divergence_names_lambda(self, tmp_path, argv, message):
        """Round 1 trains under the identity penalty; a row that diverges in
        a later round does so under the variances its lam set, so the error
        names that lam's flag and value and the round, not beta."""
        data = tmp_path / "train.jsonl"
        _write_signal_dataset(data, n=4, seed=85)
        code, _, err, caught = _run_quietly(
            [*argv, "--data", str(data), "--iters", "1", "--outer-iters", "3",
             "--out", str(tmp_path / "o")]
        )
        assert (code, caught) == (2, [])
        assert err.startswith(message) and err.endswith("; use a larger lam\n"), err
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv",
        [["train", "--model", "m3n"], ["cv", "--folds", "2", "--models", "m3n,l1m3n"]],
        ids=["train", "cv"],
    )
    def test_overflowing_gold_features_are_one_error_line(self, tmp_path, argv):
        """Features of 1e308 are finite, but their sum is not: the error names
        the instance, where a divergence error blamed the step size after a
        numpy overflow warning."""
        data = tmp_path / "huge.jsonl"
        write_dataset(data, overflowing_gold_instances(), FeatureSpec(2, 2))
        code, _, err, caught = _run_quietly(
            [*argv, "--data", str(data), "--iters", "2", "--out", str(tmp_path / "o")]
        )
        assert (code, caught) == (2, [])
        assert err == "error: instance 2: its features sum past the float range\n"

    @pytest.mark.parametrize("command", ["predict", "eval"])
    @pytest.mark.parametrize(
        "instances, weights",
        [(overflowing_gold_instances(), np.ones(8)), (overflowing_score_instances(), HUGE_WEIGHTS)],
        ids=["huge-features", "huge-weights"],
    )
    def test_overflowing_scores_are_one_error_line(self, tmp_path, command, instances, weights):
        """Features of 1e308, or weights of +-1e308, are finite, but the
        scores they form are not: the error names the first such instance,
        where predict and eval printed numpy warnings, decoded labels from
        NaN scores and exited 0."""
        spec = FeatureSpec(2, 2)
        data, model, out = tmp_path / "data.jsonl", tmp_path / "model.json", tmp_path / "out.csv"
        write_dataset(data, instances, spec)
        write_model_file(model, ModelFile("m3n", spec, weights, None, {}))
        code, _, err, caught = _run_quietly(
            [command, "--model-file", str(model), "--data", str(data), "--out", str(out)]
        )
        assert (code, caught) == (2, [])
        assert err == "error: instance 2: its scores pass the float range\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["train", "--model", "m3n", "--seed", "-1"],
             "error: --seed must be an integer >= 0, got -1\n"),
            (["cv", "--folds", "2", "--seed", "-3"],
             "error: --seed must be an integer >= 0, got -3\n"),
        ],
        ids=["train", "cv"],
    )
    def test_negative_seed_names_the_seed(self, tmp_path, monkeypatch, argv, message):
        """numpy's own error named neither the seed nor its value."""
        def no_step(*args, **kwargs):
            raise AssertionError("a kernel step ran with a bad seed")

        monkeypatch.setattr(optimize, "_viterbi", no_step)
        data = tmp_path / "train.jsonl"
        _write_signal_dataset(data, n=4, seed=86)
        code, _, err, caught = _run_quietly(
            [*argv, "--data", str(data), "--iters", "2", "--out", str(tmp_path / "o")]
        )
        assert (code, err, caught) == (2, message, [])
        assert not (tmp_path / "o").exists()

    def test_infinite_beta_names_its_flag(self, tmp_path):
        """The m3n default --c is 200 * beta; the error names the flag the
        user passed, not the C derived from it."""
        data = tmp_path / "train.jsonl"
        _write_signal_dataset(data, n=4, seed=86)
        code, _, err, caught = _run_quietly(
            ["train", "--model", "m3n", "--data", str(data), "--beta", "inf",
             "--out", str(tmp_path / "m.json")]
        )
        assert (code, err, caught) == (2, "error: --beta must be positive and finite, got inf\n", [])

    def test_model_file_round_trip_preserves_predictions(self, tmp_path):
        data = tmp_path / "train.jsonl"
        _write_signal_dataset(data, n=6, seed=82)
        model = tmp_path / "model.json"
        main(
            [
                "train", "--model", "l1m3n", "--data", str(data), "--radius", "2.0",
                "--iters", "30", "--out", str(model),
            ]
        )
        preds_a = tmp_path / "a.csv"
        preds_b = tmp_path / "b.csv"
        main(["predict", "--model-file", str(model), "--data", str(data), "--out", str(preds_a)])
        main(["predict", "--model-file", str(model), "--data", str(data), "--out", str(preds_b)])
        assert preds_a.read_bytes() == preds_b.read_bytes()
        rows = _read_csv(preds_a)
        assert rows[0] == ["index", "y_pred"]
        assert len(rows) == 7

    def test_eval_csv_schema_is_fixed(self, tmp_path):
        data = tmp_path / "train.jsonl"
        _write_signal_dataset(data, n=5, seed=83)
        model = tmp_path / "model.json"
        main(
            [
                "train", "--model", "m3n", "--data", str(data), "--c", "1",
                "--iters", "20", "--seed", "3", "--out", str(model),
            ]
        )
        out = tmp_path / "metrics.csv"
        main(["eval", "--model-file", str(model), "--data", str(data), "--out", str(out)])
        rows = _read_csv(out)
        assert rows[0] == ["model", "dataset", "n_train", "per_label_err", "seq_err", "seed"]
        assert rows[1][0] == "m3n"
        assert rows[1][1] == "train.jsonl"
        assert rows[1][2] == "5"
        assert rows[1][5] == "3"

    def test_sharp_prior_shrinks_irrelevant_mass_more_than_m3n(self, tmp_path):
        """Paired run on a sparse toy set: the Laplace-prior model must put
        relatively less weight on the noise features than the plain
        max-margin model."""
        data = tmp_path / "sparse.jsonl"
        _write_signal_dataset(data, n=12, length=6, d=4, seed=84)
        m3n_file = tmp_path / "m3n.json"
        lap_file = tmp_path / "lap.json"
        common = ["--data", str(data), "--beta", "1", "--iters", "40", "--seed", "0"]
        main(["train", "--model", "m3n", "--c", "1"] + common + ["--out", str(m3n_file)])
        main(
            ["train", "--model", "lapmedn", "--lambda", "100", "--outer-iters", "4"]
            + common
            + ["--out", str(lap_file)]
        )
        spec = FeatureSpec(4, 2)

        def ratio(path):
            state = np.abs(spec.state_view(read_model_file(path).weights))
            return state[1:].sum() / state[0].sum()

        assert ratio(lap_file) < ratio(m3n_file)

    def test_train_rerun_is_byte_identical(self, tmp_path):
        data = tmp_path / "train.jsonl"
        _write_signal_dataset(data, n=6, seed=85)
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        flags = [
            "train", "--model", "lapmedn", "--data", str(data), "--lambda", "9",
            "--iters", "25", "--seed", "5",
        ]
        main(flags + ["--out", str(out_a)])
        main(flags + ["--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_dataset_without_instances_names_its_file(self, tmp_path):
        """train and eval on a file that holds a header alone fail with one
        error line that names the file, and write nothing."""
        data = tmp_path / "empty.jsonl"
        write_dataset(data, [], FeatureSpec(3, 2))
        model = tmp_path / "model.json"
        write_model_file(model, ModelFile(kind="m3n", spec=FeatureSpec(3, 2),
                                          weights=np.zeros(10), var_diag=None, hyper={}))
        out = tmp_path / "out.txt"
        for argv, message in (
            (["train", "--model", "m3n"], f"error: {data}: no instances to train on\n"),
            (["eval", "--model-file", str(model)], f"error: {data}: no instances to evaluate\n"),
        ):
            code, _, err, caught = _run_quietly([*argv, "--data", str(data), "--out", str(out)])
            assert (code, err, caught) == (2, message, [])
            assert not out.exists()

    def test_incompatible_dimensions_rejected(self, tmp_path):
        data = tmp_path / "train.jsonl"
        _write_signal_dataset(data, n=4, d=3, seed=86)
        other = tmp_path / "other.jsonl"
        _write_signal_dataset(other, n=4, d=2, seed=86)
        model = tmp_path / "model.json"
        main(["train", "--model", "m3n", "--data", str(data), "--iters", "5", "--out", str(model)])
        assert main(["eval", "--model-file", str(model), "--data", str(other)]) == 2


class TestCrossValidation:
    def test_single_instance_folds_run(self, tmp_path):
        data = tmp_path / "cv.jsonl"
        _write_signal_dataset(data, n=6, seed=87)
        out = tmp_path / "cv.csv"
        code = main(
            [
                "cv", "--data", str(data), "--folds", "6", "--models", "m3n",
                "--betas", "1", "--iters", "10", "--out", str(out),
            ]
        )
        assert code == 0
        rows = _read_csv(out)
        # 6 fold rows + mean + std
        assert len(rows) == 1 + 6 + 2
        assert rows[0][4] == "fold"
        assert {row[4] for row in rows[1:]} == {"0", "1", "2", "3", "4", "5", "mean", "std"}
        # inverted split: each fold trains on one instance
        assert all(row[5] == "1" for row in rows[1:7])

    def test_aggregate_mean_equals_mean_of_fold_rows(self, tmp_path):
        data = tmp_path / "cv.jsonl"
        _write_signal_dataset(data, n=9, seed=88)
        out = tmp_path / "cv.csv"
        main(
            [
                "cv", "--data", str(data), "--folds", "3", "--models", "m3n,lapmedn",
                "--betas", "1", "--lambdas", "9", "--iters", "10", "--out", str(out),
            ]
        )
        rows = _read_csv(out)
        header = rows[0]
        fold_col, err_col = header.index("fold"), header.index("per_label_err")
        by_model = {}
        for row in rows[1:]:
            by_model.setdefault(row[0], {}).setdefault(row[fold_col], []).append(row)
        for model, groups in by_model.items():
            fold_errs = [
                float(groups[f][0][err_col]) for f in ("0", "1", "2")
            ]
            mean_row = float(groups["mean"][0][err_col])
            assert mean_row == pytest.approx(np.mean(fold_errs), abs=1e-9)

    def test_default_sweep_grids(self, tmp_path, monkeypatch):
        """Without sweep flags, cv trains every family over the default grids
        on every fold, lapmedn with T = 4."""

        class Swept(Exception):
            pass

        def recording(instances, spec, cfgs, *, subsets):
            swept.extend(cfgs)
            raise Swept

        swept = []
        monkeypatch.setattr(cli, "train_laplace_grid", recording)
        data = tmp_path / "cv.jsonl"
        _write_signal_dataset(data, n=4, seed=94)
        with pytest.raises(Swept):
            main(["cv", "--data", str(data), "--folds", "2", "--models", "m3n,lapmedn,l1m3n",
                  "--out", str(tmp_path / "o.csv")])
        rows = Counter(
            ("lapmedn", cfg.lam, cfg.inner.beta, None, cfg.outer_iters)
            if isinstance(cfg, LaplaceConfig)
            else ("m3n" if cfg.radius is None else "l1m3n", None, cfg.beta, cfg.radius, None)
            for cfg in swept
        )
        assert DEFAULT_LAMBDA_GRID == (9.0, 16.0, 25.0, 36.0, 49.0, 64.0)
        assert DEFAULT_BETA_GRID == (1.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0)
        assert (DEFAULT_RADIUS_GRID, DEFAULT_OUTER_ITERS) == ((10.0,), 4)
        want = (
            [("m3n", None, beta, None, None) for beta in DEFAULT_BETA_GRID]
            + [("lapmedn", lam, beta, None, 4) for lam in DEFAULT_LAMBDA_GRID
               for beta in DEFAULT_BETA_GRID]
            + [("l1m3n", None, beta, 10.0, None) for beta in DEFAULT_BETA_GRID]
        )
        assert rows == Counter(want * 2)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--models", "m3n,lapmdn"], "error: unknown model 'lapmdn'\n"),
            (["--models", "m3n,lapmedn", "--lambdas", ""], "error: lapmedn requires nonempty --lambdas"),
            (["--models", ""], "error: cv requires nonempty --models\n"),
            (["--models", ","], "error: cv requires nonempty --models\n"),
            (["--models", "m3n,lapmedn,m3n"], "error: --models lists m3n twice\n"),
            (["--models", "m3n", "--betas", "1,1.0"], "error: --betas lists 1 twice\n"),
            (["--models", "lapmedn", "--lambdas", "4,9,4"], "error: --lambdas lists 4 twice\n"),
            (["--models", "m3n,l1m3n", "--radii", "2.5,2.50"], "error: --radii lists 2.5 twice\n"),
        ],
    )
    def test_sweep_is_validated_before_any_training(self, tmp_path, capsys, monkeypatch, flags, message):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the sweep was validated")

        monkeypatch.setattr(cli, "train_laplace_grid", no_training)
        data = tmp_path / "cv.jsonl"
        _write_signal_dataset(data, n=6, seed=90)
        code = main(
            ["cv", "--data", str(data), "--folds", "2", "--betas", "1", "--iters", "2",
             "--out", str(tmp_path / "o.csv"), *flags]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--models", "m3n,lapmedn", "--lambdas", "0"],
             "error: --lambdas must be positive and finite, got 0\n"),
            (["--models", "l1m3n,m3n", "--betas", "1,inf"],
             "error: --betas must be positive and finite, got inf\n"),
            (["--models", "m3n,l1m3n", "--c", "-1"], "error: --c must be nonnegative and finite, got -1\n"),
            (["--models", "m3n,l1m3n", "--radii", "0"],
             "error: --radii must be positive and finite, got 0\n"),
            (["--models", "m3n,l1m3n", "--radii", "inf"],
             "error: --radii must be positive and finite, got inf\n"),
        ],
        ids=["lambda", "beta", "c", "radius", "radius-inf"],
    )
    def test_every_row_is_checked_before_the_kernel_starts(
        self, tmp_path, monkeypatch, flags, message
    ):
        def no_step(*args, **kwargs):
            raise AssertionError("a kernel step ran before every row was checked")

        monkeypatch.setattr(optimize, "_viterbi", no_step)
        data = tmp_path / "cv.jsonl"
        _write_signal_dataset(data, n=6, seed=92)
        code, _, err, caught = _run_quietly(
            ["cv", "--data", str(data), "--folds", "2", "--betas", "1", "--iters", "2",
             "--out", str(tmp_path / "o.csv"), *flags]
        )
        assert (code, err, caught) == (2, message, [])

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--c", "-1"], "error: --c must be nonnegative and finite, got -1\n"),
            (["--iters", "0"], "error: --iters must be an integer >= 1, got 0\n"),
            (["--outer-iters", "1"], "error: --outer-iters must be an integer >= 2, got 1\n"),
            (["--seed", "-3"], "error: --seed must be an integer >= 0, got -3\n"),
        ],
        ids=["c", "iters", "outer-iters", "seed"],
    )
    def test_every_row_is_checked_before_the_data_is_read(self, tmp_path, flags, message):
        """A bad row is reported, not the missing file it would train on."""
        code, _, err, caught = _run_quietly(
            ["cv", "--data", str(tmp_path / "missing.jsonl"), "--folds", "2", "--iters", "2",
             "--out", str(tmp_path / "o.csv"), *flags]
        )
        assert (code, err, caught) == (2, message, [])

    def test_more_folds_than_instances_fails_before_any_fold_config(self, tmp_path):
        """The per-fold configs are built only once the folds fit the data."""
        data = tmp_path / "cv.jsonl"
        _write_signal_dataset(data, n=6, seed=93)
        code, _, err, caught = _run_quietly(
            ["cv", "--data", str(data), "--folds", "1000000000000", "--iters", "2",
             "--out", str(tmp_path / "o.csv")]
        )
        message = "error: --folds 1000000000000 is more than the 6 instances\n"
        assert (code, err, caught) == (2, message, [])

    @pytest.mark.parametrize("outer_iters", [2, 3, 4])
    def test_every_row_equals_training_its_config_alone_on_its_fold(
        self, tmp_path, monkeypatch, outer_iters
    ):
        """One lockstep training runs every family, fold and config of the
        sweep: rows of unequal folds (4, 4 and 3 instances of mixed lengths)
        and their own seeds side by side.  Each row must equal the per-config
        reference loop on its fold with seed + fold, lapmedn after each
        number of rounds; signs too, for the -0.0 the projection leaves."""
        trainings = []

        def recording(instances, spec, cfgs, *, subsets):
            out = real(instances, spec, cfgs, subsets=subsets)
            trainings.append((instances, spec, cfgs, subsets, out))
            return out

        real = cli.train_laplace_grid
        monkeypatch.setattr(cli, "train_laplace_grid", recording)
        rng = np.random.default_rng(93)
        data = tmp_path / "mixed.jsonl"
        write_dataset(data, make_mixed_instances(rng, n=11, d=3, m=3), FeatureSpec(3, 3), meta={})
        code = main(
            ["cv", "--data", str(data), "--folds", "3", "--models", "m3n,lapmedn,l1m3n",
             "--lambdas", "4,36", "--betas", "1,10", "--radii", "0.5,1e6", "--iters", "3",
             "--outer-iters", str(outer_iters), "--seed", "7", "--out", str(tmp_path / "cv.csv")]
        )
        assert code == 0
        ((instances, spec, cfgs, subsets, (weights, _)),) = trainings
        folds = np.array_split(np.random.default_rng(7).permutation(11), 3)
        assert [len(fold) for fold in folds] == [4, 4, 3]
        assert len({len(inst) for inst in instances}) > 1
        assert len(cfgs) == len(subsets) == (2 + 4 + 4) * 3
        for cfg, subset, w in zip(cfgs, subsets, weights):
            (f,) = [f for f, want in enumerate(folds) if np.array_equal(subset, want)]
            inner = cfg.inner if isinstance(cfg, LaplaceConfig) else cfg
            assert (inner.iterations, inner.seed) == (3, 7 + f)
            train_set = [instances[i] for i in subset]
            if isinstance(cfg, LaplaceConfig):
                assert cfg.outer_iters == outer_iters
                want = reference_train_laplace(train_set, spec, cfg)[-1][0]
            elif cfg.radius is None:
                assert cfg.C == 200.0 * cfg.beta
                want = reference_subgradient_train(train_set, spec, np.ones(spec.K), cfg)
            else:
                want = reference_l1_constrained_train(train_set, spec, cfg.radius, cfg)
            assert np.array_equal(w, want), (cfg, f)
            assert np.array_equal(np.signbit(w), np.signbit(want))

    def test_more_folds_than_instances_rejected(self, tmp_path):
        data = tmp_path / "cv.jsonl"
        _write_signal_dataset(data, n=3, seed=89)
        assert (
            main(
                ["cv", "--data", str(data), "--folds", "5", "--models", "m3n",
                 "--betas", "1", "--iters", "5", "--out", str(tmp_path / "o.csv")]
            )
            == 2
        )


# Any float or small count, with usable values drawn often enough that
# training runs.
_ANY_FLOAT = st.one_of(
    st.floats(0.01, 100.0),
    st.sampled_from([math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310, 1e308, -1e308, -0.0]),
    st.floats(),
)


class TestFoldStatistics:
    """cv's mean and std rows come from one reduction over a (rate, config,
    fold) array, ``metrics._mean_std_rows``; every row keeps the bits that
    ``mean_std`` gives its fold rates, on both sides of numpy's 8-element
    pairwise-summation block."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 5), st.integers(2, 20), st.integers(0, 2**32 - 1))
    @example(1, 8, 0)
    @example(3, 9, 1)
    @example(2, 20, 2)
    def test_one_reduction_is_mean_std_of_each_row(self, configs, folds, seed):
        rng = np.random.default_rng(seed)
        rates = rng.random((2, configs, folds)) * 10.0 ** rng.uniform(-3, 3, (2, configs, folds))
        means, stds = _mean_std_rows(rates)
        assert means.shape == stds.shape == (2, configs)
        for rate in range(2):
            for c in range(configs):
                want = [v.hex() for v in mean_std(rates[rate, c])]
                assert [float(means[rate, c]).hex(), float(stds[rate, c]).hex()] == want

    def test_cv_rows_are_mean_std_of_their_fold_rates(self, tmp_path, monkeypatch):
        """Nine folds, past the pairwise block: with every float field
        written as its exact hex, each config's mean and std rows are
        mean_std of its nine fold rows."""
        monkeypatch.setattr(cli, "_fmt", lambda value: float(value).hex())
        data, out = tmp_path / "cv.jsonl", tmp_path / "cv.csv"
        _write_signal_dataset(data, n=27, length=4, seed=96)
        code = main(["cv", "--data", str(data), "--folds", "9", "--models", "m3n,lapmedn,l1m3n",
                     "--betas", "1,10", "--lambdas", "9", "--radii", "2", "--iters", "2",
                     "--outer-iters", "3", "--out", str(out)])
        assert code == 0
        header, *rows = _read_csv(out)
        fold, label, seq = (header.index(name) for name in ("fold", "per_label_err", "seq_err"))
        assert len(rows) == 6 * 11
        for start in range(0, len(rows), 11):
            group = rows[start : start + 11]
            assert [row[fold] for row in group] == [str(f) for f in range(9)] + ["mean", "std"]
            for col in (label, seq):
                stats = mean_std([float.fromhex(row[col]) for row in group[:9]])
                assert [group[9][col], group[10][col]] == [v.hex() for v in stats]


def _small_count(low):
    return st.integers(low, 4) | st.integers(-1, 5)



class TestTrainingFlags:
    """train and cv on a tiny file under any float hyperparameters and small
    counts: exit 0 and write the output file, or exit 2 with exactly one
    ``error:`` line and nothing else on stderr."""

    @staticmethod
    def _run(tmp_path_factory, argv):
        base = tmp_path_factory.getbasetemp()
        data, out = base / "tiny-flags.jsonl", base / "tiny-flags.out"
        if not data.exists():
            rng = np.random.default_rng(93)
            instances = make_mixed_instances(rng, n=4, d=2, m=2, max_length=3)
            write_dataset(data, instances, FeatureSpec(2, 2))
        out.unlink(missing_ok=True)
        code, _, err, caught = _run_quietly([*argv, f"--data={data}", f"--out={out}"])
        _assert_clean_exit(code, err, caught)
        assert out.exists() == (code == 0)
        return out

    @pytest.mark.parametrize(
        "argv, n, iters",
        [(["train", "--model=m3n"], 4, 10**20),
         (["train", "--model=lapmedn", "--lambda=1"], 4, 10**20),
         (["train", "--model=l1m3n", "--radius=1"], 4, 10**20),
         (["cv", "--folds=2"], 4, 10**20),
         # The steps fit an array index; the schedule's bytes do not.
         (["train", "--model=m3n"], 50, 184467440737095516)],
        ids=["m3n", "lapmedn", "l1m3n", "cv", "m3n-schedule-bytes"],
    )
    def test_iters_past_what_the_kernel_can_schedule(self, tmp_path, argv, n, iters):
        """An epoch count whose schedule no array can hold is one error
        line, checked before the kernel allocates it."""
        data, out = tmp_path / "train.jsonl", tmp_path / "o"
        _write_signal_dataset(data, n=n, seed=87)
        code, _, err, caught = _run_quietly([*argv, f"--data={data}", f"--iters={iters}", f"--out={out}"])
        _assert_clean_exit(code, err, caught)
        assert code == 2 and "more steps than the kernel can schedule" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [(["train", "--model=lapmedn"], "error: lapmedn requires --lambda\n"),
         (["train", "--model=l1m3n"], "error: l1m3n requires --radius\n"),
         (["cv", "--folds=1"], "error: --folds must be an integer >= 2, got 1\n"),
         (["cv", "--folds=0"], "error: --folds must be an integer >= 2, got 0\n")],
        ids=["lapmedn-lambda", "l1m3n-radius", "folds-1", "folds-0"],
    )
    def test_a_missing_or_bad_flag_is_reported_before_the_data_is_read(self, tmp_path, argv, message):
        """A family's hyperparameter left out and a fold count below 2 are
        each one error line, not the missing file the command would read."""
        out = tmp_path / "o"
        code, _, err, caught = _run_quietly([*argv, f"--data={tmp_path / 'missing.jsonl'}", f"--out={out}"])
        assert (code, err, caught) == (2, message, [])
        assert not out.exists()

    @pytest.mark.parametrize("radius", [1e-12, 1e-16, 3e-17])
    def test_l1m3n_weights_land_on_a_radius_they_dwarf(self, tmp_path, radius):
        """Steps many times the radius are projected onto its ball, not
        past it or to zero: the written weights have an L1 norm of the
        radius to 1e-12 of it."""
        data, out = tmp_path / "train.jsonl", tmp_path / "o.json"
        _write_signal_dataset(data, n=6, seed=88)
        code, _, err, caught = _run_quietly(["train", "--model=l1m3n", f"--radius={radius!r}", "--iters=3",
                                             f"--data={data}", f"--out={out}"])
        assert (code, err, caught) == (0, "", [])
        norm = np.abs(read_model_file(out).weights).sum()
        assert abs(norm - radius) <= 1e-12 * radius

    @settings(max_examples=100, deadline=None)
    @given(
        model=st.sampled_from(["m3n", "lapmedn", "l1m3n"]),
        beta=_ANY_FLOAT,
        c=st.none() | _ANY_FLOAT,
        lam=_ANY_FLOAT,
        radius=_ANY_FLOAT,
        iters=_small_count(1),
        outer_iters=_small_count(2),
    )
    @example(model="m3n", beta=1e308, c=None, lam=1.0, radius=1.0, iters=2, outer_iters=2)
    @example(model="lapmedn", beta=1.0, c=None, lam=5e-324, radius=1.0, iters=2, outer_iters=3)
    @example(model="l1m3n", beta=5e-324, c=1e308, lam=1.0, radius=math.inf, iters=2, outer_iters=2)
    @example(model="l1m3n", beta=1.0, c=None, lam=1.0, radius=math.inf, iters=2, outer_iters=2)
    def test_train(self, tmp_path_factory, model, beta, c, lam, radius, iters, outer_iters):
        own = {"m3n": [], "l1m3n": [f"--radius={radius!r}"],
               "lapmedn": [f"--lambda={lam!r}", f"--outer-iters={outer_iters}"]}[model]
        argv = ["train", f"--model={model}", f"--beta={beta!r}", f"--iters={iters}", *own]
        out = self._run(tmp_path_factory, argv + ([] if c is None else [f"--c={c!r}"]))
        # What train writes, predict and eval can read back.
        assert not out.exists() or read_model_file(out).kind == model

    @pytest.mark.parametrize(
        "model, flag, message",
        [("m3n", "--lambda=4", "error: --lambda is for lapmedn only, not m3n\n"),
         ("l1m3n", "--lambda=4", "error: --lambda is for lapmedn only, not l1m3n\n"),
         ("m3n", "--radius=0.001", "error: --radius is for l1m3n only, not m3n\n"),
         ("lapmedn", "--radius=1", "error: --radius is for l1m3n only, not lapmedn\n"),
         ("m3n", "--outer-iters=4", "error: --outer-iters is for lapmedn only, not m3n\n"),
         ("l1m3n", "--outer-iters=3", "error: --outer-iters is for lapmedn only, not l1m3n\n")],
    )
    def test_train_rejects_another_familys_flag(self, tmp_path, monkeypatch, model, flag, message):
        """A flag that the chosen family would ignore is one error line,
        given before the data is read; its family's required flag is there."""
        monkeypatch.setattr(cli, "read_dataset", None)
        required = {"m3n": [], "lapmedn": ["--lambda=4"], "l1m3n": ["--radius=1"]}[model]
        out = tmp_path / "o"
        code, _, err, caught = _run_quietly(
            ["train", f"--model={model}", *required, flag, "--data=missing.jsonl", f"--out={out}"]
        )
        assert (code, err, caught) == (2, message, [])
        assert not out.exists()

    @pytest.mark.parametrize(
        "models, flag, message",
        [("m3n", "--radii=5", "error: --radii is for l1m3n only, not m3n\n"),
         ("lapmedn", "--radii=1", "error: --radii is for l1m3n only, not lapmedn\n"),
         ("m3n", "--lambdas=4", "error: --lambdas is for lapmedn only, not m3n\n"),
         ("m3n,l1m3n", "--lambdas=9,16", "error: --lambdas is for lapmedn only, not m3n,l1m3n\n"),
         ("m3n", "--outer-iters=4", "error: --outer-iters is for lapmedn only, not m3n\n"),
         ("l1m3n", "--outer-iters=3", "error: --outer-iters is for lapmedn only, not l1m3n\n")],
    )
    def test_cv_rejects_another_familys_flag(self, tmp_path, monkeypatch, models, flag, message):
        """A sweep flag that no family of ``--models`` reads is one error
        line, given before the data is read, as in train."""
        monkeypatch.setattr(cli, "read_dataset", None)
        out = tmp_path / "o"
        code, _, err, caught = _run_quietly(
            ["cv", f"--models={models}", flag, "--folds=2", "--data=missing.jsonl", f"--out={out}"]
        )
        assert (code, err, caught) == (2, message, [])
        assert not out.exists()

    @settings(max_examples=100, deadline=None)
    @given(
        models=st.sampled_from(["m3n", "lapmedn", "l1m3n", "m3n,lapmedn,l1m3n"]),
        beta=_ANY_FLOAT,
        c=st.none() | _ANY_FLOAT,
        lam=_ANY_FLOAT,
        radius=_ANY_FLOAT,
        iters=_small_count(1),
        outer_iters=_small_count(2),
        folds=_small_count(2),
    )
    @example(models="lapmedn", beta=1.0, c=None, lam=5e-324, radius=1.0, iters=2, outer_iters=3,
             folds=2)
    def test_cv(self, tmp_path_factory, models, beta, c, lam, radius, iters, outer_iters, folds):
        own = {"m3n": [], "l1m3n": [f"--radii={radius!r}"],
               "lapmedn": [f"--lambdas={lam!r}", f"--outer-iters={outer_iters}"]}
        argv = ["cv", f"--models={models}", f"--betas={beta!r}", f"--iters={iters}",
                f"--folds={folds}", *[flag for name in models.split(",") for flag in own[name]]]
        self._run(tmp_path_factory, argv + ([] if c is None else [f"--c={c!r}"]))


def _write_mixed_dataset(path):
    """Twelve instances of lengths 1..7 over three labels and three features."""
    rng = np.random.default_rng(91)
    instances = make_mixed_instances(rng, n=12, d=3, m=3)
    write_dataset(path, instances, FeatureSpec(3, 3), meta={"seed": 91})


# sha256 of files written by the per-config trainers that preceded the
# lockstep kernel.  cv trains each fold's grid of a family in one lockstep
# call, train runs it with one row; both must keep these bytes.
PINNED_CV = "afe4d52cf23f40001a223a5aecf132e3f19ba42303dae3815432a72e94a8d678"
PINNED_TRAIN = [
    (["--model", "m3n", "--beta", "2"],
     "db1497fefeeae894979a2c1f7fda051432f24f0698a32cb6304c55298e7fa978"),
    (["--model", "lapmedn", "--lambda", "9", "--outer-iters", "3"],
     "4ff6bfe52a15fe6832c9318940483c1e7da03f070206319aa472dafb7e682f4c"),
    (["--model", "l1m3n", "--radius", "2"],
     "5211e44996fbcfcbbfddf8af9b46d91be13ce98decb69596d74a4a0438e38705"),
]


def test_cv_bytes_are_pinned(tmp_path):
    data, out = tmp_path / "mixed.jsonl", tmp_path / "cv.csv"
    _write_mixed_dataset(data)
    code = main(
        ["cv", "--data", str(data), "--folds", "3", "--models", "m3n,lapmedn,l1m3n",
         "--lambdas", "4,16", "--betas", "1,10", "--radii", "3", "--iters", "4",
         "--outer-iters", "3", "--seed", "2", "--out", str(out)]
    )
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_CV


@pytest.mark.parametrize("flags, digest", PINNED_TRAIN)
def test_train_bytes_are_pinned(tmp_path, flags, digest):
    data, out = tmp_path / "mixed.jsonl", tmp_path / "model.json"
    _write_mixed_dataset(data)
    code = main(["train", "--data", str(data), *flags, "--iters", "6", "--seed", "3", "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# The objective line train prints for each pinned model and the sha256 of
# the predictions it makes on the mixed file, recorded when predict decoded
# one instance per call and the objective decoded and scored one checked
# instance at a time.
PINNED_OBJECTIVE_AND_PREDICT = [
    ("final objective: 139179.414422\n",
     "5f1f1791fdac92a14ca0d16dc452f3094abe20c3bcfb5b4a2f2011ecdadcd15a"),
    ("final objective: 19.658521\n",
     "bdc4ecf89c0e1c2a6891c0f9d537892c07253dd3ec977a6c3908d9621b6cde3c"),
    ("final objective: 29.785218\n",
     "1c0ce4051ee6c13b838e85d840a7d9f421d67b2da30da28d3f4f1b7dcef3ad43"),
]


@pytest.mark.parametrize(
    "flags, objective, digest",
    [(flags, *pins) for (flags, _), pins in zip(PINNED_TRAIN, PINNED_OBJECTIVE_AND_PREDICT)],
    ids=["m3n", "lapmedn", "l1m3n"],
)
def test_objective_and_predict_bytes_are_pinned(tmp_path, capsys, flags, objective, digest):
    data, model, preds = tmp_path / "mixed.jsonl", tmp_path / "model.json", tmp_path / "p.csv"
    _write_mixed_dataset(data)
    assert main(["train", "--data", str(data), *flags, "--iters", "6", "--seed", "3",
                 "--out", str(model)]) == 0
    assert objective in capsys.readouterr().out
    assert main(["predict", "--model-file", str(model), "--data", str(data), "--out", str(preds)]) == 0
    assert hashlib.sha256(preds.read_bytes()).hexdigest() == digest


class TestCurveCommands:
    def test_shrinkage_curve_rows(self, tmp_path):
        out = tmp_path / "shrink.csv"
        code = main(
            ["shrinkage-curve", "--lambdas", "4,6", "--eta-grid=-1.8:1.8:25", "--out", str(out)]
        )
        assert code == 0
        rows = _read_csv(out)
        assert rows[0] == ["prior", "lambda", "eta", "posterior_mean"]
        gaussian = [r for r in rows[1:] if r[0] == "gaussian"]
        assert gaussian and all(r[2] == r[3] for r in gaussian)
        lap4 = {float(r[2]): float(r[3]) for r in rows[1:] if r[0] == "laplace" and r[1] == "4"}
        assert lap4[1.5] == pytest.approx(2 * 1.5 / (4 - 1.5**2), abs=1e-9)

    def test_eta_grid_touching_domain_is_an_error(self, tmp_path):
        out = tmp_path / "shrink.csv"
        assert (
            main(["shrinkage-curve", "--lambdas", "4", "--eta-grid=-2:2:5", "--out", str(out)])
            == 2
        )

    @pytest.mark.parametrize("grid", ["-inf:inf:3", "-1e308:1e308:3", "0:inf:3"])
    def test_eta_grid_past_the_float_range_is_one_error_line(self, tmp_path, grid):
        """An infinite end, or ends whose difference overflows, is one
        error line naming the flag, without numpy's warnings before it."""
        out = tmp_path / "s.csv"
        code, _, err, caught = _run_quietly(["shrinkage-curve", f"--eta-grid={grid}", f"--out={out}"])
        assert (code, caught, err.count("\n")) == (2, [], 1)
        assert err.startswith("error: --eta-grid ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--points", "0"], "error: --points must be an integer in [1, 2**59), got 0\n"),
            (["--lambdas", ""], "error: shrinkage-curve requires nonempty --lambdas"),
            (["--eta-grid", "0:1:2.5"], "error: --eta-grid must look like MIN:MAX:COUNT\n"),
            (["--eta-grid", "a:1:3"], "error: --eta-grid must look like MIN:MAX:COUNT\n"),
            (["--eta-grid", "0:1:x"], "error: --eta-grid must look like MIN:MAX:COUNT\n"),
        ],
        ids=["zero-points", "empty-lambdas", "eta-grid-fractional-count", "eta-grid-text-min",
             "eta-grid-text-count"],
    )
    def test_empty_grid_is_a_one_line_error(self, tmp_path, capsys, flags, message):
        assert main(["shrinkage-curve", *flags, "--out", str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["norm-ball", "--lambdas", "inf"],
             "error: --lambdas must be positive and finite, got inf"),
            (["norm-ball", "--lambdas", "4,nan"],
             "error: --lambdas must be positive and finite, got nan"),
            (["shrinkage-curve", "--lambdas", "inf"],
             "error: --lambdas must be positive and finite, got inf"),
            (["gen-synth", "--correlated", "--d-rel", "2", "--group-size", "2",
              "--noise-sd", "inf"], "error: --noise-sd must be finite, got inf"),
            (["norm-ball", "--lambdas", "1,1"], "error: --lambdas lists 1 twice"),
            (["shrinkage-curve", "--lambdas", "4,4.0"], "error: --lambdas lists 4 twice"),
        ],
        ids=["norm-ball-inf", "norm-ball-nan", "shrinkage-inf", "gen-synth-noise-inf",
             "norm-ball-repeat", "shrinkage-repeat"],
    )
    def test_non_finite_parameter_is_one_line(self, tmp_path, argv, message):
        code, _, err, caught = _run_quietly([*argv, "--out", str(tmp_path / "out")])
        assert (code, caught) == (2, [])
        assert err.startswith(message) and err.count("\n") == 1

    @settings(max_examples=40, deadline=None)
    @given(
        lambdas=st.lists(
            st.sampled_from([math.inf, math.nan, 5e-324, 1e308, 1e-300, 4.0]) | st.floats(),
            min_size=1,
            max_size=3,
        ),
        count=st.integers(-2, 8),
    )
    @example(lambdas=[5e-324], count=4)
    @example(lambdas=[1e308], count=8)
    def test_extreme_flags_exit_cleanly(self, tmp_path_factory, lambdas, count):
        """norm-ball and shrinkage-curve on any float lambdas and small or
        negative point counts: exit 0, or exit 2 with one ``error:`` line,
        and nothing else on stderr."""
        out = tmp_path_factory.getbasetemp() / "curve.csv"
        joined = ",".join(repr(lam) for lam in lambdas)
        for argv in (
            ["norm-ball", f"--lambdas={joined}", f"--angles={count}"],
            ["shrinkage-curve", f"--lambdas={joined}", f"--points={count}"],
        ):
            code, _, err, caught = _run_quietly([*argv, "--out", str(out)])
            _assert_clean_exit(code, err, caught)

    def test_norm_ball_rows(self, tmp_path):
        out = tmp_path / "ball.csv"
        assert main(["norm-ball", "--lambdas", "4", "--angles", "24", "--out", str(out)]) == 0
        rows = _read_csv(out)
        assert rows[0] == ["curve", "lambda", "w1", "w2", "level"]
        kinds = {row[0] for row in rows[1:]}
        assert kinds == {"kl", "l1", "l2"}
        from medn import kl_norm
        from medn.curves import norm_ball_level

        level = norm_ball_level(4.0)
        for row in rows[1:]:
            if row[0] == "kl":
                assert abs(kl_norm(np.array([float(row[2]), float(row[3])]), 4.0) - level) <= 1e-8


class TestPacBoundCommand:
    def test_prints_count_and_bound(self, tmp_path, capsys):
        out = tmp_path / "bound.csv"
        code = main(
            [
                "pac-bound", "--n", "100", "--y-card", "256", "--c", "1", "--gamma", "1",
                "--kl", "1", "--delta", "0.1", "--margin-rate", "0", "--out", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "m = 241" in printed
        rows = _read_csv(out)
        assert rows[0][-2:] == ["m", "bound"]
        assert float(rows[1][-1]) == pytest.approx(1.3041554627, abs=1e-9)

    def test_csv_columns_are_the_bound_inputs_then_m_and_bound(self, tmp_path):
        out = tmp_path / "bound.csv"
        assert main(["pac-bound", "--n", "100", "--y-card", "256", "--kl", "1", "--out", str(out)]) == 0
        assert _read_csv(out)[0] == [f.name for f in fields(BoundInputs)] + ["m", "bound"]

    def test_invalid_inputs_exit_nonzero(self):
        assert main(["pac-bound", "--n", "0", "--y-card", "4", "--kl", "1"]) == 2

    @pytest.mark.parametrize("flags", [["--c", "1e200"], ["--c", "1e150", "--gamma", "1e-10"]])
    def test_sample_count_overflow_is_a_one_line_error(self, capsys, flags):
        assert main(["pac-bound", "--n", "100", "--y-card", "4", "--kl", "1", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sample count m") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "n, c, gamma, delta, m",
        [
            (10**400, 1.0, 1.0, 0.1, 14770),
            (100, 1.0, 1.0, 1e-320, 107),
            (100, 1e-200, 1.0, 0.1, 1),
            (100, 1e-300, 1e-300, 0.1, 107),
        ],
        ids=["n-1e400", "delta-1e-320", "c-1e-200", "c-gamma-1e-300"],
    )
    def test_extreme_valid_flags_match_the_oracle(self, tmp_path, n, c, gamma, delta, m):
        """Valid input past the float range of a naive evaluation: 2n - 1
        overflows, (m + 1) / delta overflows, c**2 underflows, and c**2 and
        gamma**2 both underflow.  The oracle takes delta at its float value,
        which for 1e-320 is a subnormal 2.4e-4 relative off the decimal."""
        out = tmp_path / "bound.csv"
        code, printed, err, caught = _run_quietly(
            ["pac-bound", "--n", str(n), "--y-card", "4", "--kl", "1", "--c", repr(c),
             "--gamma", repr(gamma), "--delta", repr(delta), "--out", str(out)]
        )
        assert (code, err, caught) == (0, "", [])
        _, want_m, want = pac_bound_oracle(n, 4, c, gamma, 1.0, delta)
        assert want_m == m and f"m = {m}\n" in printed
        bound = float(_read_csv(out)[1][-1])
        assert bound == pytest.approx(float(want), rel=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 10**400),
        y_card=st.integers(2, 2**1024),
        c=st.floats(0.0, exclude_min=True, allow_infinity=False),
        gamma=st.floats(0.0, exclude_min=True, allow_infinity=False),
        kl=st.floats(0.0, allow_infinity=False),
        delta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    # n |Y|^2 / (kl + 1) = 1 + 1.1e-16, magnified by (c / gamma)^2 = 1e20
    @example(n=1, y_card=2, c=1e10, gamma=1.0, kl=2.9999999999999996, delta=0.1)
    def test_extreme_flags_give_the_oracle_bound_or_one_error_line(
        self, tmp_path_factory, n, y_card, c, gamma, kl, delta
    ):
        """Any n, |Y|, c, gamma, kl and delta the flags accept: the bound is
        within 1e-9 relative of the 50-digit oracle, or, only where m or
        m * kl is past the float range, one ``error:`` line."""
        out = tmp_path_factory.getbasetemp() / "bound.csv"
        code, _, err, caught = _run_quietly(
            ["pac-bound", f"--n={n}", f"--y-card={y_card}", f"--c={c!r}", f"--gamma={gamma!r}",
             f"--kl={kl!r}", f"--delta={delta!r}", "--out", str(out)]
        )
        _assert_clean_exit(code, err, caught)
        value, m, want = pac_bound_oracle(n, y_card, c, gamma, kl, delta)
        if code == 2:
            assert value > 1e307 or m * kl > 1e307, err
            return
        bound = float(_read_csv(out)[1][-1])
        assert bound == pytest.approx(float(want), rel=1e-9)

    def test_huge_label_set_cardinality(self, capsys):
        """|Y| = 2**1024 overflows a float; the bound is computed in log space
        and matches a 50-digit evaluation."""
        import mpmath

        y_card = 2**1024
        assert main(["pac-bound", "--n", "100", "--y-card", str(y_card), "--kl", "1"]) == 0
        printed = capsys.readouterr().out
        with mpmath.workdps(50):
            m = int(mpmath.ceil(16 * mpmath.log(100 * mpmath.mpf(y_card) ** 2 / 2)))
            tail = y_card * mpmath.e ** (-mpmath.mpf(m) / 32)
            slack = mpmath.sqrt(
                (m + mpmath.log(100) + 3 * mpmath.log((m + 1) / mpmath.mpf("0.1")) + 2) / 199
            )
            oracle = float(tail + slack)
        assert f"m = {m}\n" in printed
        bound = float(printed.split("bound = ")[1])
        assert math.isfinite(bound)
        assert bound == pytest.approx(oracle, abs=1e-9)


_GOOD_LINE = '{"x":[[1.0,0.0]],"y":[0]}'
_DEEP = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize(
    "target, line, content",
    [
        ("data", 3, '{"y":[0]}'),
        ("data", 3, '{"x":[[1.0,0.0]],'),
        ("data", 3, "[1,2]"),
        ("data", 3, '{"x":[[1.0],[1.0,0.0]],"y":[0,0]}'),
        ("data", 3, '{"x":[[1.0,0.0]],"y":[0,1]}'),
        ("data", 3, '{"x":[[1.0,0.0]],"y":[0.5]}'),
        ("data", 3, '{"x":[[1.0,0.0]],"y":[-1]}'),
        ("data", 1, '{"kind":"sequence-dataset","format":1,"d":"two","m":2}'),
        # numpy reads true as 1.0 and "2" as 2.0, and [0, true] as int64
        ("data", 3, '{"x":[[1.0,true]],"y":[0]}'),
        ("data", 3, '{"x":[[1.0,"2"]],"y":[0]}'),
        ("data", 3, '{"x":[[1.0,0.0],[0.0,1.0]],"y":[0,true]}'),
        ("data", 3, '{"x":[[1.0,0.0]],"y":["0"]}'),
        ("model", 1, {"weights": [0.0] * 7 + [True]}),
        ("model", 1, {"weights": [0.0] * 7 + ["1"]}),
        ("model", 1, {"var_diag": [1.0] * 7 + [False]}),
        ("model", 1, {"var_diag": ["1"] * 8}),
        ("model", 1, {"weights": None}),
        ("model", 1, {"weights": [float("nan")] * 8}),
        ("model", 1, {"weights": [0.0] * 7}),
        ("model", 1, {"weights": [[0.0] * 8]}),
        ("model", 1, {"var_diag": [0.0] * 8}),
        ("model", 1, {"var_diag": [float("nan")] * 8}),
        ("model", 1, {"d": 3}),
        ("model", 1, {"hyper": [1]}),
        ("model", 1, {"d": 4.7}),
        ("model", 1, {"d": "4"}),
        ("model", 1, {"m": 2.5}),
        ("model", 1, {"format": True}),
        ("data", 1, '{"kind":"sequence-dataset","format":1,"d":4.7,"m":2}'),
        ("data", 1, '{"kind":"sequence-dataset","format":1,"d":"4","m":2}'),
        ("data", 1, '{"kind":"sequence-dataset","format":1,"d":2,"m":2.5}'),
        ("data", 1, '{"kind":"sequence-dataset","format":true,"d":2,"m":2}'),
        pytest.param("data", 3, b'{"x":[[1.0,0.0]],"y":[0],"note":"\xff"}', id="data-invalid-utf8"),
        pytest.param("model", 1, b'{"kind":"lapmedn","hyper":{"note":"\xff"}}', id="model-invalid-utf8"),
        pytest.param("data", 3, b'{"x":' + _DEEP + b',"y":[0]}', id="data-deep-nesting"),
        pytest.param("model", 1, b'{"format":1,"kind":"lapmedn","d":2,"m":2,"weights":' + _DEEP + b"}",
                     id="model-deep-nesting"),
    ],
)
def test_malformed_input_fails_with_one_line_error(tmp_path, capsys, target, line, content):
    """A malformed dataset line or model file ends the command with exit
    code 2 and one ``error: path:line: ...`` line, never a traceback.  A
    bytes ``content`` is the raw line or model file."""
    spec = FeatureSpec(2, 2)
    data = tmp_path / "data.jsonl"
    write_dataset(data, [SequenceInstance([[1.0, 0.0]], [0])], spec)
    model = tmp_path / "model.json"
    write_model_file(
        model, ModelFile(kind="lapmedn", spec=spec, weights=np.zeros(spec.K),
                         var_diag=np.ones(spec.K), hyper={})
    )
    if target == "data":
        lines = data.read_bytes().splitlines() + [_GOOD_LINE.encode()]
        lines[line - 1] = content if isinstance(content, bytes) else content.encode()
        data.write_bytes(b"\n".join(lines) + b"\n")
        bad = data
    elif isinstance(content, bytes):
        model.write_bytes(content)
        bad = model
    else:
        payload = json.loads(model.read_text())
        payload.update(content)
        model.write_text(json.dumps(payload) + "\n")
        bad = model
    assert main(["eval", "--model-file", str(model), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:{line}: ")
    assert err.count("\n") == 1


def test_strings_and_booleans_beside_the_numbers_are_read(tmp_path):
    """Keys beyond "x" and "y" may hold any JSON value; only the numbers of
    "x" and "y" must be JSON numbers."""
    spec = FeatureSpec(2, 2)
    data = tmp_path / "data.jsonl"
    write_dataset(data, [SequenceInstance([[1.0, 0.0]], [0])], spec)
    lines = data.read_bytes().splitlines()
    lines.append(b'{"x":[[1.0,0.0],[0.5,2.0]],"y":[0,1],"note":"true \\" false","ok":true}')
    data.write_bytes(b"\n".join(lines) + b"\n")
    instances, _, _ = read_dataset(data)
    assert [inst.labels.tolist() for inst in instances] == [[0], [0, 1]]
    np.testing.assert_array_equal(instances[1].features, [[1.0, 0.0], [0.5, 2.0]])


@pytest.mark.parametrize(
    "command, cls, required",
    [("gen-synth", GeneratorConfig, ["--out", "x"]),
     ("pac-bound", BoundInputs, ["--n", "1", "--y-card", "2", "--kl", "0"])],
)
def test_each_field_has_a_flag_named_after_it(command, cls, required):
    """A command builds its library object from the flags whose dests are
    the object's field names, so each field needs one."""
    args = cli.build_parser().parse_args([command, *required])
    assert {f.name for f in fields(cls)} <= set(vars(args))


_PAC_BOUND = ["pac-bound", "--n", "10", "--y-card", "4", "--kl", "1"]
@pytest.mark.parametrize(
    "argv",
    [["train", "--model", "m3n", "--c", "1"], ["train", "--model", "m3n"],
     ["cv", "--folds", "2"]],
    ids=["train", "train-default-c", "cv"],
)
def test_each_config_field_names_a_flag_of_its_command(capsys, argv):
    """An error about any field of a training config names a flag that the
    command has, the default --c's included."""
    names = [f.name for cls in (SubgradConfig, LaplaceConfig) for f in fields(cls)]
    args = cli.build_parser().parse_args([*argv, "--data", "d", "--out", "o"])
    with pytest.raises(SystemExit):
        main([argv[0], "--help"])
    flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    for name in names:
        if name != "inner":
            text = cli._error_text(ValueError(f"{name} is bad"), args)
            assert text.split(" ")[0] in flags, (name, text)


def test_error_text_renames_only_a_leading_field_of_a_value_error():
    args = cli.build_parser().parse_args(["train", "--model", "m3n", "--data", "d", "--out", "o"])
    assert cli._error_text(ValueError("seed must be 1"), args) == "--seed must be 1"
    assert cli._error_text(ValueError("C must be finite"), args) == (
        "--beta (times 200, the default --c) must be finite"
    )
    assert cli._error_text(RuntimeError("seed must be 1"), args) == "seed must be 1"
    assert cli._error_text(OSError("seed must be 1"), args) == "seed must be 1"
    assert cli._error_text(ValueError("need d >= 1"), args) == "need d >= 1"
    assert cli._error_text(ValueError("seed"), args) == "seed"


_TRAIN = ["train", "--data", "missing.jsonl", "--model"]
_CV = ["cv", "--data", "missing.jsonl", "--folds", "2", "--models", "m3n,lapmedn,l1m3n"]
# Each single-field check of GeneratorConfig, BoundInputs and the training
# configs of train and cv, and of the other one-flag checks, as a command line
# that fails it (argparse keeps the last value of a repeated flag; the default
# d_rel of 5 is not divisible by 2), and the flag its error names.  train and
# cv check every config before they read the data.
_FIELD_ERRORS = [
    (["gen-synth", "--d", "-1"], "--d"),
    (["gen-synth", "--d-rel", "-1"], "--d-rel"),
    (["gen-synth", "--d-rel", "21"], "--d-rel"),
    (["gen-synth", "--length", "-1"], "--length"),
    (["gen-synth", "--L", "-2"], "--length"),
    (["gen-synth", "--m", "-1"], "--m"),
    (["gen-synth", "--d", "0"], "--d"),
    (["gen-synth", "--length", "0"], "--length"),
    (["gen-synth", "--m", "1"], "--m"),
    (["gen-synth", "--n", "-1"], "--n"),
    (["gen-synth", "--gibbs-iters", "-1"], "--gibbs-iters"),
    (["gen-synth", "--gibbs-iters", "0"], "--gibbs-iters"),
    (["gen-synth", "--group-size", "-1"], "--group-size"),
    (["gen-synth", "--correlated", "--group-size", "2"], "--group-size"),
    (["gen-synth", "--noise-sd", "nan"], "--noise-sd"),
    (["gen-synth", "--correlated", "--noise-sd", "0"], "--noise-sd"),
    # Finite, but the correlated noise it scales passes the float range.
    (["gen-synth", "--correlated", "--group-size", "1", "--noise-sd", "1e308"], "--noise-sd"),
    # Finite features, but their scores pass the float range.
    (["gen-synth", "--correlated", "--group-size", "1", "--noise-sd", "3e307"], "--noise-sd"),
    (["gen-synth", "--seed", "-1"], "--seed"),
    ([*_PAC_BOUND, "--n", "0"], "--n"),
    ([*_PAC_BOUND, "--y-card", "1"], "--y-card"),
    ([*_PAC_BOUND, "--c", "0"], "--c"),
    ([*_PAC_BOUND, "--gamma", "inf"], "--gamma"),
    ([*_PAC_BOUND, "--kl", "-1"], "--kl"),
    ([*_PAC_BOUND, "--delta", "1"], "--delta"),
    ([*_PAC_BOUND, "--margin-rate", "nan"], "--margin-rate"),
    ([*_TRAIN, "m3n", "--beta", "0"], "--beta"),
    # m3n's default C is 200 * beta, which overflows.
    ([*_TRAIN, "m3n", "--beta", "1e307"], "--beta"),
    ([*_TRAIN, "m3n", "--c", "-1"], "--c"),
    ([*_TRAIN, "m3n", "--iters", "0"], "--iters"),
    ([*_TRAIN, "lapmedn", "--lambda", "0"], "--lambda"),
    ([*_TRAIN, "lapmedn", "--lambda", "4", "--outer-iters", "1"], "--outer-iters"),
    ([*_TRAIN, "l1m3n", "--radius", "0"], "--radius"),
    ([*_TRAIN, "m3n", "--seed", "-1"], "--seed"),
    ([*_CV, "--betas", "1,0"], "--betas"),
    ([*_CV, "--c", "-1"], "--c"),
    ([*_CV, "--iters", "0"], "--iters"),
    ([*_CV, "--lambdas", "4,inf"], "--lambdas"),
    ([*_CV, "--outer-iters", "1"], "--outer-iters"),
    ([*_CV, "--radii", "nan"], "--radii"),
    ([*_CV, "--seed", "-1"], "--seed"),
    ([*_CV, "--folds", "1"], "--folds"),
    (["shrinkage-curve", "--points", "0"], "--points"),
    (["shrinkage-curve", "--lambdas", "0"], "--lambdas"),
    (["norm-ball", "--angles", "-1"], "--angles"),
]


@pytest.mark.parametrize(
    "argv, flag",
    _FIELD_ERRORS,
    ids=[" ".join([argv[0], *argv[-2:]]) for argv, _ in _FIELD_ERRORS],
)
def test_single_field_error_names_its_flag(tmp_path, argv, flag):
    """A check of one field of a command's config fails with one error line
    that names the field's flag, where the library names the field; nothing
    is written."""
    out = tmp_path / "out.csv"
    code, _, err, caught = _run_quietly([*argv, "--out", str(out)])
    assert (code, caught) == (2, [])
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1
    assert not out.exists()


# Address space for one command: room for the interpreter and numpy to
# start, far below any allocation below.
_ADDRESS_SPACE = 4_000_000_000


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE, _ADDRESS_SPACE))


def _run_limited(flags, out):
    """The stderr of ``medn <flags> --out <out>`` run in a child process
    whose address space is limited, so that an allocation fails at once
    instead of taking the machine's memory; it must exit 2, print one line
    and write nothing."""
    proc = subprocess.run(
        [sys.executable, "-m", "medn.cli", *flags, "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert not out.exists()
    return proc.stderr


# The first count past every array, and the last count below it.
_HUGE = str(2**59)
_LARGEST = str(2**59 - 1)


@pytest.mark.parametrize(
    "flags",
    [
        ["shrinkage-curve", "--points", "1000000000000"],
        ["shrinkage-curve", "--eta-grid", "0:1:1000000000000"],
        ["norm-ball", "--angles", "1000000000000"],
        ["gen-synth", "--length", "1000000000000", "--n", "1"],
        ["gen-synth", "--length", "100000000", "--n", "1"],
        ["shrinkage-curve", "--points", _LARGEST],
        ["shrinkage-curve", "--eta-grid", f"0:1:{_LARGEST}"],
        ["norm-ball", "--angles", _LARGEST],
        ["gen-synth", "--n", "1000000000"],
    ],
)
def test_out_of_memory_is_one_error_line(tmp_path, flags):
    """Valid sizes that the machine cannot hold end in exit 2 and one
    ``error:`` line, not numpy's traceback, and write no output."""
    assert _run_limited(flags, tmp_path / "out.txt").startswith("error: out of memory")


_HUGE_COUNTS = [
    (["gen-synth", "--d", "10000000000000000000000"], "--d"),
    (["gen-synth", "--n", "10000000000000000000000"], "--n"),
    (["gen-synth", "--length", "10000000000000000000000"], "--length"),
    (["shrinkage-curve", "--points", "10000000000000000000000"], "--points"),
    (["norm-ball", "--angles", "10000000000000000000000"], "--angles"),
    (["gen-synth", "--n", _HUGE], "--n"),
    (["shrinkage-curve", "--points", _HUGE], "--points"),
    (["shrinkage-curve", "--eta-grid", f"0:1:{_HUGE}"], "--eta-grid"),
    (["norm-ball", "--angles", _HUGE], "--angles"),
    # Each count below 2**59, their product past it.
    (["gen-synth", "--length", _LARGEST, "--n", "1"], "--length"),
    (["gen-synth", "--d", _LARGEST, "--n", "1"], "--d"),
    (["gen-synth", "--m", _LARGEST, "--n", "1"], "--m"),
]


@pytest.mark.parametrize(
    "flags, flag", _HUGE_COUNTS, ids=[" ".join(flags) for flags, _ in _HUGE_COUNTS]
)
def test_count_past_every_array_names_its_flag(tmp_path, flags, flag):
    """A count that no numpy array can hold is rejected by its check, in a
    message that names its flag, where numpy's own error named none (and
    gen-synth's instance loop kept allocating): before any array is sized."""
    assert _run_limited(flags, tmp_path / "out.txt").startswith(f"error: {flag} ")


def test_bare_memory_error_has_its_own_text(monkeypatch, capsys):
    def out_of_memory(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_pac_bound", out_of_memory)
    assert main(["pac-bound", "--n", "1", "--y-card", "2", "--kl", "0"]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train", "--model", "m3n", "--data", "d.jsonl", "--iters", "abc", "--out", "x.json"],
         "error: argument --iters: invalid int value: 'abc'"),
        (["pac-bound", "--n", "10", "--y-card", "1e400", "--kl", "1"],
         "error: argument --y-card: invalid int value: '1e400'"),
        (["cv", "--data", "x", "--folds", "2", "--betas", "1,a", "--out", "o"],
         "error: argument --betas: not a number: 'a'"),
        (["train", "--data", "x"], "error: the following arguments are required: --model, --out"),
    ],
    ids=["iters-text", "y-card-float", "betas-entry", "missing-flags"],
)
def test_bad_command_line_is_one_error_line(tmp_path, monkeypatch, capsys, argv, message):
    """A command line that argparse rejects ends as every other failure
    does: exit 2 and one ``error:`` line, with no usage block before it,
    and no output file."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert capsys.readouterr().err == message + "\n"
    assert not list(tmp_path.iterdir())


# Command lines that name no subcommand, then each subcommand's help, then
# command lines that argparse rejects: one bad flag per subcommand, and
# tokens past the subcommand that it does not know.
_PARSER_ARGVS = [
    [], ["--help"], ["-h"], ["-h", "train"], ["bogus"], ["tra", "--model", "m3n"],
    *([command, "--help"] for command in cli._COMMANDS),
    ["gen-synth", "--d", "x", "--out", "o"],
    ["train", "--model", "m3n", "--data", "d.jsonl", "--iters", "abc", "--out", "x.json"],
    ["predict", "--model-file", "m", "--data", "d", "--out", "o", "--bogus"],
    ["eval", "--model-file", "m"],
    ["cv", "--data", "x", "--folds", "2", "--betas", "1,a", "--out", "o"],
    ["shrinkage-curve", "--points", "1.5", "--out", "o"],
    ["norm-ball", "--angles", "x", "--out", "o"],
    ["pac-bound", "--n", "10", "--y-card", "1e400", "--kl", "1"],
    ["train", "--data", "x"],
    ["train", "--model", "svm", "--data", "d", "--out", "o"],
    ["cv", "--data", "x", "--folds", "2", "--out", "o", "extra"],
    ["pac-bound", "--n", "10", "--y-card", "4", "--kl", "1"],
    ["cv", "--data", "d", "--folds", "5", "--models", "m3n,l1m3n", "--out", "o"],
]


def _parse(parser, argv):
    """Exit code, stdout and stderr of one ``parse_args`` call, and the
    parsed flags (None where it exits)."""
    out, err = io.StringIO(), io.StringIO()
    code, flags = None, None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            flags = vars(parser.parse_args(argv))
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue(), err.getvalue(), flags


@pytest.mark.parametrize("argv", _PARSER_ARGVS, ids=[" ".join(argv) for argv in _PARSER_ARGVS])
def test_the_named_subcommands_parser_parses_as_the_whole_parser(argv):
    """A run builds the parser of the subcommand it names alone; every
    command line gets the help, the error, the exit code and the flags
    that the parser of all subcommands gives it."""
    alone = _parse(cli.build_parser(argv[0] if argv else None), argv)
    assert alone == _parse(cli.build_parser(), argv)
    assert alone[1] or alone[2] or alone[3]


def test_a_subcommands_parser_holds_that_subcommand_alone():
    def usage(command):
        # One line, however wide the terminal.
        return " ".join(cli.build_parser(command).format_usage().split())

    assert usage("cv") == "usage: medn [-h] {cv} ..."
    whole = "{" + ",".join(cli._COMMANDS) + "}"
    for command in (None, "-h", "bogus"):
        assert usage(command) == f"usage: medn [-h] {whole} ..."


def test_help_is_argparse_usage(capsys):
    """``--help`` still prints argparse's usage and exits 0."""
    with pytest.raises(SystemExit) as exit_:
        main(["cv", "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: medn cv [-h] --data DATA --folds FOLDS")


@pytest.mark.parametrize("command", ["train", "cv"])
def test_train_and_cv_share_the_help_of_their_shared_flags(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for shown in ("--c C slack penalty (default 200*beta for m3n, 1 otherwise)",
                  "--iters ITERS epochs per subgradient solve",
                  "--outer-iters OUTER_ITERS outer loop bound T (lapmedn, default 4)"):
        assert shown in text
