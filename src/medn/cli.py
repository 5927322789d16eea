"""Command-line front end.

Subcommands: gen-synth, train, predict, eval, cv, shrinkage-curve,
norm-ball, pac-bound.  Every command is deterministic given its flags and
seed; all tabular output is CSV with a header row, and files are written
with "\\n" newlines so reruns are byte-identical.

``train`` and ``cv`` share one training entry point, ``_train_grid``:
``train`` gives it one row, and ``cv`` builds every (family, fold, config)
row up front, which checks all of them before training starts, and trains
them together: T - 1 lockstep kernel calls for the whole sweep.  It then
evaluates each fold's rows in one decode of the other folds.
"""

import argparse
import csv
import math
import sys
import time
from collections import namedtuple
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .bounds import BoundInputs, margin_sample_count, pac_bound
from .chain import ChainModel, FeatureSpec, decode_instances
from .curves import (
    identity_points,
    l1_unit_ball,
    l2_unit_ball,
    norm_ball_boundary,
    norm_ball_level,
    shrinkage_eta_grid,
    shrinkage_points,
)
from .dataio import ModelFile, read_dataset, read_model_file, write_dataset, write_model_file
from .metrics import evaluate_weight_rows, mean_std
from .models import LaplaceConfig, train_laplace_grid
from .optimize import SubgradConfig, structured_hinge_objective
from .synth import GeneratorConfig, gen_dataset

__all__ = ["main", "build_parser"]

MODELS = ("m3n", "lapmedn", "l1m3n")

# Default hyperparameter grids for cross-validation sweeps.
DEFAULT_LAMBDA_GRID = (9.0, 16.0, 25.0, 36.0, 49.0, 64.0)
DEFAULT_BETA_GRID = (1.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0)
DEFAULT_RADIUS_GRID = (10.0,)

EVAL_COLUMNS = ["model", "dataset", "n_train", "per_label_err", "seq_err", "seed"]
CV_COLUMNS = [
    "model",
    "lambda",
    "beta",
    "radius",
    "fold",
    "n_train",
    "per_label_err",
    "seq_err",
    "seed",
]


def _fmt(value) -> str:
    """Canonical text for a float CSV field."""
    return format(float(value), ".12g")


def _write_csv(path, columns, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


# ----------------------------------------------------------------------
# gen-synth


def _cmd_gen_synth(args) -> int:
    cfg = GeneratorConfig(
        d=args.d,
        d_rel=args.d_rel,
        L=args.length,
        m=args.m,
        n_samples=args.n,
        gibbs_iters=args.gibbs_iters,
        correlated=args.correlated,
        group_size=args.group_size,
        noise_sd=args.noise_sd,
        seed=args.seed,
    )
    dataset = gen_dataset(cfg)
    spec = FeatureSpec(cfg.d, cfg.m)
    meta = {
        "generator": asdict(cfg),
        "relevant": dataset.crf.relevant.tolist(),
    }
    write_dataset(args.out, dataset.instances, spec, meta=meta)
    weights = dataset.crf.model.weights
    state_norm = float(np.linalg.norm(spec.state_view(weights)))
    trans_norm = float(np.linalg.norm(spec.transition_view(weights)))
    print(f"wrote {cfg.n_samples} instances to {args.out}")
    print(
        f"true model: relevant features {dataset.crf.relevant.tolist()}, "
        f"state weight norm {state_norm:.4f}, transition weight norm {trans_norm:.4f}"
    )
    if dataset.instances:
        labels = np.concatenate([inst.labels for inst in dataset.instances])
        freqs = [float(np.mean(labels == c)) for c in range(cfg.m)]
        print("label frequencies: " + ", ".join(f"{f:.3f}" for f in freqs))
    return 0


# ----------------------------------------------------------------------
# train


def _check_betas(flag, betas):
    for beta in betas:
        if not 0.0 < beta < math.inf:
            raise ValueError(f"{flag} must be positive and finite, got {beta:g}")


# One training of a sweep: ``lam`` is None but for lapmedn and ``radius``
# None but for l1m3n; it trains on ``instances[i] for i in subset``.
TrainingRow = namedtuple("TrainingRow", "model lam beta radius subset seed")


def _train_grid(instances, spec, rows, *, c, iters, outer_iters):
    """Train every :class:`TrainingRow` of ``rows`` in lockstep.

    Every row's config is built, and so checked, before training starts.
    The lapmedn rows run every round of :func:`train_laplace_grid`; the
    m3n and l1m3n rows ride in its first round's kernel call.  Returns the
    (B, K) weights, the (B, K) posterior variances (1 for m3n, and for
    l1m3n, which has none) and each row's slack penalty C, which defaults
    to 200 * beta for m3n and to 1 otherwise.
    """
    cfgs = []
    for row in rows:
        c_row = c if c is not None else 200.0 * row.beta if row.model == "m3n" else 1.0
        cfgs.append(SubgradConfig(beta=row.beta, iterations=iters, C=c_row, seed=row.seed))
    family = {name: [b for b, row in enumerate(rows) if row.model == name] for name in MODELS}
    lapmedn, riders = family["lapmedn"], family["m3n"] + family["l1m3n"]
    lcfgs = [
        LaplaceConfig(lam=rows[b].lam, inner=cfgs[b], C=cfgs[b].C, outer_iters=outer_iters)
        for b in lapmedn
    ]
    mean, var, ridden = train_laplace_grid(
        instances,
        spec,
        lcfgs,
        subsets=[rows[b].subset for b in lapmedn],
        riders=(
            [cfgs[b] for b in riders],
            [rows[b].subset for b in riders],
            [rows[b].radius for b in family["l1m3n"]],
        ),
    )
    weights, variances = np.empty((len(rows), spec.K)), np.ones((len(rows), spec.K))
    weights[lapmedn], variances[lapmedn], weights[riders] = mean, var, ridden
    return weights, variances, [cfg.C for cfg in cfgs]


def _cmd_train(args) -> int:
    if args.model == "lapmedn" and args.lam is None:
        raise ValueError("lapmedn requires --lambda")
    if args.model == "l1m3n" and args.radius is None:
        raise ValueError("l1m3n requires --radius")
    _check_betas("--beta", [args.beta])
    instances, spec, _ = read_dataset(args.data)
    started = time.perf_counter()
    row = TrainingRow(
        args.model, args.lam, args.beta, args.radius, np.arange(len(instances)), args.seed
    )
    weights, variances, (c_eff,) = _train_grid(
        instances, spec, [row], c=args.c, iters=args.iters, outer_iters=args.outer_iters
    )
    weights = weights[0]
    var_diag = None if args.model == "l1m3n" else variances[0]
    objective = structured_hinge_objective(
        instances,
        ChainModel(spec, weights),
        c_eff,
        inv_diag=None if var_diag is None else 1.0 / var_diag,
    )
    elapsed = time.perf_counter() - started
    hyper = {"lambda": args.lam} if args.model == "lapmedn" else {}
    if args.model == "l1m3n":
        hyper["radius"] = args.radius
    hyper.update(beta=args.beta, c=c_eff, iters=args.iters)
    if args.model == "lapmedn":
        hyper["outer_iters"] = args.outer_iters
    hyper.update(seed=args.seed, n_train=len(instances))
    write_model_file(
        args.out,
        ModelFile(kind=args.model, spec=spec, weights=weights, var_diag=var_diag, hyper=hyper),
    )
    print(f"trained {args.model} on {len(instances)} instances in {elapsed:.2f} s")
    print(f"final objective: {objective:.6f}")
    print(f"model written to {args.out}")
    return 0


# ----------------------------------------------------------------------
# predict / eval


def _check_compatible(model: ModelFile, spec: FeatureSpec):
    if model.spec != spec:
        raise ValueError(
            f"model dimensions (d={model.spec.d}, m={model.spec.m}) do not match "
            f"dataset (d={spec.d}, m={spec.m})"
        )


def _cmd_predict(args) -> int:
    model = read_model_file(args.model_file)
    instances, spec, _ = read_dataset(args.data)
    _check_compatible(model, spec)
    preds = decode_instances(spec, model.weights[None], instances)
    rows = [[i, " ".join(str(int(v)) for v in pred[0])] for i, pred in enumerate(preds)]
    _write_csv(args.out, ["index", "y_pred"], rows)
    print(f"wrote predictions for {len(rows)} instances to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    model = read_model_file(args.model_file)
    instances, spec, _ = read_dataset(args.data)
    _check_compatible(model, spec)
    report = evaluate_weight_rows(spec, model.weights[None], instances)[0]
    row = [
        model.kind,
        Path(args.data).name,
        model.hyper.get("n_train", ""),
        _fmt(report.per_label_err),
        _fmt(report.seq_err),
        model.hyper.get("seed", ""),
    ]
    if args.out:
        _write_csv(args.out, EVAL_COLUMNS, [row])
    print(
        f"{model.kind}: per-label error {report.per_label_err:.4f}, "
        f"sequence error {report.seq_err:.4f} "
        f"({report.n_sequences} sequences, {report.n_positions} positions)"
    )
    return 0


# ----------------------------------------------------------------------
# cv


def _hyper_grid(model_name, lambdas, betas, radii):
    """Hyperparameter combinations (lam, beta, radius) swept for one model family."""
    if model_name == "m3n":
        grid, flags = [(None, beta, None) for beta in betas], "--betas"
    elif model_name == "lapmedn":
        grid = [(lam, beta, None) for lam in lambdas for beta in betas]
        flags = "--lambdas and --betas"
    elif model_name == "l1m3n":
        grid = [(None, beta, radius) for radius in radii for beta in betas]
        flags = "--radii and --betas"
    else:
        raise ValueError(f"unknown model {model_name!r}")
    if not grid:
        raise ValueError(f"{model_name} requires nonempty {flags}")
    return grid


def _cmd_cv(args) -> int:
    instances, spec, _ = read_dataset(args.data)
    n = len(instances)
    if args.folds < 2:
        raise ValueError("need at least 2 folds")
    if args.folds > n:
        raise ValueError("more folds than instances")
    models = [name.strip() for name in args.models.split(",") if name.strip()]
    grids = [_hyper_grid(name, args.lambdas, args.betas, args.radii) for name in models]
    _check_betas("--betas", args.betas)
    rng = np.random.default_rng(args.seed)
    folds = np.array_split(rng.permutation(n), args.folds)
    # Inverted split: every (family, fold, config) row trains on its single
    # fold with seed + fold, all of them in one lockstep training, and is
    # tested on the other folds.
    keys = [
        (k, f, g)
        for k, grid in enumerate(grids)
        for f in range(len(folds))
        for g in range(len(grid))
    ]
    rows = [TrainingRow(models[k], *grids[k][g], folds[f], args.seed + f) for k, f, g in keys]
    weights, _, _ = _train_grid(
        instances, spec, rows, c=args.c, iters=args.iters, outer_iters=args.outer_iters
    )
    reports = {}
    for f, fold in enumerate(folds):
        held = set(fold.tolist())
        test_set = [instances[i] for i in range(n) if i not in held]
        tested = [b for b, key in enumerate(keys) if key[1] == f]
        for b, report in zip(tested, evaluate_weight_rows(spec, weights[tested], test_set)):
            reports[keys[b]] = report
    rows = []
    for k, (name, grid) in enumerate(zip(models, grids)):
        for g, (lam, beta, radius) in enumerate(grid):
            config = [
                name,
                "" if lam is None else _fmt(lam),
                _fmt(beta),
                "" if radius is None else _fmt(radius),
            ]
            per_fold = [reports[k, f, g] for f in range(len(folds))]
            for fold_idx, (fold, report) in enumerate(zip(folds, per_fold)):
                rows.append(
                    config
                    + [
                        fold_idx,
                        len(fold),
                        _fmt(report.per_label_err),
                        _fmt(report.seq_err),
                        args.seed + fold_idx,
                    ]
                )
            label_stats = mean_std([r.per_label_err for r in per_fold])
            seq_stats = mean_std([r.seq_err for r in per_fold])
            for stat_name, label_stat, seq_stat in zip(("mean", "std"), label_stats, seq_stats):
                rows.append(config + [stat_name, "", _fmt(label_stat), _fmt(seq_stat), args.seed])
    _write_csv(args.out, CV_COLUMNS, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


# ----------------------------------------------------------------------
# curves


def _parse_eta_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("--eta-grid must look like MIN:MAX:COUNT")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 2 or not lo < hi:
        raise ValueError("--eta-grid needs MIN < MAX and COUNT >= 2")
    return np.linspace(lo, hi, count)


def _cmd_shrinkage_curve(args) -> int:
    if not args.lambdas:
        raise ValueError("shrinkage-curve requires nonempty --lambdas")
    rows = []
    explicit = _parse_eta_grid(args.eta_grid) if args.eta_grid else None
    widest = None
    for lam in args.lambdas:
        etas = explicit if explicit is not None else shrinkage_eta_grid(lam, args.points)
        for point in shrinkage_points(lam, etas):
            rows.append(["laplace", _fmt(lam), _fmt(point.x), _fmt(point.y)])
        if widest is None or etas[-1] > widest[-1]:
            widest = etas
    for point in identity_points(widest):
        rows.append(["gaussian", "", _fmt(point.x), _fmt(point.y)])
    _write_csv(args.out, ["prior", "lambda", "eta", "posterior_mean"], rows)
    print(f"wrote {len(rows)} curve points to {args.out}")
    return 0


def _cmd_norm_ball(args) -> int:
    if args.angles < 0:
        raise ValueError(f"--angles must be nonnegative, got {args.angles}")
    rows = []
    for lam in args.lambdas:
        level = norm_ball_level(lam)
        for w1, w2 in norm_ball_boundary(lam, args.angles):
            rows.append(["kl", _fmt(lam), _fmt(w1), _fmt(w2), _fmt(level)])
    for w1, w2 in l1_unit_ball(args.angles):
        rows.append(["l1", "", _fmt(w1), _fmt(w2), _fmt(1.0)])
    for w1, w2 in l2_unit_ball(args.angles):
        rows.append(["l2", "", _fmt(w1), _fmt(w2), _fmt(1.0)])
    _write_csv(args.out, ["curve", "lambda", "w1", "w2", "level"], rows)
    print(f"wrote {len(rows)} boundary points to {args.out}")
    return 0


# ----------------------------------------------------------------------
# pac-bound


def _cmd_pac_bound(args) -> int:
    inputs = BoundInputs(
        n=args.n,
        y_card=args.y_card,
        c=args.c,
        gamma=args.gamma,
        kl=args.kl,
        delta=args.delta,
        empirical_margin_rate=args.margin_rate,
    )
    m = margin_sample_count(inputs)
    bound = pac_bound(inputs)
    print(f"m = {m}")
    print(f"bound = {bound:.10f}")
    if args.out:
        _write_csv(
            args.out,
            ["n", "y_card", "c", "gamma", "kl", "delta", "empirical_margin_rate", "m", "bound"],
            [
                [
                    args.n,
                    args.y_card,
                    _fmt(args.c),
                    _fmt(args.gamma),
                    _fmt(args.kl),
                    _fmt(args.delta),
                    _fmt(args.margin_rate),
                    m,
                    _fmt(bound),
                ]
            ],
        )
    return 0


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medn", description="Max-margin chain models: data, training, analysis."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic dataset file")
    p.add_argument("--d", type=int, default=20, help="input features per position")
    p.add_argument("--d-rel", type=int, default=5, help="relevant input features")
    p.add_argument("--length", "--L", dest="length", type=int, default=8, help="sequence length")
    p.add_argument("--m", type=int, default=2, help="label arity")
    p.add_argument("--n", type=int, default=250, help="number of instances")
    p.add_argument("--gibbs-iters", type=int, default=500, help="labeling sweeps per instance")
    p.add_argument("--correlated", action="store_true", help="group-correlated relevant features")
    p.add_argument("--group-size", type=int, default=1)
    p.add_argument("--noise-sd", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_synth)

    p = sub.add_parser("train", help="train a model and write a model file")
    p.add_argument("--model", choices=MODELS, required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="prior scale (lapmedn)")
    p.add_argument("--beta", type=float, default=1.0, help="step-size scale")
    p.add_argument("--c", type=float, default=None, help="slack penalty (default 200*beta for m3n, 1 otherwise)")
    p.add_argument("--iters", type=int, default=50, help="epochs per subgradient solve")
    p.add_argument("--outer-iters", type=int, default=4, help="outer loop bound T (lapmedn)")
    p.add_argument("--radius", type=float, default=None, help="L1 ball radius (l1m3n)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="decode a dataset under a trained model")
    p.add_argument("--model-file", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("eval", help="error rates of a trained model on a dataset")
    p.add_argument("--model-file", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None, help="optional CSV destination")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("cv", help="inverted cross-validation with hyperparameter sweeps")
    p.add_argument("--data", required=True)
    p.add_argument("--folds", type=int, required=True)
    p.add_argument("--models", default="m3n,lapmedn", help="comma-separated model list")
    p.add_argument("--lambdas", type=_float_list, default=list(DEFAULT_LAMBDA_GRID))
    p.add_argument("--betas", type=_float_list, default=list(DEFAULT_BETA_GRID))
    p.add_argument("--radii", type=_float_list, default=list(DEFAULT_RADIUS_GRID))
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--iters", type=int, default=50)
    p.add_argument("--outer-iters", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_cv)

    p = sub.add_parser("shrinkage-curve", help="posterior-mean shrinkage curves as CSV")
    p.add_argument("--lambdas", type=_float_list, default=[4.0, 6.0])
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--eta-grid", default=None, help="explicit grid MIN:MAX:COUNT")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_shrinkage_curve)

    p = sub.add_parser("norm-ball", help="penalty-ball boundaries as CSV")
    p.add_argument("--lambdas", type=_float_list, default=[1.0, 4.0, 16.0])
    p.add_argument("--angles", type=int, default=360)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_norm_ball)

    p = sub.add_parser("pac-bound", help="evaluate the generalization bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--y-card", type=int, required=True)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--kl", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--margin-rate", type=float, default=0.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_pac_bound)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
