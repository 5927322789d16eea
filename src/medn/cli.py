"""Command-line front end.

Subcommands: gen-synth, train, predict, eval, cv, shrinkage-curve,
norm-ball, pac-bound.  Every command is deterministic given its flags and
seed; all tabular output is CSV with a header row, and files are written
with "\\n" newlines so reruns are byte-identical.

``train`` and ``cv`` reject a flag that only a family they do not train
reads (``FAMILY_FLAGS``), and ``cv`` a family or a sweep value listed
twice, before any data is read.  They build the config of each training
row with one helper, ``_config``; a config checks itself when it is
built, so every row is checked before training starts.  One
:func:`medn.models.train_laplace_grid` call trains them all: T - 1
lockstep kernel calls for the whole ``cv`` sweep, which then evaluates
each fold's rows in one decode of the other folds.
``train`` reports the objective under the trained penalty 1 / var, and
for l1m3n the hinge total alone.
"""

import argparse
import csv
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .bounds import BoundInputs, margin_sample_count, pac_bound
from .chain import FeatureSpec, decode_instances
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
from .optimize import SubgradConfig, _check_seed, structured_hinge_objective
from .synth import GeneratorConfig, gen_dataset

__all__ = ["main", "build_parser"]

MODELS = ("m3n", "lapmedn", "l1m3n")

# Default hyperparameter grids for cross-validation sweeps.
DEFAULT_LAMBDA_GRID = (9.0, 16.0, 25.0, 36.0, 49.0, 64.0)
DEFAULT_BETA_GRID = (1.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0)
DEFAULT_RADIUS_GRID = (10.0,)
DEFAULT_OUTER_ITERS = 4

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
    weights = dataset.crf.weights
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


def _check_distinct(flag, values):
    """Rejects a sweep value listed twice; values compare as floats, so 1
    and 1.0 are one value."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{flag} lists {value:g} twice")


# The flags that only one family reads, by their argparse dest: train's
# single values and cv's sweeps.
FAMILY_FLAGS = {"lam": ("--lambda", "lapmedn"), "lambdas": ("--lambdas", "lapmedn"),
                "radius": ("--radius", "l1m3n"), "radii": ("--radii", "l1m3n"),
                "outer_iters": ("--outer-iters", "lapmedn")}


def _families(args) -> list[str]:
    """The families that a ``train`` or ``cv`` command trains.

    Rejects an unknown or repeated family in ``cv``'s ``--models``, and a
    family-only flag given when none of the families reads it.
    """
    if args.command == "train":
        models = [args.model]
    else:
        models = [name.strip() for name in args.models.split(",") if name.strip()]
        if not models:
            raise ValueError("cv requires nonempty --models")
        for name in models:
            if name not in MODELS:
                raise ValueError(f"unknown model {name!r}")
            if models.count(name) > 1:
                raise ValueError(f"--models lists {name} twice")
    for dest, (flag, family) in FAMILY_FLAGS.items():
        if getattr(args, dest, None) is not None and family not in models:
            raise ValueError(f"{flag} is for {family} only, not {','.join(models)}")
    return models


def _config(model, lam, beta, radius, seed, args):
    """The checked config of one training row: a :class:`LaplaceConfig` for
    lapmedn, else a :class:`SubgradConfig`, with ``radius`` for l1m3n
    (None otherwise).  The slack penalty C defaults to 200 * beta for m3n
    and to 1 otherwise."""
    c = args.c if args.c is not None else 200.0 * beta if model == "m3n" else 1.0
    cfg = SubgradConfig(beta, args.iters, c, seed=seed, radius=radius)
    if model != "lapmedn":
        return cfg
    outer_iters = DEFAULT_OUTER_ITERS if args.outer_iters is None else args.outer_iters
    return LaplaceConfig(lam, cfg, outer_iters)


def _cmd_train(args) -> int:
    _families(args)
    if args.model == "lapmedn" and args.lam is None:
        raise ValueError("lapmedn requires --lambda")
    if args.model == "l1m3n" and args.radius is None:
        raise ValueError("l1m3n requires --radius")
    _check_betas("--beta", [args.beta])
    cfg = _config(args.model, args.lam, args.beta, args.radius, args.seed, args)
    c = cfg.inner.C if args.model == "lapmedn" else cfg.C
    instances, spec, _ = read_dataset(args.data)
    started = time.perf_counter()
    (weights,), (variances,) = train_laplace_grid(instances, spec, [cfg])
    var_diag = None if args.model == "l1m3n" else variances
    objective = structured_hinge_objective(
        instances,
        spec,
        weights,
        c,
        inv_diag=None if var_diag is None else 1.0 / var_diag,
    )
    elapsed = time.perf_counter() - started
    hyper = {
        "lambda": args.lam,
        "radius": args.radius,
        "beta": args.beta,
        "c": c,
        "iters": args.iters,
        "outer_iters": getattr(cfg, "outer_iters", None),
        "seed": args.seed,
        "n_train": len(instances),
    }
    # A family's model file records only the flags that family reads.
    hyper = {key: value for key, value in hyper.items() if value is not None}
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
    else:
        grid = [(None, beta, radius) for radius in radii for beta in betas]
        flags = "--radii and --betas"
    if not grid:
        raise ValueError(f"{model_name} requires nonempty {flags}")
    return grid


def _cmd_cv(args) -> int:
    lambdas = DEFAULT_LAMBDA_GRID if args.lambdas is None else args.lambdas
    radii = DEFAULT_RADIUS_GRID if args.radii is None else args.radii
    table = [
        (name, *hyper)
        for name in _families(args)
        for hyper in _hyper_grid(name, lambdas, args.betas, radii)
    ]
    _check_betas("--betas", args.betas)
    for flag, values in (("--lambdas", lambdas), ("--betas", args.betas), ("--radii", radii)):
        _check_distinct(flag, values)
    _check_seed(args.seed)  # fold f trains with seed + f
    if args.folds < 2:
        raise ValueError("need at least 2 folds")
    instances, spec, _ = read_dataset(args.data)
    n = len(instances)
    if args.folds > n:
        raise ValueError("more folds than instances")
    folds = np.array_split(np.random.default_rng(args.seed).permutation(n), args.folds)
    # Inverted split: each config of the table trains on every single fold
    # with seed + fold, all of them in one lockstep training, and is tested
    # on the other folds.
    cfgs = [_config(*row, args.seed + f, args) for row in table for f in range(len(folds))]
    weights, _ = train_laplace_grid(instances, spec, cfgs, subsets=folds * len(table))
    weights = weights.reshape(len(table), len(folds), -1)
    reports = []
    for f, fold in enumerate(folds):
        held = set(fold.tolist())
        test_set = [instances[i] for i in range(n) if i not in held]
        reports.append(evaluate_weight_rows(spec, weights[:, f], test_set))
    rows = []
    for (name, lam, beta, radius), per_fold in zip(table, zip(*reports)):
        config = [
            name,
            "" if lam is None else _fmt(lam),
            _fmt(beta),
            "" if radius is None else _fmt(radius),
        ]
        for f, (fold, report) in enumerate(zip(folds, per_fold)):
            rows.append(
                config
                + [f, len(fold), _fmt(report.per_label_err), _fmt(report.seq_err), args.seed + f]
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
    _check_distinct("--lambdas", args.lambdas)
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
    _check_distinct("--lambdas", args.lambdas)
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
    p.add_argument("--outer-iters", type=int, default=None,
                   help=f"outer loop bound T (lapmedn, default {DEFAULT_OUTER_ITERS})")
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
    p.add_argument("--lambdas", type=_float_list, default=None, help="prior scales (lapmedn)")
    p.add_argument("--betas", type=_float_list, default=list(DEFAULT_BETA_GRID))
    p.add_argument("--radii", type=_float_list, default=None, help="L1 ball radii (l1m3n)")
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--iters", type=int, default=50)
    p.add_argument("--outer-iters", type=int, default=None, help="outer loop bound T (lapmedn)")
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
