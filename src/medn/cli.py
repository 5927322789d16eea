"""Command-line front end.

Subcommands: gen-synth, train, predict, eval, cv, shrinkage-curve,
norm-ball, pac-bound.  Every command is deterministic given its flags and
seed; all tabular output is CSV with a header row, and files are written
with "\\n" newlines so reruns are byte-identical.  A failure, a command
line that argparse rejects and running out of memory among them, ends in
one ``error:`` line and exit code 2.

Each subcommand's flags are added by one function beside its command, and
a run builds the parser of the subcommand it names alone, since argparse
takes about 2 ms to build all eight.  A command line that names no
subcommand (``--help``, none, a typo) gets them all.

Every command's config error names its flag: a library check names the
field or parameter it rejects, and one rule, ``_error_text``, which writes
every error line, puts the flag that set it in its place (a sweep's
``--betas``, ``--lambdas`` or ``--radii`` where the command has it; the
beta flag for m3n's default slack penalty, 200 * beta).  ``gen-synth``
and ``pac-bound`` build their library object (a
:class:`~medn.synth.GeneratorConfig`, a :class:`~medn.bounds.BoundInputs`)
from the flags whose argparse dests are the object's field names, with
``_from_flags``, and a flag whose field has a default takes it from the
object.
``pac-bound``'s CSV columns are those fields, then m and the bound.  The
model family names are :mod:`medn.dataio`'s, which checks a model file's
kind.

``FAMILY_FLAGS`` names, by family, the argparse dests that only that
family reads.  ``train`` and ``cv`` reject such a flag when they do not
train its family, ``train`` a family's hyperparameter left out, and
``cv`` an empty sweep, a family or a sweep value listed twice, all before
any data is read; ``_flag`` spells the flag of a dest in each of those
errors.  ``_training_flags`` adds the flags that both commands share.
They build the config of each training row with one helper,
``_config``; a config checks itself when it is built, and each command
builds every row's config (``cv`` with fold 0's seed) before it reads
the data, so every row is checked first.  One
:func:`medn.models.train_laplace_grid` call trains them all: T - 1
lockstep kernel calls for the whole ``cv`` sweep, which then evaluates
each fold's rows in one decode of the other folds.
``train`` reports the objective under the trained penalty 1 / var, and
for l1m3n the hinge total alone, evaluated on the same preparation of the
data that trained it.
"""

import argparse
import csv
import math
import sys
import time
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np

from .bounds import BoundInputs, margin_sample_count, pac_bound
from .chain import _COUNT_LIMIT, FeatureSpec, _check_count, decode_instances
from .curves import (
    identity_points,
    l1_unit_ball,
    l2_unit_ball,
    norm_ball_boundary,
    norm_ball_level,
    shrinkage_eta_grid,
    shrinkage_points,
)
from .dataio import (ModelFile, _MODEL_KINDS, read_dataset, read_model_file, write_dataset,
                     write_model_file)
from .metrics import evaluate_weight_rows, mean_std
from .models import LaplaceConfig, _train_rounds, train_laplace_grid
from .optimize import SubgradConfig, _KernelData, _objective
from .synth import GeneratorConfig, gen_dataset

__all__ = ["main", "build_parser"]

# Default hyperparameter grids for cross-validation sweeps.
DEFAULT_LAMBDA_GRID = (9.0, 16.0, 25.0, 36.0, 49.0, 64.0)
DEFAULT_BETA_GRID = (1.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0)
DEFAULT_RADIUS_GRID = (10.0,)
DEFAULT_OUTER_ITERS = LaplaceConfig.outer_iters

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
    values = []
    for part in text.split(","):
        if part.strip():
            try:
                values.append(float(part))
            except ValueError:
                raise argparse.ArgumentTypeError(f"not a number: {part!r}") from None
    return values


# The flags not spelled as their field's or parameter's name with "-" for
# "_"; a name listed here is a flag's even where no dest is named after it.
_FIELD_FLAGS = {"L": "--length", "n_samples": "--n", "empirical_margin_rate": "--margin-rate", "lam": "--lambda",
                "iterations": "--iters", "C": "--c", "n_points": "--points", "n_angles": "--angles"}
# The dests of the sweeps of cv, shrinkage-curve and norm-ball, by the field
# each one sets; a command with the sweep names it in place of the field's flag.
_SWEEPS = {"lam": "lambdas", "beta": "betas", "radius": "radii"}


def _flag(name) -> str:
    """The flag of an argparse dest or of the field or parameter it sets."""
    return _FIELD_FLAGS.get(name, "--" + name.replace("_", "-"))


def _error_text(exc, args) -> str:
    """The text of a failed command's ``error:`` line, which names the flag
    behind a config error: a ValueError whose message starts with the name
    of a field that a flag of the command sets, then a space, starts with
    that flag instead, the library's own message naming the field.  An m3n
    slack penalty C left to its default, 200 * beta, names the beta flag."""
    name, space, rest = str(exc).partition(" ")
    if name == "C" and args.c is None:
        name, rest = "beta", f"(times 200, the default --c) {rest}"
    if hasattr(args, _SWEEPS.get(name, "")):
        name = _SWEEPS[name]
    if isinstance(exc, ValueError) and space and (hasattr(args, name) or name in _FIELD_FLAGS):
        return f"{_flag(name)} {rest}"
    return str(exc)


def _from_flags(cls, args):
    """A ``cls`` dataclass built from the flags whose dests are its field names."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


# ----------------------------------------------------------------------
# gen-synth


def _cmd_gen_synth(args) -> int:
    cfg = _from_flags(GeneratorConfig, args)
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


def _gen_synth_flags(p):
    p.add_argument("--d", type=int, default=20, help="input features per position")
    p.add_argument("--d-rel", type=int, default=5, help="relevant input features")
    p.add_argument("--length", "--L", dest="L", metavar="LENGTH", type=int, default=8, help="sequence length")
    p.add_argument("--m", type=int, default=2, help="label arity")
    p.add_argument("--n", dest="n_samples", metavar="N", type=int, default=250, help="number of instances")
    p.add_argument("--gibbs-iters", type=int, default=GeneratorConfig.gibbs_iters,
                   help="labeling sweeps per instance")
    p.add_argument("--correlated", action="store_true", help="group-correlated relevant features")
    p.add_argument("--group-size", type=int, default=GeneratorConfig.group_size)
    p.add_argument("--noise-sd", type=float, default=GeneratorConfig.noise_sd)
    p.add_argument("--seed", type=int, default=GeneratorConfig.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_synth)


# ----------------------------------------------------------------------
# train


def _check_distinct(dest, values):
    """Rejects a sweep value listed twice; values compare as floats, so 1
    and 1.0 are one value."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{_flag(dest)} lists {value:g} twice")


# The argparse dests that only one family reads, by family: first the
# hyperparameter that train requires, then its sweep in cv, then a flag
# with a default.
FAMILY_FLAGS = {"lapmedn": ("lam", "lambdas", "outer_iters"), "l1m3n": ("radius", "radii")}


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
            if name not in _MODEL_KINDS:
                raise ValueError(f"unknown model {name!r}")
            if models.count(name) > 1:
                raise ValueError(f"--models lists {name} twice")
    for family, dests in FAMILY_FLAGS.items():
        for dest in dests:
            if getattr(args, dest, None) is not None and family not in models:
                raise ValueError(f"{_flag(dest)} is for {family} only, not {','.join(models)}")
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
    hyperparameter = FAMILY_FLAGS.get(args.model, (None,))[0]
    if hyperparameter and getattr(args, hyperparameter) is None:
        raise ValueError(f"{args.model} requires {_flag(hyperparameter)}")
    cfg = _config(args.model, args.lam, args.beta, args.radius, args.seed, args)
    c = getattr(cfg, "inner", cfg).C
    instances, spec, _ = read_dataset(args.data)
    if not instances:
        raise ValueError(f"{args.data}: no instances to train on")
    started = time.perf_counter()
    kernel = _KernelData(instances, spec)
    (weights,), (variances,) = _train_rounds(kernel, [cfg], [np.arange(kernel.n)])
    var_diag = None if args.model == "l1m3n" else variances
    objective = _objective(kernel, weights, c, None if var_diag is None else 1.0 / var_diag)
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


def _training_flags(p, command):
    """Adds the flags that train and cv share, after the command's own, and
    binds ``command``."""
    p.add_argument("--c", type=float, default=None, help="slack penalty (default 200*beta for m3n, 1 otherwise)")
    p.add_argument("--iters", type=int, default=50, help="epochs per subgradient solve")
    p.add_argument("--outer-iters", type=int, default=None,
                   help=f"outer loop bound T (lapmedn, default {DEFAULT_OUTER_ITERS})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=command)


def _train_flags(p):
    p.add_argument("--model", choices=_MODEL_KINDS, required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="prior scale (lapmedn)")
    p.add_argument("--beta", type=float, default=1.0, help="step-size scale")
    p.add_argument("--radius", type=float, default=None, help="L1 ball radius (l1m3n)")
    _training_flags(p, _cmd_train)


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
    rows = [[i, " ".join(map(str, pred[0].tolist()))] for i, pred in enumerate(preds)]
    _write_csv(args.out, ["index", "y_pred"], rows)
    print(f"wrote predictions for {len(rows)} instances to {args.out}")
    return 0


def _predict_flags(p):
    p.add_argument("--model-file", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)


def _cmd_eval(args) -> int:
    model = read_model_file(args.model_file)
    instances, spec, _ = read_dataset(args.data)
    if not instances:
        raise ValueError(f"{args.data}: no instances to evaluate")
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


def _eval_flags(p):
    p.add_argument("--model-file", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None, help="optional CSV destination")
    p.set_defaults(func=_cmd_eval)


# ----------------------------------------------------------------------
# cv


def _hyper_grid(family, sweeps):
    """The (lam, beta, radius) rows swept for one family, beta innermost:
    each field ranges over its sweep in ``sweeps``, by dest, if the family
    reads it, else is None."""
    read = [dest for dest in FAMILY_FLAGS.get(family, ()) if dest in sweeps] + ["betas"]
    lams, radii, betas = (sweeps[dest] if dest in read else [None] for dest in ("lambdas", "radii", "betas"))
    grid = [(lam, beta, radius) for lam in lams for radius in radii for beta in betas]
    if not grid:
        raise ValueError(f"{family} requires nonempty {' and '.join(map(_flag, read))}")
    return grid


def _cmd_cv(args) -> int:
    sweeps = {"lambdas": DEFAULT_LAMBDA_GRID if args.lambdas is None else args.lambdas,
              "betas": args.betas,
              "radii": DEFAULT_RADIUS_GRID if args.radii is None else args.radii}
    table = [(name, *hyper) for name in _families(args) for hyper in _hyper_grid(name, sweeps)]
    for dest, values in sweeps.items():
        _check_distinct(dest, values)
    # Each row's config checks itself; fold f trains with seed + f, which is
    # valid if fold 0's seed is.
    for row in table:
        _config(*row, args.seed, args)
    _check_count("folds", args.folds, 2, limit=None)
    instances, spec, _ = read_dataset(args.data)
    n = len(instances)
    if args.folds > n:
        raise ValueError(f"--folds {args.folds} is more than the {n} instances")
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


def _cv_flags(p):
    p.add_argument("--data", required=True)
    p.add_argument("--folds", type=int, required=True)
    p.add_argument("--models", default="m3n,lapmedn", help="comma-separated model list")
    p.add_argument("--lambdas", type=_float_list, default=None, help="prior scales (lapmedn)")
    p.add_argument("--betas", type=_float_list, default=list(DEFAULT_BETA_GRID))
    p.add_argument("--radii", type=_float_list, default=None, help="L1 ball radii (l1m3n)")
    _training_flags(p, _cmd_cv)


# ----------------------------------------------------------------------
# curves


def _parse_eta_grid(text: str) -> np.ndarray:
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise ValueError("--eta-grid must look like MIN:MAX:COUNT") from None
    if not (lo < hi and 2 <= count < _COUNT_LIMIT):
        raise ValueError("--eta-grid needs MIN < MAX and COUNT in [2, 2**59)")
    if not math.isfinite(hi - lo):  # an infinite end, or ends too far apart to step between
        raise ValueError("--eta-grid needs finite MIN and MAX whose difference is finite")
    return np.linspace(lo, hi, count)


def _cmd_shrinkage_curve(args) -> int:
    if not args.lambdas:
        raise ValueError("shrinkage-curve requires nonempty --lambdas")
    _check_distinct("lambdas", args.lambdas)
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


def _shrinkage_curve_flags(p):
    p.add_argument("--lambdas", type=_float_list, default=[4.0, 6.0])
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--eta-grid", default=None, help="explicit grid MIN:MAX:COUNT")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_shrinkage_curve)


def _cmd_norm_ball(args) -> int:
    _check_distinct("lambdas", args.lambdas)
    rows = []
    for lam in args.lambdas:
        level = norm_ball_level(lam)
        for w1, w2 in norm_ball_boundary(lam, args.angles):
            rows.append(["kl", _fmt(lam), _fmt(w1), _fmt(w2), _fmt(level)])
    for curve, unit_ball in (("l1", l1_unit_ball), ("l2", l2_unit_ball)):
        for w1, w2 in unit_ball(args.angles):
            rows.append([curve, "", _fmt(w1), _fmt(w2), _fmt(1.0)])
    _write_csv(args.out, ["curve", "lambda", "w1", "w2", "level"], rows)
    print(f"wrote {len(rows)} boundary points to {args.out}")
    return 0


def _norm_ball_flags(p):
    p.add_argument("--lambdas", type=_float_list, default=[1.0, 4.0, 16.0])
    p.add_argument("--angles", type=int, default=360)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_norm_ball)


# ----------------------------------------------------------------------
# pac-bound


def _cmd_pac_bound(args) -> int:
    inputs = _from_flags(BoundInputs, args)
    m = margin_sample_count(inputs)
    bound = pac_bound(inputs)
    print(f"m = {m}")
    print(f"bound = {bound:.10f}")
    if args.out:
        row = [v if isinstance(v, int) else _fmt(v) for v in astuple(inputs)] + [m, _fmt(bound)]
        _write_csv(args.out, [f.name for f in fields(BoundInputs)] + ["m", "bound"], [row])
    return 0


def _pac_bound_flags(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--y-card", type=int, required=True)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--kl", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--margin-rate", dest="empirical_margin_rate", metavar="MARGIN_RATE", type=float, default=0.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_pac_bound)


# ----------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a bad command line as one ``error:``
    line and exit code 2, as every other failure is reported; ``--help``
    and the usage it prints are argparse's own.  Subparsers are built from
    the same class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


# Each subcommand, in help order: its help line and the function beside its
# command that adds its flags and binds the command.
_COMMANDS = {
    "gen-synth": ("generate a synthetic dataset file", _gen_synth_flags),
    "train": ("train a model and write a model file", _train_flags),
    "predict": ("decode a dataset under a trained model", _predict_flags),
    "eval": ("error rates of a trained model on a dataset", _eval_flags),
    "cv": ("inverted cross-validation with hyperparameter sweeps", _cv_flags),
    "shrinkage-curve": ("posterior-mean shrinkage curves as CSV", _shrinkage_curve_flags),
    "norm-ball": ("penalty-ball boundaries as CSV", _norm_ball_flags),
    "pac-bound": ("evaluate the generalization bound", _pac_bound_flags),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The ``medn`` parser, with the subparser of ``command`` alone if it
    names a subcommand, else with every subcommand's, so that ``--help``
    and an unknown command's error list them all.  A command line that
    starts with its subcommand parses, and fails, alike under both."""
    parser = _Parser(
        prog="medn", description="Max-margin chain models: data, training, analysis."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command in _COMMANDS else _COMMANDS:
        help_text, add_flags = _COMMANDS[name]
        add_flags(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {_error_text(exc, args)}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # A bare MemoryError has no message.
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
